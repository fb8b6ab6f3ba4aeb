"""The environment's trajectory-tree tables against the per-history oracles, bit for bit."""

import math

import numpy as np
import pytest

from pomdp_oracles import (
    LEX_ORDER_SPACES,
    enumerate_futures,
    oracle_dynamics_matrix,
    oracle_exact_traj_prob,
    oracle_pre_emission_belief,
    oracle_test_prob_given_state,
    oracle_window_tests,
)
from policy_oracles import oracle_coverage_coefficient
from psrlab.errors import StructuralError
from psrlab.offline import coverage_coefficient
from psrlab.policies import UniformActionSeqPolicy, random_tree_policy, uniform_policy
from psrlab.pomdp import dynamics_matrix, g_matrices, near_tie, random_revealing, window_tests
from psrlab.seeding import child_seed
from psrlab.spaces import Future, History, ObsActSpace, enumerate_histories
from psrlab.verify import small_builtin_envs

SMALL_ENVS = small_builtin_envs()
WALK_ENVS = SMALL_ENVS + [("near_tie", near_tie())]
TABLE_ENVS = WALK_ENVS + [("random_revealing(1,2,3,2,6)", random_revealing(1, 2, 3, 2, 6))]


def _ids(envs):
    return [name for name, _ in envs]


@pytest.mark.parametrize("name,env", TABLE_ENVS, ids=_ids(TABLE_ENVS))
def test_forward_tables_equal_per_history_recursion(name, env):
    space = env.space
    for h in range(space.horizon + 1):
        hists = enumerate_histories(space, h)
        assert np.array_equal(env.prob_table(h), [oracle_exact_traj_prob(env, x) for x in hists]), (name, h)
        if h < space.horizon:
            beliefs = np.stack([oracle_pre_emission_belief(env, x) for x in hists])
            assert np.array_equal(env.belief_table(h), beliefs), (name, h)


def test_forward_tables_are_cached_read_only(small_env):
    for h in range(small_env.space.horizon + 1):
        assert small_env.prob_table(h) is small_env.prob_table(h)
        assert not small_env.prob_table(h).flags.writeable
    belief = small_env.belief_table(1)
    assert belief is small_env.belief_table(1) and not belief.flags.writeable
    with pytest.raises(StructuralError):
        small_env.belief_table(small_env.space.horizon)
    with pytest.raises(StructuralError):
        small_env.prob_table(small_env.space.horizon + 1)


def test_per_history_lookups_read_the_tables(small_env):
    hist = History(((1, 0), (0, 1)))
    idx = hist.lex_index(small_env.space)
    assert small_env.exact_traj_prob(hist) == small_env.prob_table(2)[idx]
    with pytest.raises(StructuralError):
        small_env.exact_traj_prob(History(((0, 5),)))


@pytest.mark.parametrize("name,env", SMALL_ENVS, ids=_ids(SMALL_ENVS))
def test_dynamics_matrix_equals_per_cell_fill(name, env):
    for h in range(env.space.horizon + 1):
        assert np.array_equal(dynamics_matrix(env, h), oracle_dynamics_matrix(env, h)), (name, h)


@pytest.mark.parametrize("name,env", WALK_ENVS, ids=_ids(WALK_ENVS))
def test_test_probs_equal_per_test_walk(name, env):
    space = env.space
    for m in range(1, space.horizon + 1):
        g = g_matrices(env, m)
        for h in range(1, space.horizon + 1):
            oracle = np.stack([oracle_test_prob_given_state(env, t, h) for t in g.tests[h - 1]])
            assert np.array_equal(g.matrices[h - 1], oracle), (name, m, h)
    for h in range(space.horizon):
        tests = enumerate_futures(space, h)  # full-length tests
        oracle = np.stack([oracle_test_prob_given_state(env, t, h + 1) for t in tests])
        assert np.array_equal(env.test_probs(tests, h + 1), oracle), (name, h)


@pytest.mark.parametrize("sizes", LEX_ORDER_SPACES)
def test_window_tests_in_decode_order(sizes):
    space = ObsActSpace(*sizes)
    for state_step in range(1, space.horizon + 1):
        for m in range(1, space.horizon + 2):
            tests = window_tests(space, state_step, m)
            assert tests == oracle_window_tests(space, state_step, m), (state_step, m)
            assert all(type(x) is int for test in tests for x in test.obs + test.acts)


def test_test_probs_take_tests_of_one_length(small_env):
    """``g_matrices`` passes one step's window tests, which share one length; anything else is a package error."""
    for tests in ([Future(0, (1,), ()), Future(0, (0, 1), (1, 1))], [], [Future(0, (), ())]):
        with pytest.raises(StructuralError, match="one positive length"):
            small_env.test_probs(tests, 1)
    with pytest.raises(StructuralError, match="runs past the horizon"):
        small_env.test_probs([Future(1, (1, 0, 1), (0, 1))], 2)


def _behaviours(space):
    return [
        ("uniform", uniform_policy(space)),
        ("offline-sweep", UniformActionSeqPolicy(space.n_actions, 1, ((), (1,), (1, 0), (1, 1)))),
    ]


@pytest.mark.parametrize("name,env", WALK_ENVS, ids=_ids(WALK_ENVS))
def test_coverage_coefficient_equals_history_loop(name, env):
    for label, behaviour in _behaviours(env.space):
        for s in range(5):
            target = random_tree_policy(env.space, child_seed(s, "coverage-target"))
            got = coverage_coefficient(env, target, behaviour)
            assert got == oracle_coverage_coefficient(env, target, behaviour), (name, label, s)
            assert 1.0 <= got < math.inf


def test_coverage_coefficient_infinite_where_behaviour_misses(reference_env):
    behaviour = UniformActionSeqPolicy(2, 1, ((0, 0),))
    target = UniformActionSeqPolicy(2, 1, ((1, 1),))
    assert coverage_coefficient(reference_env, target, behaviour) == math.inf
    assert oracle_coverage_coefficient(reference_env, target, behaviour) == math.inf
    assert coverage_coefficient(reference_env, behaviour, target) == math.inf
