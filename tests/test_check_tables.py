"""verify's table checks, the exploration minimum and the elliptical potential against their loop oracles, bit for bit."""

import math

import numpy as np
import pytest

from check_oracles import (
    oracle_conditional_update_violation,
    oracle_elliptical_lhs,
    oracle_estimation_error_bound,
    oracle_min_exploration_prob,
)
from policy_oracles import random_tree_policy
from psrlab.bonus import elliptical_potential_check
from psrlab.errors import StructuralError
from psrlab.estimation import make_candidates
from psrlab.offline import min_exploration_prob
from psrlab.policies import CompositePolicy, UniformActionSeqPolicy, policy_weight_vector, uniform_policy
from psrlab.pomdp import default_psr, g_matrices, near_tie, pomdp_to_psr
from psrlab.psr import conditional_update_violation, forward_step
from psrlab.seeding import child_seed, rng_for
from psrlab.verify import _transition_dithered, estimation_error_bound, reference_env, small_builtin_envs

ENVS = small_builtin_envs() + [("near_tie", near_tie())]
IDS = [name for name, _ in ENVS]


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _weighted_bound(model_hat, model, policy):
    """The policy's weighted sum of the per-step, per-trajectory terms, exactly rounded by ``math.fsum``."""
    terms = estimation_error_bound(model_hat, model)
    assert terms.shape == (model.space.horizon, model.space.n_trajectories)
    return math.fsum((policy_weight_vector(policy, model.space) * terms).ravel())


def _behaviors(space):
    """Uniform, five random trees, a tree-then-mixture composite and a ragged mixture."""
    A = space.n_actions
    trees = [random_tree_policy(space, child_seed(s, "iota-tree")) for s in range(6)]
    composite = CompositePolicy(2, trees[5], UniformActionSeqPolicy(A, 2, ((), (A - 1,), (0, A - 1))))
    ragged = UniformActionSeqPolicy(A, 1, ((0,), (A - 1, 0)))  # inconsistent rows below (A-1, A-1)
    return [uniform_policy(space)] + trees[:5] + [composite, ragged]


@pytest.fixture(scope="module", params=ENVS, ids=IDS)
def env_case(request):
    name, env = request.param
    model, _ = default_psr(env)
    return name, env, model


def test_forward_step_is_the_per_row_matvec(env_case):
    name, env, model = env_case
    space = env.space
    for h in range(space.horizon):
        states = model.state_table(h)
        rows = forward_step(model.M[h], states).reshape(len(states), space.n_obs, space.n_actions, -1)
        for i, x in enumerate(states):
            for o in range(space.n_obs):
                for a in range(space.n_actions):
                    assert np.array_equal(rows[i, o, a], model.M[h][o, a] @ x), (name, h, i, o, a)


def test_min_exploration_prob_equals_recursion(env_case):
    """On the default core tests and on the m = 2 and 3 windows, whose exploration sequences run up to 3 actions."""
    name, env, model = env_case
    cores = [model.core_tests] + [pomdp_to_psr(env, g_matrices(env, m)).core_tests for m in (2, 3)]
    for c, core_tests in enumerate(cores):
        for k, behavior in enumerate(_behaviors(env.space)):
            table = min_exploration_prob(behavior, core_tests)
            oracle = oracle_min_exploration_prob(behavior, core_tests)
            assert _same_bits(table, oracle), (name, c, k, table, oracle)


def test_min_exploration_prob_raises_where_recursion_raises(env_case):
    _, env, model = env_case
    space = env.space
    A = space.n_actions
    late = UniformActionSeqPolicy(A, 2, ((0,),))  # undefined at step 1
    behaviors = [late]
    if A >= 3 and space.horizon >= 3:
        # The tree reaches action 1 at step 2, which matches neither sequence of the step-3 mixture.
        mixture = UniformActionSeqPolicy(A, 2, ((0, 1), (A - 1, A - 1)))
        behaviors.append(CompositePolicy(3, random_tree_policy(space, 1), mixture))
    for behavior in behaviors:
        with pytest.raises(StructuralError, match="inconsistent with every mixture sequence|before start step"):
            oracle_min_exploration_prob(behavior, model.core_tests)
        with pytest.raises(StructuralError, match="inconsistent with every mixture sequence|before start step"):
            min_exploration_prob(behavior, model.core_tests)


def test_conditional_update_violation_equals_per_history_loop(env_case):
    name, env, model = env_case
    cands = make_candidates(env, "dithered", seed=3, n=3, scale=0.1)
    for k, m in enumerate((model,) + tuple(cands.models)):
        table, oracle = conditional_update_violation(m), oracle_conditional_update_violation(m)
        assert _same_bits(table, oracle), (name, k, table, oracle)


def test_estimation_error_bound_equals_per_trajectory_loop(env_case):
    name, env, model = env_case
    cands = make_candidates(env, "dithered", seed=3, n=3, scale=0.1)
    behaviors = _behaviors(env.space)
    for k, m in enumerate(cands.models):
        for j in (0, 1, 6):  # uniform, a tree (zero weights), the composite
            table = _weighted_bound(m, model, behaviors[j])
            oracle = oracle_estimation_error_bound(m, model, behaviors[j])
            assert _same_bits(table, oracle), (name, k, j, table, oracle)


def test_estimation_error_bound_on_the_verify_pairs():
    env = reference_env()
    model, _ = default_psr(env)
    for s in range(4):
        other, _ = default_psr(_transition_dithered(env, seed=100 + s, scale=0.3))
        pol = random_tree_policy(env.space, child_seed(s, "a1-policy"))
        assert _same_bits(_weighted_bound(other, model, pol), oracle_estimation_error_bound(other, model, pol))


def test_elliptical_potential_equals_running_gram_loop():
    """The inputs of verify's elliptical-potential check, for 200 seeds."""
    for s in range(200):
        rng = rng_for(s, "elliptical")
        dim = int(rng.integers(1, 4))
        X = rng.standard_normal((int(rng.integers(1, 1000)), dim))
        X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        lam = float(rng.uniform(0.5, 2.0))
        B = float(rng.uniform(0.5, 3.0))
        lhs, _, _ = elliptical_potential_check(X, lam, B)
        assert _same_bits(lhs, oracle_elliptical_lhs(X, lam, B)), s
