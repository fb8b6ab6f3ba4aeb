import itertools
import re

import numpy as np
import pytest

from check_oracles import oracle_value
from conftest import make_single_state_env
from policy_oracles import add_drawn
from pomdp_oracles import LEX_ORDER_SPACES, history_from_lex, python_int_steps, seq_prob
from psrlab.errors import StructuralError
from psrlab.estimation import DatasetFamily
from psrlab.online import _build_evaluator
from psrlab.planner import leaf_table, plan_on_table, policy_value_on_table
from psrlab.policies import DeterministicTreePolicy, uniform_policy
from psrlab.pomdp import default_psr, random_revealing
from psrlab.spaces import ObsActSpace


def all_tree_policies(space):
    sizes = [space.n_histories(h - 1) * space.n_obs for h in range(1, space.horizon + 1)]
    total = sum(sizes)
    for assignment in itertools.product(range(space.n_actions), repeat=total):
        tables = []
        at = 0
        for size in sizes:
            tables.append(np.array(assignment[at : at + size], dtype=np.int64))
            at += size
        yield DeterministicTreePolicy(space, tuple(tables))


def brute_force_best(space, leaves):
    best_val, best_policy = -np.inf, None
    for policy in all_tree_policies(space):
        val = policy_value_on_table(space, policy, leaves)
        if val > best_val + 1e-15:
            best_val, best_policy = val, policy
    return best_policy, best_val


@pytest.fixture(scope="module")
def env222():
    return random_revealing(seed=11, n_states=2, n_obs=2, n_actions=2, horizon=2, alpha_threshold=0.05)


@pytest.fixture(scope="module")
def model222(env222):
    return default_psr(env222)[0]


def test_leaf_table_calls_the_function_once_per_leaf():
    for sizes in LEX_ORDER_SPACES:
        space = ObsActSpace(*sizes)
        calls = []

        def reward(traj):
            calls.append(traj)
            return 0.25 * len(traj.steps) / space.horizon

        table = leaf_table(space, reward)
        # one call per leaf, in the decode's lex order
        assert calls == [history_from_lex(space, space.horizon, i) for i in range(space.n_trajectories)], sizes
        assert python_int_steps(calls), sizes
        assert np.all(table == 0.25), sizes


def test_constant_leaves_value():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=2)
    model, _ = default_psr(env)
    policy, val = plan_on_table(model.space, leaf_table(model.space, lambda t: 0.25))
    assert val == pytest.approx(0.25 * 2, abs=1e-15)  # sum over the two observations


def test_bandit_argmax():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=2, emission_row=np.array([0.5, 0.5]))
    model, _ = default_psr(env)
    rewards = {0: 0.3, 1: 0.7}
    leaves = leaf_table(model.space, lambda t: seq_prob(model, t) * rewards[t.steps[0][1]])
    policy, val = plan_on_table(model.space, leaves)
    assert val == pytest.approx(0.7, abs=1e-12)
    assert policy.actions_by_step[0].tolist() == [1, 1]  # the action after each first observation


def test_tie_breaks_to_lowest_action():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=3)
    model, _ = default_psr(env)
    policy, _ = plan_on_table(model.space, leaf_table(model.space, lambda t: 1.0))
    assert policy.actions_by_step[0][0] == 0


def _bonus_evaluator(env, model, seed=0, n_entries=6, lam=1.0, alpha=0.7):
    dataset = DatasetFamily(env.space)
    pol = uniform_policy(env.space)
    for i in range(n_entries):
        add_drawn(dataset, env, pol, 1000 + seed * 97 + i, i % env.space.horizon)
    return _build_evaluator(model, dataset, lam, alpha)


@pytest.mark.parametrize("leaf_kind", ["reward", "bonus", "reward_minus_bonus", "abs_diff"])
def test_planner_matches_policy_enumeration(env222, model222, leaf_kind):
    space = env222.space
    probs = model222.prob_table(space.horizon)
    if leaf_kind == "reward":
        leaves = probs * leaf_table(space, env222.reward_of)
    elif leaf_kind == "bonus":
        leaves = probs * _bonus_evaluator(env222, model222).bonus_table()
    elif leaf_kind == "reward_minus_bonus":
        ev = _bonus_evaluator(env222, model222, seed=1)
        leaves = probs * (leaf_table(space, env222.reward_of) - ev.bonus_table())
    else:
        other = default_psr(random_revealing(seed=21, n_states=2, n_obs=2, n_actions=2,
                                             horizon=2, alpha_threshold=0.05))[0]
        leaves = np.abs(probs - other.prob_table(space.horizon))
    policy, val = plan_on_table(space, leaves)
    brute_policy, brute_val = brute_force_best(space, leaves)
    assert val == pytest.approx(brute_val, abs=1e-12)
    assert policy_value_on_table(space, policy, leaves) == pytest.approx(brute_val, abs=1e-12)


def test_plan_value_agrees_with_value_evaluator(model222, env222):
    space = env222.space
    leaves = model222.prob_table(space.horizon) * leaf_table(space, env222.reward_of)
    policy, val = plan_on_table(space, leaves)
    assert oracle_value(model222, policy, env222.reward_of) == pytest.approx(val, abs=1e-12)


def test_plan_rejects_wrong_leaf_count(model222):
    """Planning and evaluating both refuse leaves that are not one value per trajectory."""
    policy = uniform_policy(model222.space)
    for leaves in (np.zeros(3), np.zeros(15), np.zeros((16, 2))):
        for call in (lambda: plan_on_table(model222.space, leaves), lambda: policy_value_on_table(model222.space, policy, leaves)):
            with pytest.raises(StructuralError, match=rf"^expected 16 leaf values, got shape {re.escape(str(leaves.shape))}$"):
                call()


@pytest.mark.parametrize("bad", [np.nan, "both_infs"])
def test_plan_rejects_nan_leaves(model222, bad):
    leaves = np.zeros(model222.space.n_trajectories)
    if bad == "both_infs":
        half = len(leaves) // 2  # first observation worth +inf, second -inf: NaN at the root
        leaves[:half], leaves[half:] = np.inf, -np.inf
    else:
        leaves[5] = bad
    with pytest.raises(StructuralError, match="NaN"), np.errstate(invalid="ignore"):
        plan_on_table(model222.space, leaves)
