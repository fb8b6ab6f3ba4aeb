import math

import numpy as np
import pytest

from conftest import assert_same_columns, make_single_state_env
from policy_oracles import action_row, random_tree_policy
from pomdp_oracles import enumerate_futures
from psrlab.errors import StructuralError
from psrlab.estimation import make_candidates
from psrlab.offline import (
    OfflineConfig,
    collect_offline,
    coverage_coefficient,
    ensure_behavior_coverage,
    min_exploration_prob,
    offline_gap,
    run_psr_lcb,
)
from psrlab.planner import leaf_table, plan_on_table, policy_value_on_table
from psrlab.policies import (
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    _row_table,
    uniform_policy,
)
from psrlab.pomdp import default_psr, near_tie
from psrlab.psr import make_core_test_set
from psrlab.seeding import child_seed
from psrlab.spaces import History, enumerate_histories


def test_collect_split_exact_when_k_equals_h(small_env):
    dataset = collect_offline(small_env, uniform_policy(small_env.space), 3, seed=0)
    assert [len(cols.trajectory) for cols in dataset.columns] == [1, 1, 1]


def test_collect_split_sizes_differ_by_at_most_one(small_env):
    dataset = collect_offline(small_env, uniform_policy(small_env.space), 10, seed=4)
    sizes = sorted(len(cols.trajectory) for cols in dataset.columns)
    assert sizes == [3, 3, 4]
    again = collect_offline(small_env, uniform_policy(small_env.space), 10, seed=4)
    assert_same_columns(again, dataset)


def test_collect_is_partition(small_env):
    dataset = collect_offline(small_env, uniform_policy(small_env.space), 11, seed=1)
    assert dataset.size() == 11
    space = small_env.space
    for h, cols in enumerate(dataset.columns):
        assert len({len(column) for column in cols}) == 1  # aligned columns
        assert all(0 <= t < space.n_trajectories for t in cols.trajectory)
        # the recorded prefix is the length-h prefix of the recorded trajectory
        assert [t // space.pair_count ** (space.horizon - h) for t in cols.trajectory] == list(cols.prefix)


def test_collect_requires_enough_episodes(small_env):
    with pytest.raises(StructuralError):
        collect_offline(small_env, uniform_policy(small_env.space), 2, seed=0)


def test_collect_frequencies_match_exact(reference_env):
    behavior = uniform_policy(reference_env.space)
    n = 20000
    dataset = collect_offline(reference_env, behavior, n, seed=9)
    space = reference_env.space
    counts = np.zeros(space.n_trajectories)
    for cols in dataset.columns:
        np.add.at(counts, np.asarray(cols.trajectory), 1)
    from psrlab.policies import policy_weight_vector

    exact = policy_weight_vector(behavior, space) * np.array(
        [reference_env.exact_traj_prob(h) for h in enumerate_histories(space, space.horizon)]
    )
    sd = np.sqrt(exact * (1 - exact) / n)
    assert np.all(np.abs(counts / n - exact) <= 3 * sd + 2e-3)


def test_min_exploration_prob_uniform_product(small_env):
    # full-length tests carry full-length action sequences
    tests = [tuple(enumerate_futures(small_env.space, h)) for h in range(small_env.space.horizon)]
    core = make_core_test_set(small_env.space, tests)
    longest = max(len(s) for seqs in core.exploration_seqs for s in seqs)
    iota = min_exploration_prob(uniform_policy(small_env.space), core)
    assert iota == pytest.approx((1 / small_env.space.n_actions) ** longest, abs=1e-12)


def test_min_exploration_prob_zero_triggers_rejection(reference_model):
    avoid = UniformActionSeqPolicy(2, 1, ((0, 0),))  # never takes action 1 at step 1
    assert min_exploration_prob(avoid, reference_model.core_tests) == 0.0
    with pytest.raises(StructuralError):
        ensure_behavior_coverage(avoid, reference_model.core_tests)


class ObsDependentBehavior:
    """Stochastic, observation-dependent rule (supported via duck typing): row 0 at obs 0, row 1 at any other."""

    TABLE = _row_table(np.array([[0.3, 0.7], [0.6, 0.4]]), np.ones(2, dtype=bool))

    def _rows(self, space, h, nodes):
        return self.TABLE, np.minimum(nodes % space.n_obs, 1)


def brute_force_iota(behavior, core, space):
    best = 1.0

    def seq_min(hist, seq, j):
        if j == len(seq):
            return 1.0
        worst = math.inf
        for o in range(space.n_obs):
            p = action_row(behavior, space, hist, o)[seq[j]]
            if p == 0.0:
                return 0.0
            worst = min(worst, p * seq_min(hist.extend(o, seq[j]), seq, j + 1))
        return worst

    def prefix_min(hist, h):
        if len(hist) == h:
            return min(
                (seq_min(hist, seq, 0) for seq in core.exploration_seqs[h] if seq),
                default=1.0,
            )
        worst = math.inf
        for o in range(space.n_obs):
            probs = action_row(behavior, space, hist, o)
            for a in range(space.n_actions):
                if probs[a] > 0:
                    worst = min(worst, prefix_min(hist.extend(o, a), h))
        return worst

    for h in range(space.horizon):
        best = min(best, prefix_min(History(), h))
    return best


def test_min_exploration_prob_obs_dependent_oracle(reference_model):
    behavior = ObsDependentBehavior()
    core = reference_model.core_tests
    space = reference_model.space
    assert min_exploration_prob(behavior, core) == pytest.approx(
        brute_force_iota(behavior, core, space), abs=1e-12
    )


def test_coverage_identity(reference_env):
    behavior = uniform_policy(reference_env.space)
    assert coverage_coefficient(reference_env, behavior, behavior) == pytest.approx(1.0, abs=1e-12)


def test_coverage_single_obs_deterministic_target():
    env = make_single_state_env(horizon=3, n_obs=1, n_actions=2, emission_row=np.array([1.0]))
    space = env.space
    target = DeterministicTreePolicy(
        space, tuple(np.zeros(space.n_histories(h - 1), dtype=np.int64) for h in range(1, 4))
    )
    cov = coverage_coefficient(env, target, uniform_policy(space))
    assert cov == pytest.approx(2.0 ** 3, abs=1e-12)


def test_coverage_null_prefix_is_infinite(reference_env):
    behavior = UniformActionSeqPolicy(2, 1, ((0, 0),))
    target = UniformActionSeqPolicy(2, 1, ((1, 1),))
    assert coverage_coefficient(reference_env, target, behavior) == math.inf


@pytest.fixture(scope="module")
def lcb_setup():
    env = near_tie()
    model, _ = default_psr(env)
    reward_leaves = leaf_table(env.space, env.reward_of)
    opt_policy, opt_value = plan_on_table(env.space, model.prob_table(2) * reward_leaves)
    behavior = UniformActionSeqPolicy(2, 1, ((), (1,), (1, 0), (1, 1)))
    return env, model, reward_leaves, opt_policy, behavior


def test_lcb_large_data_recovers_optimal(lcb_setup):
    env, model, reward_leaves, opt_policy, behavior = lcb_setup
    cands = make_candidates(env, "include_true")
    dataset = collect_offline(env, behavior, 10_000, seed=0)
    cfg = OfflineConfig(p_min=1e-12, beta=5.0, lam=0.5, alpha=1.6)
    result = run_psr_lcb(dataset, cands, cfg, reward_leaves)
    assert offline_gap(env, model, opt_policy, result.policy) == pytest.approx(0.0, abs=1e-12)


def test_lcb_zero_reward_minimizes_bonus(lcb_setup):
    env, model, reward_leaves, opt_policy, behavior = lcb_setup
    cands = make_candidates(env, "include_true")
    dataset = collect_offline(env, behavior, 40, seed=1)
    cfg = OfflineConfig(p_min=1e-12, beta=5.0, lam=0.5, alpha=1.6)
    result = run_psr_lcb(dataset, cands, cfg, np.zeros(env.space.n_trajectories))
    probs = result.model.prob_table(env.space.horizon)
    bonus_leaves = probs * result.evaluator.bonus_table()
    _, min_bonus = plan_on_table(env.space, -bonus_leaves)
    assert result.pessimistic_value == pytest.approx(min_bonus, abs=1e-12)


def test_lcb_tiny_alpha_is_greedy(lcb_setup):
    env, model, reward_leaves, opt_policy, behavior = lcb_setup
    cands = make_candidates(env, "include_true")
    dataset = collect_offline(env, behavior, 60, seed=2)
    cfg = OfflineConfig(p_min=1e-12, beta=5.0, lam=0.5, alpha=1e-12)
    result = run_psr_lcb(dataset, cands, cfg, reward_leaves)
    greedy, greedy_value = plan_on_table(
        env.space, result.model.prob_table(env.space.horizon) * reward_leaves
    )
    assert result.pessimistic_value == pytest.approx(greedy_value, abs=1e-9)


def test_lcb_argmax_certificate(lcb_setup):
    env, model, reward_leaves, opt_policy, behavior = lcb_setup
    cands = make_candidates(env, "dithered", seed=5, n=6, scale=0.03, emission_scale=0.0)
    dataset = collect_offline(env, behavior, 250, seed=3)
    cfg = OfflineConfig(p_min=1e-12, beta=5.0, lam=0.5, alpha=1.6)
    result = run_psr_lcb(dataset, cands, cfg, reward_leaves)
    probs = result.model.prob_table(env.space.horizon)
    leaves = probs * (reward_leaves - result.evaluator.bonus_table())
    for s in range(50):
        other = random_tree_policy(env.space, child_seed(s, "lcb-cert"))
        assert policy_value_on_table(env.space, other, leaves) <= result.pessimistic_value + 1e-12


def test_offline_gap_signs(lcb_setup):
    env, model, reward_leaves, opt_policy, behavior = lcb_setup
    assert offline_gap(env, model, opt_policy, opt_policy) == 0.0
    worse = DeterministicTreePolicy(
        env.space,
        (np.ones(2, dtype=np.int64), np.zeros(8, dtype=np.int64)),
    )
    assert offline_gap(env, model, worse, opt_policy) <= 0.0
