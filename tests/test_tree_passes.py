"""The planner's induction, the bonus sums, the gram's LAPACK calls, the
per-model forward steps and the depth-H probabilities (a view of the states)
against their previous forms, bit for bit: equal values, dtypes and signs of
zero."""

import numpy as np
import pytest
import scipy.linalg

from check_oracles import (
    oracle_bonus_table,
    oracle_feature_gram_matrix,
    oracle_gram_scores,
    oracle_plan_on_table,
    oracle_score_table,
    oracle_stacked_states,
)
from conftest import make_single_state_env, model_from_arrays
from policy_oracles import add_drawn
from psrlab import online
from psrlab.bonus import BonusEvaluator, FeatureGram, prefix_grams
from psrlab.errors import StructuralError
from psrlab.estimation import DatasetFamily, make_candidates
from psrlab.online import OnlineConfig, _build_evaluator, run_psr_ucb
from psrlab.planner import plan_on_table
from psrlab.policies import uniform_policy
from psrlab.pomdp import default_psr, near_tie, random_revealing
from psrlab.psr import make_core_test_set
from psrlab.spaces import Future, ObsActSpace
from psrlab.verify import small_builtin_envs

ENVS = small_builtin_envs() + [("near_tie", near_tie()), ("random_revealing(1,2,3,2,6)", random_revealing(1, 2, 3, 2, 6))]
IDS = [name for name, _ in ENVS]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_plan_matches_oracle(space, leaves, label):
    policy, value = plan_on_table(space, leaves)
    tables, oracle_value = oracle_plan_on_table(space, leaves)
    assert _same(value, oracle_value), (label, value, oracle_value)
    assert len(policy.actions_by_step) == len(tables)
    for h, (got, want) in enumerate(zip(policy.actions_by_step, tables)):
        assert _same(got, want), (label, h)


def _evaluator(env, model, n_entries, lam=1.0, alpha=0.7):
    dataset = DatasetFamily(env.space)
    pol = uniform_policy(env.space)
    for i in range(n_entries):
        add_drawn(dataset, env, pol, 5000 + i, i % env.space.horizon)
    return _build_evaluator(model, dataset, lam, alpha)


@pytest.fixture(scope="module", params=ENVS, ids=IDS)
def env_case(request):
    name, env = request.param
    model, g_hat = default_psr(env)
    return name, env, model, g_hat


def test_bonus_tables_equal_leaf_sized_sums(env_case):
    name, env, model, g_hat = env_case
    cases = [_evaluator(env, model, n) for n in (0, 7, 40)] + [_evaluator(env, model, 12, alpha=3.0)]
    for k, ev in enumerate(cases):
        totals, degenerate = ev.score_table()
        oracle_totals, oracle_degenerate = oracle_score_table(ev)
        assert _same(totals, oracle_totals), (name, k)
        assert _same(degenerate, oracle_degenerate), (name, k)
        assert _same(ev.bonus_table(), oracle_bonus_table(ev)), (name, k)


def test_fresh_gram_and_degenerate_bonus_tables_match_oracle():
    """Fresh grams and grams over recorded prefixes: the matrices and factors of the
    earlier build, and bonus tables equal to the oracle's."""
    env = random_revealing(1, 2, 3, 2, 3)
    H = env.space.horizon
    cands = make_candidates(env, "dithered", seed=5, n=4, scale=0.05)
    dataset = DatasetFamily(env.space)
    pol = uniform_policy(env.space)
    for i in range(30):
        add_drawn(dataset, env, pol, 5000 + i, i % H)
    for m in cands.models:
        fresh = tuple(FeatureGram(h, 0.5, np.zeros((0, m.dims[h]))) for h in range(H))
        for grams, recorded in ((fresh, False), (prefix_grams(m, dataset, 0.5), True)):
            for h, gram in enumerate(grams):
                feats = m.feature_table(h)
                counts = np.bincount(dataset.columns[h].prefix, minlength=len(feats)) if recorded else np.zeros(0, int)
                used = np.flatnonzero(counts)
                matrix = oracle_feature_gram_matrix(m.dims[h], 0.5, feats[used], counts[used])
                assert _same(gram.matrix, matrix) and _same(gram._factor, scipy.linalg.cho_factor(matrix)[0])
            ev = BonusEvaluator(grams, 0.2, m)
            assert _same(ev.bonus_table(), oracle_bonus_table(ev))
    # a model with zero-probability prefixes: a single state that never emits observation 1
    single = make_single_state_env(horizon=3, n_obs=2, n_actions=2, emission_row=np.array([1.0, 0.0]))
    sm = default_psr(single)[0]
    ev = BonusEvaluator(tuple(FeatureGram(h, 1.0, np.zeros((0, sm.dims[h]))) for h in range(3)), 0.01, sm)
    totals, degenerate = ev.score_table()
    oracle_totals, oracle_degenerate = oracle_score_table(ev)
    assert degenerate.any() and not degenerate.all()
    assert _same(totals, oracle_totals) and _same(degenerate, oracle_degenerate)
    assert _same(ev.bonus_table(), oracle_bonus_table(ev))


def test_probabilities_equal_states_times_closing_vector(env_case):
    name, env, model, _ = env_case
    H = env.space.horizon
    cands = make_candidates(env, "dithered", seed=5, n=4, scale=0.05)
    for stack, models in ((model.stack, (model,)), (cands.stack, cands.models)):
        for h in range(H + 1):
            states, probs = stack.tables(h)
            assert _same(states, oracle_stacked_states(models, h)), (name, len(models), h)
            old = (states @ np.stack([m.phi[h] for m in models])[:, :, None])[:, :, 0]
            assert _same(probs, old), (name, h)
            assert not probs.flags.writeable
        assert all(m.phi[H].tolist() == [1.0] for m in models)
        assert np.shares_memory(probs, states), name  # depth H: no second copy


def test_probability_view_keeps_zero_signs():
    """Negative operators on a zero state: every product is -0.0, and the probabilities stay +0.0."""
    space = ObsActSpace(1, 2, 1)
    core = make_core_test_set(space, [(Future(0, (0,), ()),)])
    model = model_from_arrays(space, core, np.zeros(1), (np.full((1, 2, 1, 1), -1.0),), (np.ones(1), np.ones(1)))
    states, probs = model.stack.tables(1)
    assert np.shares_memory(probs, states)
    assert _same(probs, (states @ np.ones((1, 1, 1)))[:, :, 0])
    assert not np.signbit(probs).any()


def test_planner_equals_argmax_induction_on_model_leaves(env_case):
    name, env, model, _ = env_case
    space = env.space
    probs = model.prob_table(space.horizon)
    reward = env.reward.leaf_table(space)
    bonus = _evaluator(env, model, 9, alpha=0.4).bonus_table()
    other = make_candidates(env, "dithered", seed=3, n=2, scale=0.1).models[-1]
    leaves = {
        "reward": probs * reward,
        "bonus": probs * bonus,
        "reward_minus_bonus": probs * (reward - bonus),
        "abs_diff": np.abs(other.prob_table(space.horizon) - probs),
    }
    for kind, table in leaves.items():
        _assert_plan_matches_oracle(space, table, (name, kind))


SPACES = [ObsActSpace(3, 1, 3), ObsActSpace(9, 2, 2), ObsActSpace(10, 1, 2), ObsActSpace(2, 3, 3), ObsActSpace(2, 4, 3),
          ObsActSpace(17, 2, 2), ObsActSpace(300, 1, 1)]  # 17 and 300 observations: numpy's own reduction


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"O{s.n_obs}A{s.n_actions}H{s.horizon}")
@pytest.mark.parametrize("seed", range(4))
def test_planner_equals_argmax_induction_on_ties_and_signed_zeros(space, seed):
    rng = np.random.default_rng(seed)
    pool = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])
    leaves = pool[rng.integers(len(pool), size=space.n_trajectories)]
    _assert_plan_matches_oracle(space, leaves, (seed, "pool"))
    zeros = np.where(rng.random(space.n_trajectories) < 0.5, -0.0, 0.0)
    _assert_plan_matches_oracle(space, zeros, (seed, "signed zeros"))
    _assert_plan_matches_oracle(space, -np.zeros(space.n_trajectories), (seed, "negative zeros"))
    # Sums of random reals depend on their order, so these pin the node values' summation order.
    reals = rng.standard_normal(space.n_trajectories) * 10.0 ** rng.integers(-6, 7, size=space.n_trajectories)
    reals[rng.random(space.n_trajectories) < 0.2] = -0.0
    reals[rng.random(space.n_trajectories) < 0.1] = 0.0
    _assert_plan_matches_oracle(space, reals, (seed, "random reals"))


def test_gram_lapack_calls_equal_scipy_wrappers(reference_env, reference_model, monkeypatch):
    evaluators = []

    def recording(*args):
        ev = _build_evaluator(*args)
        evaluators.append(ev)
        return ev

    monkeypatch.setattr(online, "_build_evaluator", recording)
    cands = make_candidates(reference_env, "dithered", seed=5, n=10, scale=0.05)
    cfg = OnlineConfig(max_iterations=12, epsilon=0.2, delta=0.1, p_min=1e-9, beta=5.0, lam=1.0, alpha=0.5, seed=0)
    run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    assert len(evaluators) >= 5
    for ev in evaluators:
        for h, gram in enumerate(ev.grams):
            c, lower = scipy.linalg.cho_factor(gram.matrix)
            assert not lower and _same(gram._factor, c)
            feats = ev.feature_source.feature_table(h)
            assert _same(gram.scores(feats), oracle_gram_scores(gram, feats))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gram_raises_package_error(bad):
    rows = np.eye(2)
    rows[1, 1] = bad
    with np.errstate(invalid="ignore"):  # inf times the zero entries is NaN
        with pytest.raises(StructuralError, match="step 0 has non-finite"):
            FeatureGram(0, 1.0, rows)
        with pytest.raises(StructuralError, match="step 4 has non-finite"):
            FeatureGram(4, 1.0, np.eye(2), np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_raise_package_error(bad):
    gram = FeatureGram(2, 1.0, np.zeros((0, 3)))
    x = np.array([0.5, bad, 0.0])
    with pytest.raises(StructuralError, match="step-2 gram are not finite"):
        gram.scores(np.stack([np.ones(3), x]))


def test_wrong_feature_length_raises_package_error():
    gram = FeatureGram(0, 1.0, np.zeros((0, 3)))
    with pytest.raises(StructuralError, match="length 2"):
        gram.scores(np.ones((1, 2)))
    with pytest.raises(StructuralError, match="length 4"):
        gram.scores(np.ones((5, 4)))
