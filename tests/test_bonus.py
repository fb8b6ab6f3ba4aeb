import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import growing_model, make_single_state_env
from policy_oracles import add_drawn, add_history
from pomdp_oracles import history_from_lex, prediction_feature
from psrlab.bonus import (
    BonusEvaluator,
    FeatureGram,
    elliptical_potential_check,
    prefix_grams,
    transfer_score_check,
)
from psrlab.errors import DegenerateHistory, StructuralError
from psrlab.estimation import DatasetFamily
from psrlab.online import _build_evaluator
from psrlab.policies import uniform_policy
from psrlab.pomdp import default_psr
from psrlab.psr import psr_rank
from psrlab.seeding import rng_for
from psrlab.spaces import History, enumerate_histories


def test_fresh_gram_score_is_euclidean():
    gram = FeatureGram(0, 1.0, np.zeros((0, 3)))
    x = np.array([0.3, -0.2, 0.9])
    assert gram.scores(x[None])[0] == pytest.approx(float(x @ x), abs=1e-12)


def test_build_unit_vector_closed_form():
    e1 = np.array([1.0, 0.0])
    gram = FeatureGram(0, 1.0, [e1])
    assert gram.scores(e1[None])[0] == pytest.approx(0.5, abs=1e-12)
    assert FeatureGram(0, 1.0, np.zeros((0, 2))).scores(e1[None])[0] == pytest.approx(1.0, abs=1e-12)


def test_gram_matrix_cannot_be_written_under_its_cached_factor():
    """The factor is cached at construction, so the matrix it came from is read-only and the input rows do not reach it."""
    g = FeatureGram(0, 1.0, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        g.matrix[:] = 100 * np.eye(2)
    assert g.scores(np.array([[1.0, 0.0]]))[0] == 1.0
    rows, counts = np.eye(2), np.array([1, 1])
    direct = FeatureGram(1, 1.0, rows, counts)
    rows[:] = 10.0
    counts[:] = 7
    assert direct.matrix.tolist() == [[2.0, 0.0], [0.0, 2.0]]
    assert direct.scores(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5, abs=1e-15)


def test_private_caches_are_not_constructor_arguments(reference_model):
    """A cache passed in would be trusted over the values it derives from, so none can be passed."""
    from psrlab.estimation import CandidateSet
    from psrlab.psr import PsrModel, PsrStack

    m = reference_model
    with pytest.raises(TypeError, match="_factor"):
        FeatureGram(0, 1.0, np.eye(2), _factor=10 * np.eye(2))
    with pytest.raises(TypeError, match="_feature_cache"):
        PsrModel(m.stack, 0, _feature_cache={2: np.zeros(1)})
    with pytest.raises(TypeError, match="_depth_tables"):
        PsrStack(m.space, m.core_tests, m.stack.psi0, m.stack.M, m.stack.phi, _depth_tables={2: np.zeros(1)})
    with pytest.raises(TypeError, match="models"):
        CandidateSet(m.stack, ("true",), models=(m,))
    assert FeatureGram(0, 1.0, np.zeros((0, 2))).scores(np.array([[1.0, 0.0]]))[0] == 1.0


def test_build_matches_direct_solve():
    rng = rng_for(0, "gram")
    feats = rng.standard_normal((100, 4))
    gram = FeatureGram(0, 0.7, feats)
    counted = FeatureGram(0, 0.7, feats[:50], np.full(50, 2))
    x = rng.standard_normal(4)
    direct = float(x @ np.linalg.solve(0.7 * np.eye(4) + feats.T @ feats, x))
    assert gram.scores(x[None])[0] == pytest.approx(direct, abs=1e-8)
    twice = float(x @ np.linalg.solve(0.7 * np.eye(4) + 2.0 * feats[:50].T @ feats[:50], x))
    assert counted.scores(x[None])[0] == pytest.approx(twice, abs=1e-8)


def test_gram_rejects_tiny_lambda():
    for lam in (1e-13, 0.0, -1.0, np.nan):
        with pytest.raises(StructuralError, match="regularizer"):
            FeatureGram(0, lam, np.zeros((0, 2)))


@pytest.mark.parametrize(
    "features,counts,named",
    [
        ((), None, r"\(0,\) and no counts"),
        (np.ones(3), None, r"\(3,\) and no counts"),
        (np.ones((2, 2, 2)), None, r"\(2, 2, 2\)"),
        (np.ones((3, 2)), np.ones(2), r"\(3, 2\) and 2 counts"),
    ],
)
def test_gram_rejects_misshapen_rows_or_counts(features, counts, named):
    with pytest.raises(StructuralError, match=r"step 1 needs \(n, d\) feature rows.*" + named):
        FeatureGram(1, 1.0, features, counts)


def test_bonus_rejects_nan_or_negative_alpha():
    model, _ = scalar_bonus_setup(0.0)
    grams = (FeatureGram(0, 1.0, np.zeros((0, 1))),)
    for alpha in (np.nan, -1e-9):
        with pytest.raises(StructuralError, match="bonus coefficient"):
            BonusEvaluator(grams, alpha, model)


def scalar_bonus_setup(alpha):
    env = make_single_state_env(horizon=1, n_obs=1, n_actions=2)
    model, _ = default_psr(env)
    grams = (FeatureGram(0, 1.0, np.zeros((0, 1))),)
    return model, BonusEvaluator(grams, alpha, model)


def test_bonus_alpha_zero_and_clip():
    model, ev0 = scalar_bonus_setup(0.0)
    idx = History(((0, 0),)).lex_index(model.space)
    assert ev0.bonus_table()[idx] == 0.0
    _, ev_big = scalar_bonus_setup(1e9)
    assert ev_big.bonus_table()[idx] == 1.0


def test_bonus_scalar_closed_form():
    model, ev = scalar_bonus_setup(1.0)
    idx = History(((0, 1),)).lex_index(model.space)
    assert ev.bonus_table()[idx] == pytest.approx(1.0, abs=1e-12)  # min(sqrt(1/1), 1)
    gram1 = FeatureGram(0, 1.0, [np.array([1.0])])
    ev2 = BonusEvaluator((gram1,), 1.0, model)
    assert ev2.bonus_table()[idx] == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_bonus_monotone_in_data(reference_env, reference_model):
    dataset = DatasetFamily(reference_env.space)
    pol = uniform_policy(reference_env.space)
    for i in range(6):
        add_drawn(dataset, reference_env, pol, i, i % 2)
    before = _build_evaluator(reference_model, dataset, 1.0, 0.8).bonus_table()
    for i in range(6, 8):  # one more entry per bucket
        add_drawn(dataset, reference_env, pol, i, i % 2)
    after = _build_evaluator(reference_model, dataset, 1.0, 0.8).bonus_table()
    assert np.all(after <= before + 1e-12)
    assert np.all(before >= 0.0) and np.all(before <= 1.0)


def test_bonus_degenerate_prefix_is_one():
    env = make_single_state_env(horizon=2, n_obs=2, n_actions=1, emission_row=np.array([1.0, 0.0]))
    model, _ = default_psr(env)
    grams = tuple(FeatureGram(h, 1.0, np.zeros((0, model.dims[h]))) for h in range(2))
    ev = BonusEvaluator(grams, 0.001, model)
    dead = History(((1, 0), (0, 0)))
    assert ev.bonus_table()[dead.lex_index(env.space)] == 1.0


def test_bonus_is_one_below_a_degenerate_ancestor():
    """A length-(H-1) prefix above the guard whose parent is degenerate still gets bonus 1."""
    model = growing_model()
    assert not model.degenerate_mask(2).any()
    ev = BonusEvaluator(tuple(FeatureGram(h, 1.0, np.zeros((0, 1))) for h in range(3)), 0.001, model)
    table = ev.bonus_table()
    assert table[4:].tolist() == [1.0] * 4 and (table[:4] < 1.0).all()


def test_prefix_grams_match_outer_products(reference_env, reference_model):
    """Per-entry outer-product sums are the oracle for the shared gram builder."""
    space = reference_env.space
    dataset = DatasetFamily(space)
    pol = uniform_policy(space)
    for i in range(40):
        add_drawn(dataset, reference_env, pol, 40 + i, i % 2)
    grams = prefix_grams(reference_model, dataset, lam=0.5)
    for h in range(space.horizon):
        manual = 0.5 * np.eye(reference_model.dims[h])
        for prefix in dataset.columns[h].prefix:
            f = prediction_feature(reference_model, history_from_lex(space, h, prefix))
            manual += np.outer(f, f)
        assert np.allclose(grams[h].matrix, manual, rtol=1e-12, atol=0.0)


def test_prefix_grams_reject_degenerate_prefix():
    env = make_single_state_env(horizon=2, n_obs=2, n_actions=1, emission_row=np.array([1.0, 0.0]))
    model, _ = default_psr(env)
    dataset = DatasetFamily(env.space)
    pol = uniform_policy(env.space)
    add_history(dataset, pol, History(((1, 0), (0, 0))), 1)
    with pytest.raises(DegenerateHistory, match="step 1"):
        prefix_grams(model, dataset, lam=1.0)


def test_elliptical_potential_single_unit_vector():
    lhs, rhs, holds = elliptical_potential_check([np.array([1.0])], lam=1.0, B=1.0)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert holds


def test_elliptical_potential_zero_vectors():
    lhs, rhs, holds = elliptical_potential_check([np.zeros(3)] * 5, lam=1.0, B=1.0)
    assert lhs == 0.0 and holds


def test_elliptical_potential_random_batches():
    for s in range(25):
        rng = rng_for(s, "ell-test")
        X = rng.standard_normal((1000, 3))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        lhs, rhs, holds = elliptical_potential_check(X, lam=1.0, B=2.0)
        assert holds


def test_transfer_score_equal_sequences():
    rng = rng_for(0, "transfer-eq")
    X = rng.standard_normal((6, 3))
    lhs, rhs, holds = transfer_score_check(X, X, range(6), lam=0.5)
    assert holds
    assert np.allclose(lhs, rhs, atol=1e-12)  # reduces to the same quadratic form


def test_transfer_score_zero_targets():
    rng = rng_for(1, "transfer-zero")
    X = rng.standard_normal((4, 2))
    Y = np.zeros_like(X)
    lhs, rhs, holds = transfer_score_check(X, Y, range(4), lam=2.0)
    assert holds
    assert np.allclose(rhs, np.linalg.norm(X, axis=1) / math.sqrt(2.0), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_transfer_score_random_pairs(seed):
    rng = rng_for(seed, "transfer-rand")
    n, d = int(rng.integers(1, 10)), int(rng.integers(1, 4))
    X = rng.standard_normal((n, d))
    Y = X + 0.5 * rng.standard_normal((n, d))
    subset = [i for i in range(n) if rng.random() < 0.6]
    lam = float(rng.uniform(0.2, 3.0))
    lhs, rhs, holds = transfer_score_check(X, Y, subset, lam=lam)
    assert holds
    # the outer-product sums scored by np.linalg.solve are the oracle for the shared gram
    A = lam * np.eye(d) + sum(np.outer(X[j], X[j]) for j in subset)
    Bm = lam * np.eye(d) + sum(np.outer(Y[j], Y[j]) for j in subset)
    assert np.allclose(lhs, np.sqrt(np.einsum("ij,ji->i", X, np.linalg.solve(A, X.T))), rtol=0.0, atol=1e-12)
    y_scores = np.sqrt(np.einsum("ij,ji->i", Y, np.linalg.solve(Bm, Y.T)))
    r = max(psr_rank(X), psr_rank(Y))
    drift = math.sqrt(math.fsum(float(np.dot(X[j] - Y[j], X[j] - Y[j])) for j in subset))
    oracle_rhs = np.linalg.norm(X - Y, axis=1) / math.sqrt(lam) + (1.0 + 2.0 * math.sqrt(r) * drift / math.sqrt(lam)) * y_scores
    assert np.allclose(rhs, oracle_rhs, rtol=0.0, atol=1e-12)


def test_gram_condition_number(reference_model):
    gram = FeatureGram(0, 2.0, np.zeros((0, 2)))
    assert gram.condition_number == pytest.approx(1.0, abs=1e-12)


def test_zero_data_bonus_closed_form(reference_model):
    lam, alpha = 0.8, 0.6
    grams = tuple(FeatureGram(h, lam, np.zeros((0, reference_model.dims[h])))
                  for h in range(reference_model.space.horizon))
    ev = BonusEvaluator(grams, alpha, reference_model)
    space = reference_model.space
    table = ev.bonus_table()
    for idx in range(0, space.n_trajectories, 7):
        traj = history_from_lex(space, space.horizon, idx)
        total = sum(
            float(np.dot(f := prediction_feature(reference_model, History(traj.steps[:h])), f))
            for h in range(space.horizon)
        )
        assert table[idx] == pytest.approx(min(alpha * math.sqrt(total / lam), 1.0), abs=1e-12)


def test_bonus_matches_per_prefix_score_oracle(reference_env, reference_model):
    """alpha * sqrt(fsum of per-step gram scores), capped at 1 and 1 on a
    degenerate prefix, is the oracle for bonus_table."""
    space = reference_env.space
    dataset = DatasetFamily(space)
    pol = uniform_policy(space)
    for i in range(12):
        add_drawn(dataset, reference_env, pol, 700 + i, i % 2)
    det_env = make_single_state_env(horizon=2, n_obs=2, n_actions=2, emission_row=np.array([1.0, 0.0]))
    det_model, _ = default_psr(det_env)
    evaluators = [
        _build_evaluator(reference_model, dataset, 0.7, 0.3),
        BonusEvaluator(tuple(FeatureGram(h, 1.0, np.zeros((0, det_model.dims[h]))) for h in range(2)), 0.01, det_model),
    ]
    for ev in evaluators:
        model = ev.feature_source
        table = ev.bonus_table()
        for traj in enumerate_histories(model.space, model.space.horizon):
            try:
                feats = [prediction_feature(model, History(traj.steps[:h])) for h in range(model.space.horizon)]
            except DegenerateHistory:
                expected = 1.0
            else:
                total = math.fsum(ev.grams[h].scores(f[None])[0] for h, f in enumerate(feats))
                expected = min(ev.alpha * math.sqrt(max(total, 0.0)), 1.0)
            assert table[traj.lex_index(model.space)] == pytest.approx(expected, abs=1e-12)
    assert 1.0 in evaluators[1].bonus_table()


def test_gram_rejects_indefinite_matrix():
    """Negative counts make the gram indefinite: I - 2 * ones(2, 2) has a negative diagonal."""
    with pytest.raises(StructuralError, match=r"step 3 \(2x2\)"):
        FeatureGram(3, 1.0, np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1, -3]))
