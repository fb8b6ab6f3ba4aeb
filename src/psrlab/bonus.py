"""Prediction-feature Gram matrices and confidence bonuses.

The bonus of a trajectory is the clipped, scaled root of the summed
Mahalanobis scores of its per-step prediction features under regularized
Gram inverses.  A :class:`FeatureGram` is built from ``(n, d)`` feature
rows, checked once and factored by LAPACK's ``dpotrf``, and scores solve
with ``dpotrs`` (the routines ``scipy.linalg.cho_factor``/``cho_solve``
wrap, so the bits are theirs); non-finite grams or features raise
:class:`StructuralError`.  The score-transfer check scores through it too.

The summed scores are built top-down over the trajectory tree: the running
sum of a length-``h`` prefix is its parent's running sum plus its own
score, so each depth touches only its own prefixes, and the leaves are
filled by one expansion at the end.  Every leaf still adds its scores in
step order starting from zero, so the sums are the bits of adding each
step's repeated scores into a leaf-sized array.  The model's cached feature
table is scored as it is: a degenerate prefix's row is 0.0 there, and the
model's cached degenerate-prefix mask, not its score, decides its bonus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DegenerateHistory, StructuralError
from .psr import PsrModel, psr_rank
from .spaces import check_same_space

if TYPE_CHECKING:
    from .estimation import DatasetFamily

MIN_LAMBDA = 1e-12


@dataclass(frozen=True, init=False)
class FeatureGram:
    """Regularized gram ``lam * I + sum_i counts[i] * outer(f_i, f_i)`` of ``(n, d)`` feature rows.

    Formed, symmetrized, checked and factored once; the matrix is frozen in
    place, since the factor is cached from it.
    """

    step: int
    matrix: np.ndarray
    _factor: np.ndarray = field(repr=False, compare=False)

    def __init__(self, step: int, lam: float, features: np.ndarray, counts: np.ndarray | None = None) -> None:
        object.__setattr__(self, "step", step)
        F = np.asarray(features, dtype=float)
        if F.ndim != 2 or (counts is not None and len(counts) != len(F)):
            got = f"rows of shape {F.shape} and {'no' if counts is None else len(counts)} counts"
            raise StructuralError(f"gram at step {step} needs (n, d) feature rows and one count per row, got {got}")
        if not lam > MIN_LAMBDA:
            raise StructuralError(f"regularizer must exceed {MIN_LAMBDA:g}")
        weighted = F if counts is None else F * counts[:, None]
        mat = lam * np.eye(F.shape[1]) + weighted.T @ F
        mat = 0.5 * (mat + mat.T)
        if not np.isfinite(mat).all():
            raise StructuralError(f"gram at step {step} has non-finite entries")
        mat.flags.writeable = False
        factor, info = dpotrf(mat, lower=False, clean=False)
        if info:
            raise StructuralError(f"gram at step {step} ({len(mat)}x{len(mat)}) is not positive definite (dpotrf info {info})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_factor", factor)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Row-wise Mahalanobis scores ||x||^2 under the inverse gram, for a feature matrix."""
        if not np.isfinite(X).all():
            raise StructuralError(f"features scored against the step-{self.step} gram are not finite")
        if X.shape[-1] != len(self.matrix):
            raise StructuralError(f"features of length {X.shape[-1]} scored against a {len(self.matrix)}-dim gram")
        solved, info = dpotrs(self._factor, X.T, lower=False)
        if info != 0:
            raise StructuralError(f"LAPACK dpotrs rejected argument {-info}")
        return np.einsum("ij,ji->i", X, solved)

    @property
    def condition_number(self) -> float:
        svals = np.linalg.svd(self.matrix, compute_uv=False)
        return float(svals[0] / svals[-1])


@dataclass(frozen=True)
class BonusEvaluator:
    """Maps full trajectories to clipped uncertainty bonuses in [0, 1].

    Features are ``feature_source``'s prediction features, and the grams must
    have been accumulated over the same model's features.
    """

    grams: tuple[FeatureGram, ...]
    alpha: float
    feature_source: PsrModel

    def __post_init__(self) -> None:
        if not self.alpha >= 0:  # also rejects NaN
            raise StructuralError("bonus coefficient must be nonnegative")
        if len(self.grams) != self.feature_source.space.horizon:
            raise StructuralError("need one gram per step 0..H-1")

    def score_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Summed per-step prefix scores of all full trajectories, lexicographic.

        Also returns which trajectories have a (numerically) zero-probability
        prefix under the feature source; their summed score is meaningless.
        """
        pair_count = self.feature_source.space.pair_count
        totals, degenerate = self._prefix_sums()
        return np.repeat(totals, pair_count), np.repeat(degenerate, pair_count)

    def bonus_table(self) -> np.ndarray:
        """min of 1 and alpha times the root of each trajectory's summed score.

        Trajectories with a degenerate prefix get bonus 1: they are maximally
        uncertain.  A leaf's bonus depends only on its length-``H-1`` prefix,
        so it is formed per prefix and expanded once.
        """
        totals, degenerate = self._prefix_sums()
        out = np.minimum(self.alpha * np.sqrt(np.maximum(totals, 0.0)), 1.0)
        out[degenerate] = 1.0
        return np.repeat(out, self.feature_source.space.pair_count)

    def _prefix_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Running score sums and degenerate-prefix flags of the length-``H-1`` prefixes.

        Top-down: a prefix's sum is its parent's sum plus its own score, with
        the root's sum started from zero.  The flags are the feature source's
        cached :meth:`~psrlab.psr.PsrModel.degenerate_prefixes`.
        """
        space = self.feature_source.space
        totals = np.zeros(1)
        for h in range(space.horizon):
            scores = self.grams[h].scores(self.feature_source.feature_table(h))
            totals = (totals[:, None] + scores.reshape(len(totals), -1)).reshape(-1)
        return totals, self.feature_source.degenerate_prefixes(space.horizon - 1)


def prefix_grams(model: PsrModel, dataset: "DatasetFamily", lam: float) -> tuple[FeatureGram, ...]:
    """Per-step grams of a model's features over a dataset's recorded prefixes.

    The step-``h`` gram adds the feature of every bucket-``h`` entry's
    length-``h`` prefix, counted with multiplicity: the dataset's running
    prefix counts, so a call costs the tree's prefixes, not the entries.  A
    recorded prefix that is degenerate under the model has no feature and
    raises :class:`DegenerateHistory`; a dataset on another space, or with a
    bucket changed outside ``add``/``add_batch``, raises
    :class:`StructuralError`.
    """
    check_same_space("model and dataset", model.space, dataset.space)
    grams = []
    for h in range(model.space.horizon):
        feats = model.feature_table(h)
        counts = dataset.prefix_counts(h)
        used = np.flatnonzero(counts)
        if model.degenerate_mask(h).take(used).any():
            raise DegenerateHistory(f"a recorded prefix at step {h} has zero probability under the model")
        grams.append(FeatureGram(h, lam, feats.take(used, axis=0), counts.take(used)))
    return tuple(grams)


# -- executable inequality checks ---------------------------------------------


def elliptical_potential_check(vectors: Sequence[np.ndarray], lam: float, B: float) -> tuple[float, float, bool]:
    """Summed clipped Mahalanobis scores against the log-det budget.

    Uses grams that include the current vector, which only lowers the left
    side relative to the prediction-ordered form.  All grams come from one
    cumulative sum of ``lam * I`` and the outer products (the sequential
    additions of a running gram) and are solved in one batched call.
    """
    if not len(vectors):
        raise StructuralError("need at least one vector")
    X = np.asarray(vectors, dtype=float)
    K, dim = X.shape
    grams = np.cumsum(np.concatenate([lam * np.eye(dim)[None], X[:, :, None] * X[:, None, :]]), axis=0)[1:]
    solutions = np.linalg.solve(grams, X[:, :, None])
    scores = (X[:, None, :] @ solutions)[:, 0, 0]
    lhs = math.fsum(min(score, B) for score in scores.tolist())
    rhs = (1.0 + B) * psr_rank(X) * math.log(1.0 + K / lam)
    return lhs, rhs, lhs <= rhs + 1e-9


def transfer_score_check(x_vectors: Sequence[np.ndarray], y_vectors: Sequence[np.ndarray], subset: Sequence[int],
                         lam: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Score-transfer bound between two vector sequences.

    Both grams are regularized with ``lam`` (the unregularized second sum
    may be singular); the bound is valid in that form.  Returns per-index
    left and right sides and whether every comparison holds.
    """
    X = np.asarray(x_vectors, dtype=float)
    Y = np.asarray(y_vectors, dtype=float)
    if X.shape != Y.shape:
        raise StructuralError("sequences must have equal shapes")
    subset = list(subset)
    if any(not 0 <= j < len(X) for j in subset):
        raise StructuralError("subset index out of range")
    r = max(psr_rank(X), psr_rank(Y))
    drift = math.sqrt(math.fsum(float(np.dot(X[j] - Y[j], X[j] - Y[j])) for j in subset))
    lhs = np.sqrt(FeatureGram(0, lam, X[subset]).scores(X))
    y_scores = np.sqrt(FeatureGram(0, lam, Y[subset]).scores(Y))
    diffs = np.linalg.norm(X - Y, axis=1)
    rhs = diffs / math.sqrt(lam) + (1.0 + 2.0 * math.sqrt(r) * drift / math.sqrt(lam)) * y_scores
    return lhs, rhs, bool(np.all(lhs <= rhs + 1e-9))
