"""Datasets, finite candidate families, and constrained likelihood selection.

The hypothesis class is always a finite list of valid models built from
perturbed or discretized environment parameters (plus the truth when asked);
a candidate set keeps the models and their labels, not the environments.
Datasets and candidate sets live in memory only: the loops build them, and
nothing writes or reads them as files.
Selection keeps the models that give every recorded history prefix at least
a floor probability under its recorded policy, then takes the likelihood
maximizer among those within a fixed margin of the best.  One batched
forward pass builds the probability tables of the whole candidate set, and
online and offline selection are the same gather-and-reduce over them: each
recorded prefix and trajectory is one column of the stacked
``(n_candidates, n_histories)`` table.

A dataset's columns are append-only: entries enter only through
:meth:`DatasetFamily.add` and :meth:`DatasetFamily.add_batch`, as the lex
indices and policy weights the samplers drew.  So the
dataset keeps a running selection record for the last candidate set (by
identity) and ``p_min`` it was selected with, and :func:`constrained_mle`
takes each entry's logs only once.  Every call still sums all of them, so
the record's sums keep the bits of one fresh pass: each candidate's log
probabilities add left to right in bucket-then-insertion order, and the log
policy weights add pairwise as one vector.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateHistory, EmptyFeasibleSet, StructuralError
from .policies import Policy, continuation_weights
from .pomdp import TabularPomdp, convert_family, default_psr
from .psr import PsrModel, check_self_consistency, stacked_tables
from .seeding import rng_for
from .spaces import _INTEGERS, ObsActSpace, check_numbers

NEG_INF = float("-inf")
MAX_CANDIDATES = 100_000
MAX_ATTEMPTS_PER_CANDIDATE = 20  # dithering draws per requested candidate before giving up
FAMILY_BLOCK = 1024  # members converted per stacked pass, which bounds the pass's memory
SELF_CONSISTENCY_TOL = 1e-9


class BucketColumns(NamedTuple):
    """Per-entry columns of one step bucket, in insertion order.

    They are the only record of the bucket's entries: the numeric columns are
    typed arrays numpy reads in bulk, and a trajectory's lex index decodes
    back to its steps.
    """

    prefix: array  # of int64: lex index of the entry's length-h prefix
    trajectory: array  # of int64: lex index of the full trajectory
    prefix_weight: array  # of float64: recorded policy's weight of the length-h prefix
    full_weight: array  # of float64: recorded policy's weight of the full trajectory


@dataclass
class DatasetFamily:
    """Per-step buckets of entry columns.

    Bucket ``h`` holds the entries split at step ``h``.  Each entry's
    lexicographic indices and policy weights are recorded once, as the
    sampler drew them; every model quantity over the dataset is a gather
    from the model's tables at those indices, and the policy factor is the
    recorded weights, so the dataset keeps no policy.  The columns only
    grow, so the dataset also holds :func:`constrained_mle`'s running record
    of what it has read.
    """

    space: ObsActSpace
    columns: list[BucketColumns] = field(init=False, repr=False)
    _selection: _SelectionRecord | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.columns = [BucketColumns(*(array(code) for code in "qqdd")) for _ in range(self.space.horizon)]

    def add(self, lex: Sequence[int], weights: Sequence[float], split_step: int) -> None:
        """Add one entry to bucket ``split_step``.

        ``lex`` and ``weights`` are the prefix lex indices and policy weights,
        depth 0..H, that ``TabularPomdp.sample_episode`` returns.  The online
        loop adds one entry at a time: a one-row :meth:`add_batch` costs ~20x.
        """
        space = self.space
        if not 0 <= split_step < space.horizon:
            raise StructuralError("split step outside [0, H)")
        if len(lex) != space.horizon + 1 or len(weights) != space.horizon + 1:
            raise StructuralError("entries need the lex index and weight of every prefix, depth 0..H")
        prefix, full = lex[split_step], lex[-1]
        if not (isinstance(prefix, _INTEGERS) and isinstance(full, _INTEGERS)
                and 0 <= prefix < space.pair_count**split_step and 0 <= full < space.n_trajectories):
            raise StructuralError(f"lex indices {prefix!r}, {full!r} must be integers in range at depths {split_step}, H")
        row = (prefix, full, weights[split_step], weights[-1])  # every value checked before the first append
        for column, value in zip(self.columns[split_step], row):
            column.append(value)

    def add_batch(self, lex: np.ndarray, weights: np.ndarray, split_steps: np.ndarray) -> None:
        """Add one entry per column of ``(H+1, n)`` prefix lex indices and weights, as ``add`` would in column order.

        ``lex`` and ``weights`` are what ``TabularPomdp.sample_episodes``
        returns.  Entry ``i`` goes to bucket ``split_steps[i]``.
        """
        space = self.space
        lex, split_steps = (np.asarray(x, dtype=np.int64) for x in (lex, split_steps))
        weights = np.asarray(weights, dtype=float)
        n = len(split_steps)
        if n and not (0 <= split_steps.min() and split_steps.max() < space.horizon):
            raise StructuralError("split step outside [0, H)")
        if lex.shape != (space.horizon + 1, n) or weights.shape != (space.horizon + 1, n):
            raise StructuralError("entries need the lex index and weight of every prefix, depth 0..H")
        prefix, full = lex[split_steps, np.arange(n)], lex[-1]
        if n and not (((0 <= prefix) & (prefix < space.pair_count**split_steps)).all()
                      and 0 <= full.min() and full.max() < space.n_trajectories):
            raise StructuralError("lex indices are not in range at their split steps and H")
        for h, cols in enumerate(self.columns):
            members = np.flatnonzero(split_steps == h)  # in column order
            cols.prefix.frombytes(lex[h, members].tobytes())
            cols.trajectory.frombytes(lex[-1, members].tobytes())
            cols.prefix_weight.frombytes(weights[h, members].tobytes())
            cols.full_weight.frombytes(weights[-1, members].tobytes())

    def size(self) -> int:
        return sum(len(cols.trajectory) for cols in self.columns)


# -- candidate families -------------------------------------------------------


@dataclass(frozen=True)
class CandidateSet:
    """Finite model family with provenance labels."""

    models: tuple[PsrModel, ...]
    labels: tuple[str, ...]
    _table_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # depth -> stacked (psis, probs)

    def __post_init__(self) -> None:
        if len(self.models) != len(self.labels):
            raise StructuralError("models and labels must align")
        if not self.models:
            raise StructuralError("candidate set may not be empty")
        first = self.models[0]
        for label, model in zip(self.labels, self.models):
            if model.space != first.space or model.dims != first.dims:
                raise StructuralError(
                    f"candidate {label} has space {model.space} and state dims {model.dims}; "
                    f"candidate {self.labels[0]} has {first.space} and {first.dims}"
                )
            worst = check_self_consistency(model)
            if not worst <= SELF_CONSISTENCY_TOL:  # also rejects NaN
                raise StructuralError(f"candidate {label} violates self-consistency by {worst:.3g}")

    def __len__(self) -> int:
        return len(self.models)

    def prob_table(self, h: int) -> np.ndarray:
        """Read-only ``(n_candidates, n_histories(h))`` stack of the members' ``prob_table(h)``."""
        if h == 0:
            return np.ones((len(self), 1))
        return stacked_tables(self.models, self._table_cache, h)[1]


def _perturbed_rows(rows: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Renormalized multiplicative perturbation of stochastic rows."""
    noisy = rows * np.exp(scale * rng.standard_normal(rows.shape))
    return noisy / noisy.sum(axis=-1, keepdims=True)


def _dithered_tables(
    env: TabularPomdp, scale: float, e_scale: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One dithering draw: transition rows first, then emission rows; a zero scale keeps the truth's."""
    transition = env.transition
    if env.transition.size and scale > 0:
        transition = _perturbed_rows(env.transition, scale, rng)
    emission = _perturbed_rows(env.emission, e_scale, rng) if e_scale > 0 else env.emission
    return transition, emission


def make_candidates(
    env: TabularPomdp,
    mode: str,
    *,
    seed: int = 0,
    n: int = 0,
    scale: float = 0.05,
    emission_scale: float | None = None,
    eps_grid: float = 0.5,
    include_true: bool = True,
) -> CandidateSet:
    """Deterministic candidate family around a ground-truth environment.

    Modes: ``include_true`` (singleton truth), ``dithered`` (renormalized
    multiplicative noise of size ``scale`` on all stochastic rows), ``grid``
    (simplex lattice of resolution ``eps_grid`` on every stochastic row).
    Emission rows take ``emission_scale`` when given (zero freezes them at
    the truth).  All members share the truth's core-test structure, the
    window of ``default_psr``, so their features are comparable.  Members
    are converted together by :func:`~psrlab.pomdp.convert_family`, at
    most ``FAMILY_BLOCK`` at a time: dithering draws attempt ``i`` from
    ``rng_for(seed, "dither", i)`` in rounds of as many attempts as members
    are missing, and the grid goes in blocks of points; a member without a
    valid PSR is skipped.  ``seed`` and ``n >= 0`` are integers, ``scale`` and
    ``emission_scale`` finite numbers at least 0, ``eps_grid`` a number in
    (0, 1] and ``include_true`` a boolean; anything else raises
    :class:`StructuralError`.
    """
    if mode not in ("include_true", "dithered", "grid"):
        raise StructuralError(f"unknown candidate mode {mode!r}")
    reals = {"scale": scale, "eps_grid": eps_grid}
    if emission_scale is not None:
        reals["emission_scale"] = emission_scale
    check_numbers({"seed": seed, "n": n}, reals)
    if n < 0:
        raise StructuralError(f"n must be at least 0, got {n}")
    if not 0 < eps_grid <= 1:  # NaN fails too
        raise StructuralError(f"eps_grid must be in (0, 1], got {eps_grid!r}")
    if not isinstance(include_true, bool):
        raise StructuralError(f"include_true must be true or false, got {include_true!r}")
    for name, value in (("scale", scale), ("emission_scale", emission_scale)):
        if value is not None and not 0 <= value < math.inf:  # NaN fails too
            raise StructuralError(f"{name} must be a finite number at least 0, got {value!r}")
    true_model, g_true = default_psr(env)
    members = [(true_model, "true")] if include_true or mode == "include_true" else []

    def _convert(tables: list[tuple[np.ndarray, np.ndarray]], labels: list[str]) -> int:
        """Convert the tables in one stacked pass, keep the valid members in order, and count them."""
        transitions, emissions = (np.stack(arrays) for arrays in zip(*tables))
        models = convert_family(env, transitions, emissions, g_true.m)
        kept = [(model, label) for model, label in zip(models, labels) if isinstance(model, PsrModel)]
        members.extend(kept)
        return len(kept)

    if mode == "dithered":
        e_scale = scale if emission_scale is None else emission_scale
        max_attempts = n * MAX_ATTEMPTS_PER_CANDIDATE
        made = attempt = 0
        while made < n:
            if attempt >= max_attempts:
                raise StructuralError("dithering kept failing to produce valid candidates")
            # A round of at most n - made draws only attempts that drawing one at a time would draw too.
            attempts = range(attempt, min(attempt + n - made, attempt + FAMILY_BLOCK, max_attempts))
            tables = [_dithered_tables(env, scale, e_scale, rng_for(seed, "dither", i)) for i in attempts]
            made += _convert(tables, [f"perturbed(seed={seed},i={i})" for i in attempts])
            attempt = attempts.stop
    elif mode == "grid":
        grid = enumerate(_grid_tables(env, eps_grid))
        while block := list(islice(grid, FAMILY_BLOCK)):
            _convert([tables for _, tables in block], [f"grid({idx})" for idx, _ in block])

    if not members:
        raise EmptyFeasibleSet("candidate generation produced no valid models")
    models, labels = zip(*members)
    return CandidateSet(models, labels)


def _lattice_steps(eps: float) -> int:
    """How many multiples of ``eps`` make 1."""
    steps = round(1.0 / eps)
    if abs(steps * eps - 1.0) > 1e-9:
        raise StructuralError("eps_grid must divide 1")
    return steps


def _simplex_lattice(dim: int, eps: float) -> list[np.ndarray]:
    """All probability vectors with entries that are multiples of eps, in lexicographic order."""
    steps = _lattice_steps(eps)
    slots = steps + dim - 1  # a point places dim - 1 bars among the slots; its entries count the free slots between
    return [(np.diff((-1, *bars, slots)) - 1) / steps for bars in combinations(range(slots), dim - 1)]


def _grid_tables(env: TabularPomdp, eps: float):
    """Cartesian product of per-row lattices over transition and emission rows, the first row most significant."""
    t_shape = env.transition.shape
    e_shape = env.emission.shape
    t_rows = int(np.prod(t_shape[:-1]))  # 0 at horizon 1
    e_rows = int(np.prod(e_shape[:-1]))
    steps = _lattice_steps(eps)
    t_points, e_points = (math.comb(steps + dim - 1, dim - 1) for dim in (t_shape[-1], e_shape[-1]))
    total = t_points**t_rows * e_points**e_rows
    if total > MAX_CANDIDATES:  # checked before a lattice is built: one can take seconds
        raise StructuralError(f"grid would have {total} members (cap {MAX_CANDIDATES})")
    lattice_t = _simplex_lattice(t_shape[-1], eps) if t_rows else []
    lattice_e = _simplex_lattice(e_shape[-1], eps)
    for rows in product(*[lattice_t] * t_rows, *[lattice_e] * e_rows):
        yield np.array(rows[:t_rows]).reshape(t_shape), np.array(rows[t_rows:]).reshape(e_shape)


# -- likelihoods and selection -------------------------------------------------


def _reserved(buffer: np.ndarray, used: int, stop: int) -> np.ndarray:
    """``buffer`` if it has room for ``stop`` rows, else a buffer at least twice as long holding its first ``used``."""
    if stop <= len(buffer):
        return buffer
    grown = np.empty((max(stop, 2 * len(buffer)), *buffer.shape[1:]))
    grown[:used] = buffer[:used]
    return grown


class _SelectionRecord:
    """What selection has read of one dataset for one stack of models and one floor.

    Each call reads only the entries appended to a bucket since the last
    one.  Stability is monotone while data only grow under a fixed floor, so
    the new prefixes' flags are ANDed into the running mask.  Each new
    trajectory's log probabilities are taken once, into per-bucket
    C-ordered ``(n_entries, n_models)`` buffers, and its log policy weight
    into a per-bucket vector.

    The sums keep the bits of one pass over the whole dataset: every call
    sums all buckets' buffered rows, in bucket-then-insertion order, over
    the outer axis.  For a stack of models that reduction adds each model's
    log probabilities left to right; for a stack of one it is pairwise, as
    that pass's is.  The log weights add pairwise as one vector.
    """

    def __init__(self, key: object, p_min: float, n_models: int, horizon: int) -> None:
        self.key = key  # the candidate set read, matched by identity
        self.p_min = p_min
        self.consumed = [0] * horizon
        self.stable = np.ones(n_models, dtype=bool)
        self.log_probs = [np.empty((0, n_models)) for _ in range(horizon)]
        self.log_weights = [np.empty(0) for _ in range(horizon)]

    def read(self, prob_table: Callable[[int], np.ndarray], dataset: DatasetFamily) -> tuple[np.ndarray, np.ndarray]:
        """Stability flags and log-likelihoods of the models over the whole dataset.

        ``prob_table(h)`` returns the models' ``(n_models, n_histories(h))``
        probabilities.  A model is stable when every recorded prefix keeps
        probability at least ``p_min`` under its recorded policy.  Its
        log-likelihood sums log probability plus log policy weight over the
        recorded trajectories; an entry the model or its policy cannot
        produce pushes it to -inf.
        """
        horizon = dataset.space.horizon
        with np.errstate(divide="ignore", invalid="ignore"):  # log of p <= 0 is -inf or NaN
            for h, cols in enumerate(dataset.columns):
                start, stop = self.consumed[h], len(cols.trajectory)
                if stop == start:
                    continue
                if stop < start:
                    raise StructuralError(f"bucket {h} shrank from {start} to {stop} entries; columns are append-only")
                # Slices copy out of the columns, so no view pins their buffers against a later append.
                prefix_probs = prob_table(h).take(cols.prefix[start:], axis=1) * np.frombuffer(cols.prefix_weight[start:])
                self.stable &= ~(prefix_probs < self.p_min).any(axis=1)
                probs = prob_table(horizon).take(cols.trajectory[start:], axis=1).T
                self.log_probs[h] = _reserved(self.log_probs[h], start, stop)
                np.log(probs, out=self.log_probs[h][start:stop])
                self.log_weights[h] = _reserved(self.log_weights[h], start, stop)
                np.log(np.frombuffer(cols.full_weight[start:]), out=self.log_weights[h][start:stop])
                self.consumed[h] = stop
        rows = np.concatenate([buffer[:used] for buffer, used in zip(self.log_probs, self.consumed)])
        weights = np.concatenate([buffer[:used] for buffer, used in zip(self.log_weights, self.consumed)])
        logliks = rows.sum(axis=0) + weights.sum()
        logliks[np.isnan(logliks)] = NEG_INF
        return self.stable.copy(), logliks


def _one_model(model: PsrModel, dataset: DatasetFamily, p_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Stability and log-likelihood of one model, from a record kept for this call only."""
    return _SelectionRecord(model, p_min, 1, model.space.horizon).read(lambda h: model.prob_table(h)[None], dataset)


def log_likelihood(model: PsrModel, dataset: DatasetFamily) -> float:
    """Sum of trajectory log probabilities (policy factor included) over all buckets.

    Entries the model cannot produce push the result to -inf.
    """
    return float(_one_model(model, dataset, NEG_INF)[1][0])


@dataclass(frozen=True)
class MleResult:
    selected_id: int
    selected_label: str
    model: PsrModel
    feasible_ids: tuple[int, ...]  # candidates within the likelihood margin
    log_likelihoods: tuple[float, ...]


def constrained_mle(
    candidates: CandidateSet, dataset: DatasetFamily, p_min: float, beta: float
) -> MleResult:
    """Likelihood maximizer over stable candidates, with its margin set.

    Reads the candidates' stacked tables at the entries added since the
    last call on this dataset with the same candidate set (by identity) and
    ``p_min``; any other call starts the dataset's record from zero, which
    is one fresh pass.  Either way the flags and log-likelihoods carry the
    bits of one pass over the whole dataset.  Ties break toward the lowest
    candidate index, so the outcome does not depend on evaluation order.
    """
    record = dataset._selection
    if record is None or record.key is not candidates or record.p_min != p_min:
        record = dataset._selection = _SelectionRecord(candidates, p_min, len(candidates), dataset.space.horizon)
    stable, logliks = record.read(candidates.prob_table, dataset)
    ids = np.flatnonzero(stable)
    if not ids.size:
        raise EmptyFeasibleSet(
            f"no candidate keeps all {dataset.size()} prefixes above p_min={p_min:.3g}"
        )
    logliks = logliks[ids]
    best = logliks.max()
    selected = int(ids[np.argmax(logliks)])  # first maximum = lowest index
    return MleResult(
        selected,
        candidates.labels[selected],
        candidates.models[selected],
        tuple(ids[logliks >= best - beta].tolist()),
        tuple(logliks.tolist()),
    )


def conditional_tv_diagnostic(
    model_a: PsrModel, model_b: PsrModel, dataset: DatasetFamily, policies: Sequence[Policy]
) -> float:
    """Summed squared conditional total-variation over recorded prefixes.

    For each bucket-``h`` entry, compares the two models' distributions of
    the remaining trajectory given the length-``h`` prefix, under
    ``policies[h]``, the policy every entry of bucket ``h`` was drawn with,
    by exact enumeration of the continuations: one continuation-weight pass
    per bucket.
    """
    space = model_a.space
    if len(policies) != space.horizon:
        raise StructuralError(f"need one policy per bucket ({space.horizon}), got {len(policies)}")
    table_a = model_a.prob_table(space.horizon)
    table_b = model_b.prob_table(space.horizon)
    terms = []
    for h, (cols, policy) in enumerate(zip(dataset.columns, policies)):
        if not cols.trajectory:
            continue
        prefix = np.asarray(cols.prefix)
        pa = model_a.prob_table(h)[prefix]
        pb = model_b.prob_table(h)[prefix]
        wp = np.asarray(cols.prefix_weight)
        if np.any(pa * wp <= 0.0) or np.any(pb * wp <= 0.0):
            raise DegenerateHistory(f"prefix at step {h} has zero probability under a compared model")
        reps = space.pair_count ** (space.horizon - h)
        weights = continuation_weights(policy, space, h, prefix)
        cond_a = table_a.reshape(-1, reps)[prefix] / pa[:, None]
        cond_b = table_b.reshape(-1, reps)[prefix] / pb[:, None]
        for row in np.abs(weights * (cond_a - cond_b)).tolist():
            tv = math.fsum(row)
            terms.append(tv * tv)
    return math.fsum(terms)
