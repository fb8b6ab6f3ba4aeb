"""Datasets, finite candidate families, and constrained likelihood selection.

The hypothesis class is always a finite list of valid models built from
perturbed or discretized environment parameters (plus the truth when asked);
a candidate set is a labelled :class:`~psrlab.psr.PsrStack`, not the
environments: the truth's parameters and each conversion round's kept
members concatenated once and validated once for all members.  Each model
is a member of the stack, its arrays read-only views into it.
Datasets and candidate sets live in memory only: the loops build them, and
nothing writes or reads them as files.
Selection keeps the models that give every recorded history prefix at least
a floor probability under its recorded policy, then takes the likelihood
maximizer among those within a fixed margin of the best.  The stack owns the
probability tables of the whole set, one batched forward pass per depth
(:meth:`~psrlab.psr.PsrStack.tables`), so a member asking for a depth first
builds that depth for its whole family once, and the selected model's tables
are rows of the set's.  Online and offline selection are the same
gather-and-reduce over them: each recorded prefix and trajectory is one
column of the stacked ``(n_candidates, n_histories)`` table, and
:func:`log_likelihood` is that read for one model alone.  The conditional-TV
diagnostic also reads a whole stack at once.

A dataset's columns are append-only: entries enter only through
:meth:`DatasetFamily.add` and :meth:`DatasetFamily.add_batch`, as the lex
indices and policy weights the samplers drew, and those keep running counts
of each bucket's prefixes for the grams.  So the dataset keeps a running
selection record for the last candidate set (by identity) and ``p_min`` it
was selected with, and :func:`constrained_mle` reads each entry once: a call
costs its new entries, not the dataset.  The record's sums keep the bits of
one fresh pass in a fixed order: within a bucket, each candidate's log
probabilities and the log policy weights add left to right from 0.0 in
insertion order, and the log-likelihood adds the bucket totals in bucket
order.
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
from .psr import PsrModel, PsrStack
from .seeding import rng_for
from .spaces import _INTEGERS, _REALS, ObsActSpace, check_numbers, check_same_space

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
    of what it has read, and running int64 counts of each bucket's length-``h``
    prefixes (:meth:`prefix_counts`), with the column length they cover.
    """

    space: ObsActSpace
    columns: list[BucketColumns] = field(init=False, repr=False)
    _counts: list[np.ndarray] = field(init=False, repr=False, compare=False)  # bucket h: count of each length-h prefix
    _counted: list[int] = field(init=False, repr=False, compare=False)  # bucket h: entries the counts cover
    _selection: _SelectionRecord | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        horizon = self.space.horizon
        self.columns = [BucketColumns(*(array(code) for code in "qqdd")) for _ in range(horizon)]
        self._counts = [np.zeros(self.space.n_histories(h), dtype=np.int64) for h in range(horizon)]
        self._counted = [0] * horizon

    def add(self, lex: Sequence[int], weights: Sequence[float], split_step: int) -> None:
        """Add one entry to bucket ``split_step``.

        ``lex`` and ``weights`` are the prefix lex indices and policy weights,
        depth 0..H, that ``TabularPomdp.sample_episode`` returns.  The online
        loop adds one entry at a time: a one-row :meth:`add_batch` costs ~20x.
        The recorded lex indices must be integers in range and the recorded
        weights (depths ``split_step`` and H) numbers in [0, 1]; anything
        else raises :class:`StructuralError` and changes nothing.
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
        prefix_weight, full_weight = weights[split_step], weights[-1]
        if (not (isinstance(prefix_weight, _REALS) and isinstance(full_weight, _REALS)
                 and 0.0 <= prefix_weight <= 1.0 and 0.0 <= full_weight <= 1.0)  # NaN fails too
                or isinstance(prefix_weight, bool) or isinstance(full_weight, bool)):
            raise StructuralError(
                f"policy weights {prefix_weight!r}, {full_weight!r} must be numbers in [0, 1] at depths {split_step}, H")
        for column, value in zip(self.columns[split_step], (prefix, full, prefix_weight, full_weight)):
            column.append(value)  # every value checked before the first append
        self._counts[split_step][prefix] += 1
        self._counted[split_step] += 1

    def add_batch(self, lex: np.ndarray, weights: np.ndarray, split_steps: np.ndarray) -> None:
        """Add one entry per column of ``(H+1, n)`` prefix lex indices and weights, as ``add`` would in column order.

        ``lex`` and ``weights`` are what ``TabularPomdp.sample_episodes``
        returns.  Entry ``i`` goes to bucket ``split_steps[i]``.  Every entry
        is checked as ``add`` checks it before the first is added.
        """
        space = self.space
        lex, split_steps = (np.asarray(x, dtype=np.int64) for x in (lex, split_steps))
        weights = np.asarray(weights)
        if weights.dtype.kind not in "iuf":
            raise StructuralError(f"policy weights must be numbers, got an array of {weights.dtype}")
        weights = weights.astype(float, copy=False)
        n = len(split_steps)
        if n and not (0 <= split_steps.min() and split_steps.max() < space.horizon):
            raise StructuralError("split step outside [0, H)")
        if lex.shape != (space.horizon + 1, n) or weights.shape != (space.horizon + 1, n):
            raise StructuralError("entries need the lex index and weight of every prefix, depth 0..H")
        entries = np.arange(n)
        prefix, full = lex[split_steps, entries], lex[-1]
        if n and not (((0 <= prefix) & (prefix < space.pair_count**split_steps)).all()
                      and 0 <= full.min() and full.max() < space.n_trajectories):
            raise StructuralError("lex indices are not in range at their split steps and H")
        recorded = np.concatenate((weights[split_steps, entries], weights[-1]))
        if not ((0.0 <= recorded) & (recorded <= 1.0)).all():  # NaN fails too
            raise StructuralError("policy weights are not in [0, 1] at their split steps and H")
        for h, cols in enumerate(self.columns):  # every value checked before the first append
            members = np.flatnonzero(split_steps == h)  # in column order
            cols.prefix.frombytes(lex[h, members].tobytes())
            cols.trajectory.frombytes(lex[-1, members].tobytes())
            cols.prefix_weight.frombytes(weights[h, members].tobytes())
            cols.full_weight.frombytes(weights[-1, members].tobytes())
            self._counts[h] += np.bincount(lex[h, members], minlength=len(self._counts[h]))
            self._counted[h] += len(members)

    def size(self) -> int:
        return sum(len(cols.trajectory) for cols in self.columns)

    def prefix_counts(self, h: int) -> np.ndarray:
        """Read-only count of each length-``h`` prefix over bucket ``h``'s entries, as :func:`np.bincount` gives it.

        The counts grow with :meth:`add` and :meth:`add_batch`; a bucket
        whose columns changed length otherwise raises :class:`StructuralError`.
        """
        if len(self.columns[h].prefix) != self._counted[h]:
            raise StructuralError(f"bucket {h} holds {len(self.columns[h].prefix)} prefixes but counts "
                                  f"{self._counted[h]}; columns grow only through add and add_batch")
        counts = self._counts[h].view()
        counts.flags.writeable = False
        return counts


# -- candidate families -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Finite model family with provenance labels: one labelled :class:`~psrlab.psr.PsrStack`.

    ``stack`` holds every member's parameters and tables, the member axis
    first, and ``labels`` one string per member; ``models[i]`` is member
    ``i`` as a :class:`PsrModel` whose arrays are read-only views into the
    stack and whose tables are its rows.  :func:`make_candidates` hands over
    the stack it concatenated from :func:`~psrlab.pomdp.convert_family`'s
    output.  The first member with a fault (:meth:`PsrStack.faults`, one
    pass) is refused by label; then every member's self-consistency is
    measured in one pass over the stack, and a member that violates it by
    more than ``SELF_CONSISTENCY_TOL`` (or by NaN) is refused by label.
    Sets compare by identity.
    """

    stack: PsrStack = field(repr=False)
    labels: tuple[str, ...]
    models: tuple[PsrModel, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.stack, PsrStack):
            raise StructuralError(f"a candidate set holds a PsrStack, not a {type(self.stack).__name__}")
        labels = _checked_labels(self.labels, len(self.stack))
        for label, fault in zip(labels, self.stack.faults()):
            if fault is not None:
                raise StructuralError(f"candidate {label}: {fault}")
        worst = self.stack.self_consistency()
        bad = np.flatnonzero(~(worst <= SELF_CONSISTENCY_TOL))  # also NaN
        if bad.size:
            raise StructuralError(f"candidate {labels[bad[0]]} violates self-consistency by {worst[bad[0]]:.3g}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "models", self.stack.members())

    def __len__(self) -> int:
        return len(self.models)


def _checked_labels(labels: Sequence[str], n_models: int) -> tuple[str, ...]:
    """``labels`` as a tuple of one string per model; a set may not be empty."""
    labels = tuple(labels)
    if len(labels) != n_models:
        raise StructuralError("models and labels must align")
    if not labels:
        raise StructuralError("candidate set may not be empty")
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise StructuralError(f"label {i} is a {type(label).__name__}, not a str")
    return labels


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
    the truth).  All members share the truth's core-test set, one object
    on the window of ``default_psr``, so their features are comparable.  Members
    are converted together by :func:`~psrlab.pomdp.convert_family`, at
    most ``FAMILY_BLOCK`` at a time: dithering draws attempt ``i`` from
    ``rng_for(seed, "dither", i)`` in rounds of as many attempts as members
    are missing, and the grid goes in blocks of points; a member without a
    valid PSR is skipped.  The truth's parameters and every round's kept
    members are concatenated into the set's one stack.  ``seed`` and
    ``n >= 0`` are integers, ``scale`` and ``emission_scale`` finite
    numbers at least 0, ``eps_grid`` a number in (0, 1] and
    ``include_true`` a boolean; anything else raises
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
    true_model, _ = default_psr(env)
    stacks, labels = ([true_model.stack], ["true"]) if include_true or mode == "include_true" else ([], [])

    def _convert(tables: list[tuple[np.ndarray, np.ndarray]], round_labels: list[str]) -> int:
        """Convert the tables in one stacked pass, keep the valid members in order, and count them."""
        transitions, emissions = (np.stack(arrays) for arrays in zip(*tables))
        stack, errors = convert_family(env, transitions, emissions, true_model.core_tests)
        kept = [c for c, error in enumerate(errors) if error is None]
        stacks.append(stack.take(kept))
        labels.extend(round_labels[c] for c in kept)
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

    if not labels:
        raise EmptyFeasibleSet("candidate generation produced no valid models")
    return CandidateSet(PsrStack.concatenate(stacks), labels)


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


class _SelectionRecord:
    """What selection has read of one dataset for one stack of models and one floor.

    Each call reads only the entries appended to a bucket since the last
    one.  Stability is monotone while data only grow under a fixed floor, so
    the new prefixes' flags are ANDed into the running mask.  ``sums`` is
    one ``(H, n_models + 1)`` array: row ``h`` holds every model's summed log
    probability over bucket ``h``, then the bucket's summed log policy weight.

    A call adds a bucket's new entries to its row as one C-ordered block,
    the row on top and one row of logs per entry below; numpy's axis-0 sum
    of such a block adds its rows left to right, and the weight column keeps
    the block at least two wide, so a stack of one adds in that order too.
    So each bucket sums from 0.0 in insertion order, and the log-likelihood
    is the bucket rows added in bucket order: the bits of one fresh pass in
    that order.
    """

    def __init__(self, key: object, p_min: float, n_models: int, horizon: int) -> None:
        self.key = key  # the candidate set read, matched by identity
        self.p_min = p_min
        self.consumed = [0] * horizon
        self.stable = np.ones(n_models, dtype=bool)
        self.sums = np.zeros((horizon, n_models + 1))

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
                block = np.empty((stop - start + 1, self.sums.shape[1]))
                block[0] = self.sums[h]
                np.log(prob_table(horizon).take(cols.trajectory[start:], axis=1).T, out=block[1:, :-1])
                np.log(np.frombuffer(cols.full_weight[start:]), out=block[1:, -1])
                block.sum(axis=0, out=self.sums[h])
                self.consumed[h] = stop
        totals = self.sums.sum(axis=0)
        logliks = totals[:-1] + totals[-1]
        logliks[np.isnan(logliks)] = NEG_INF
        return self.stable.copy(), logliks


def log_likelihood(model: PsrModel, dataset: DatasetFamily) -> float:
    """Sum of trajectory log probabilities (policy factor included) over all buckets.

    One read of a record of the model alone, kept for this call only.
    Entries the model cannot produce push the result to -inf.  A dataset on
    another space raises :class:`StructuralError`.
    """
    check_same_space("model and dataset", model.space, dataset.space)
    record = _SelectionRecord(model, NEG_INF, 1, model.space.horizon)
    return float(record.read(lambda h: model.prob_table(h)[None], dataset)[1][0])


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
    candidate index, so the outcome does not depend on evaluation order.  A
    dataset on another space than the candidates raises
    :class:`StructuralError`.
    """
    check_same_space("candidates and dataset", candidates.stack.space, dataset.space)
    record = dataset._selection
    if record is None or record.key is not candidates or record.p_min != p_min:
        record = dataset._selection = _SelectionRecord(candidates, p_min, len(candidates), dataset.space.horizon)
    stable, logliks = record.read(candidates.stack.prob_table, dataset)
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
    models: PsrStack, reference: PsrModel, dataset: DatasetFamily, policies: Sequence[Policy]
) -> np.ndarray:
    """Each member's summed squared conditional total variation from ``reference`` over recorded prefixes.

    Per bucket-``h`` entry, compares a member's and the reference's laws of
    the remaining trajectory given the length-``h`` prefix under
    ``policies[h]``, the bucket's drawing policy, by exact enumeration.  One
    gather of every member's prefix probabilities, one continuation-weight
    pass and one set of reference conditionals per bucket serve the stack;
    each (member, entry) TV is a ``math.fsum``, so no member's bits depend on
    the others.  One model's value is the call on ``model.stack`` at
    ``model.index``.  A zero prefix probability raises
    :class:`DegenerateHistory`, another space :class:`StructuralError`.
    """
    space, n_models = models.space, len(models)
    check_same_space("models", space, reference.space)
    check_same_space("models and dataset", space, dataset.space)
    if len(policies) != space.horizon:
        raise StructuralError(f"need one policy per bucket ({space.horizon}), got {len(policies)}")
    tables, reference_table = models.prob_table(space.horizon), reference.prob_table(space.horizon)
    terms = [[] for _ in range(n_models)]
    for h, (cols, policy) in enumerate(zip(dataset.columns, policies)):
        if not cols.trajectory:
            continue
        prefix = np.asarray(cols.prefix)
        probs, reference_probs = models.prob_table(h)[:, prefix], reference.prob_table(h)[prefix]
        wp = np.asarray(cols.prefix_weight)
        if np.any(probs * wp <= 0.0) or np.any(reference_probs * wp <= 0.0):
            raise DegenerateHistory(f"prefix at step {h} has zero probability under a compared model")
        reps = space.pair_count ** (space.horizon - h)
        weights = continuation_weights(policy, space, h, prefix)
        conds = tables.reshape(n_models, space.n_histories(h), reps)[:, prefix] / probs[:, :, None]
        reference_conds = reference_table.reshape(-1, reps)[prefix] / reference_probs[:, None]
        for member, rows in zip(terms, np.abs(weights * (conds - reference_conds)).tolist()):
            member.extend(tv * tv for tv in map(math.fsum, rows))
    return np.array([math.fsum(member) for member in terms])
