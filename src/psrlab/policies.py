"""History-dependent decision rules, compiled into per-step action tables.

Three concrete forms, closed under the needs of the learning loops:

* :class:`DeterministicTreePolicy` -- one action per (history, obs) node,
  stored as per-step lookup arrays in lexicographic node order.
* :class:`UniformActionSeqPolicy` -- pick one action sequence uniformly at a
  start step, play it out, then pad with uniform random actions up to the
  horizon.  Sequences may be ragged, including the empty sequence (which
  makes the policy uniform over actions from its start step).  Its action
  distribution at a step depends only on the actions taken since the start
  step, so it compiles into one row per such action sequence: at most
  ``A ** pos`` rows at position ``pos``, built and validated on first use.
* :class:`CompositePolicy` -- one policy before a switch step, another from
  the switch step on; it dispatches each step to one of them.

Each class answers one question, ``_rows(space, h, nodes)``: the step-``h``
row table (a :class:`_Rows`) and the row index of each (history, obs) lex
node, for one node or an int64 array of them.  A tree policy indexes the
one-hot table shared per action count by its action at the node, a mixture
indexes its compiled table by the node's taken-action digits, and a
composite asks the policy that owns the step.  Every path reads through
it: :func:`reached_rows` gathers a block of rows and checks the reached
ones are valid, for ``TabularPomdp.sample_episodes`` and for
:func:`weight_steps`, the one weight pass behind
:func:`continuation_weights`, :func:`policy_weight_vector`,
:func:`prefix_weight_tables` and the offline exploration minimum;
``TabularPomdp.sample_episode`` reads one row's float lists per step.
Both samplers draw by inverse CDF on a row's normalized cumulative sums
and multiply each drawn entry into the episode's prefix weights, so a
recorded weight is never looked up again.
(:func:`tree_weight_table` weighs a stack of tree policies' tables at once.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import StructuralError
from .seeding import first_integers
from .spaces import ObsActSpace, check_same_space

# Generator.choice accepts a probability row whose sum is within this of 1.
ROW_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def uniform_policy(space: ObsActSpace) -> "UniformActionSeqPolicy":
    """Uniform over actions at every step (empty sequence + full padding)."""
    return UniformActionSeqPolicy(space.n_actions, start_step=1, sequences=((),))


def cumulative_rows(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis divided by their last entry.

    This is the table ``Generator.choice(n, p=row)`` searches with one
    uniform (``searchsorted(u, side="right")``), so an inverse-CDF draw on
    these rows picks what ``choice`` picks from the same uniform.
    """
    cdf = np.cumsum(probs, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # all-zero rows give NaN; callers never draw from them
        return cdf / cdf[..., -1:]


def _check_rows(probs: np.ndarray, step: int) -> None:
    """Entries finite and non-negative, rows summing to 1 as ``Generator.choice`` requires."""
    rows = probs.reshape(-1, probs.shape[-1])
    bad = ~np.isfinite(rows).all(axis=1) | (rows < 0.0).any(axis=1) | ~(np.abs(rows.sum(axis=1) - 1.0) <= ROW_SUM_ATOL)
    if bad.any():
        row = rows[np.flatnonzero(bad)[0]].tolist()
        raise StructuralError(f"step {step}: row {row} is not a probability distribution")


def action_dtype(n_actions: int) -> np.dtype:
    """The smallest unsigned type holding every action index (``uint8`` up to 256 actions): tree policies' table type."""
    return np.min_scalar_type(n_actions - 1)


@dataclass(frozen=True)
class DeterministicTreePolicy:
    """Total map (history, current obs) -> action, per step.

    ``actions_by_step[h-1]`` covers step ``h`` and has one entry per
    (length-``h-1`` history, obs) node: index = ``hist_lex * n_obs + obs``.
    Tables are read-only and stored as :func:`action_dtype` of the action
    count; the constructor range-checks its input before converting it, so
    no out-of-range action can wrap into range.
    """

    space: ObsActSpace
    actions_by_step: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions_by_step", tuple(np.asarray(table) for table in self.actions_by_step))
        self._check_shapes()
        for table in self.actions_by_step:
            if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= self.space.n_actions:
                raise StructuralError(f"action index out of range in tree policy: need integers in [0, {self.space.n_actions})")
        object.__setattr__(self, "actions_by_step", _stored_tables(self.space, self.actions_by_step, copy=True))

    @classmethod
    def _from_valid_tables(cls, space: ObsActSpace, actions_by_step: tuple[np.ndarray, ...]) -> DeterministicTreePolicy:
        """A policy on fresh tables with actions in range by construction: shapes checked, tables
        converted to the storage type (not copied when already in it) and frozen in place."""
        policy = object.__new__(cls)
        object.__setattr__(policy, "space", space)
        object.__setattr__(policy, "actions_by_step", _stored_tables(space, actions_by_step, copy=False))
        policy._check_shapes()
        return policy

    def _check_shapes(self) -> None:
        if len(self.actions_by_step) != self.space.horizon:
            raise StructuralError("need one action table per step")
        for h, table in enumerate(self.actions_by_step, start=1):
            expected = self.space.n_histories(h - 1) * self.space.n_obs
            if table.shape != (expected,):
                raise StructuralError(f"step {h} table has shape {table.shape}, expected ({expected},)")

    def _rows(self, space: ObsActSpace, h: int, nodes: np.ndarray | int) -> tuple[_Rows, np.ndarray | int]:
        check_same_space("tree policy and its reader", self.space, space)  # nodes index the reader's tree
        return _one_hot_table(self.space.n_actions), self.actions_by_step[h - 1][nodes]

    def to_dict(self) -> dict:
        return {
            "type": "deterministic_tree",
            "actions": [table.tolist() for table in self.actions_by_step],
        }


def _stored_tables(space: ObsActSpace, tables: tuple[np.ndarray, ...], copy: bool) -> tuple[np.ndarray, ...]:
    """In-range action tables as read-only arrays of the storage type; without ``copy``, converted only if needed."""
    dtype = action_dtype(space.n_actions)
    stored = tuple(table.astype(dtype, copy=copy) for table in tables)
    for table in stored:
        table.flags.writeable = False
    return stored


class _Rows(NamedTuple):
    """A step's compiled action rows, which a policy's ``_rows`` indexes per node."""

    probs: np.ndarray  # (n_rows, A), read-only; zero rows where ``valid`` is False
    valid: np.ndarray  # (n_rows,) bool: a mixture's taken actions match some sequence
    rows: list  # per row: (probabilities, ``cumulative_rows``) as float lists, or None where not valid


def _row_table(probs: np.ndarray, valid: np.ndarray) -> _Rows:
    """``probs`` and ``valid`` frozen in place, with each valid row's float lists for the scalar sampler."""
    probs.flags.writeable = valid.flags.writeable = False
    rows = zip(probs.tolist(), cumulative_rows(probs).tolist())
    return _Rows(probs, valid, [row if ok else None for row, ok in zip(rows, valid.tolist())])


@functools.lru_cache(maxsize=None)  # one entry per action count in use
def _one_hot_table(n_actions: int) -> _Rows:
    """Row ``a`` plays action ``a``: the table every tree policy indexes by its actions."""
    return _row_table(np.eye(n_actions), np.ones(n_actions, dtype=bool))


@dataclass(frozen=True)
class UniformActionSeqPolicy:
    """Uniform mixture over action sequences starting at ``start_step``.

    A drawn sequence fixes the actions for the steps it covers; once it is
    exhausted (or if it is empty) every remaining step up to the horizon is
    played uniformly at random.  Behaviour before ``start_step`` is
    undefined; wrap in a :class:`CompositePolicy` for earlier steps.
    """

    n_actions: int
    start_step: int
    sequences: tuple[tuple[int, ...], ...]
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # pos -> _Rows

    def __post_init__(self) -> None:
        if self.start_step < 1:
            raise StructuralError("start step must be >= 1")
        if not self.sequences:
            raise StructuralError("need at least one action sequence")
        if len(set(self.sequences)) != len(self.sequences):
            raise StructuralError("duplicate action sequences in uniform mixture")
        for seq in self.sequences:
            if any(not 0 <= a < self.n_actions for a in seq):
                raise StructuralError("action index out of range in sequence")

    def _rows(self, space: ObsActSpace, h: int, nodes: np.ndarray | int) -> tuple[_Rows, np.ndarray | int]:
        pos = h - self.start_step
        if pos < 0:
            raise StructuralError(f"queried step {h} before start step {self.start_step}")
        hist = nodes // space.n_obs
        taken = 0 * nodes  # an int or an int64 array, as ``nodes`` is
        for j in range(self.start_step, h):  # step j's action is a digit of the history's lex index
            taken = taken * self.n_actions + hist // space.pair_count ** (h - 1 - j) % space.pair_count % self.n_actions
        return self._table(pos), taken

    def _table(self, pos: int) -> _Rows:
        table = self._compiled.get(pos)
        if table is None:
            table = self._compiled[pos] = self._compile(pos)
        return table

    def _compile(self, pos: int) -> _Rows:
        n = self.n_actions**pos
        probs = np.zeros((n, self.n_actions))
        valid = np.zeros(n, dtype=bool)
        for index, taken in enumerate(product(range(self.n_actions), repeat=pos)):
            row = self._mixture_row(taken)
            if row is not None:
                probs[index], valid[index] = row, True
        _check_rows(probs[valid], self.start_step + pos)
        return _row_table(probs, valid)

    def _mixture_row(self, taken: tuple[int, ...]) -> np.ndarray | None:
        """Action distribution after ``taken`` (actions since the start step); None if no sequence matches them."""
        pos = len(taken)
        probs = np.zeros(self.n_actions)
        total = 0.0
        for seq in self.sequences:
            w = self._consistency_weight(seq, taken)
            if w == 0.0:
                continue
            total += w
            if pos < len(seq):
                probs[seq[pos]] += w
            else:
                probs += w / self.n_actions
        if total <= 0.0:
            return None
        return probs / total

    def _consistency_weight(self, seq: tuple[int, ...], taken: tuple[int, ...]) -> float:
        """P(sequence chosen and its actions so far match ``taken``)."""
        overlap = min(len(seq), len(taken))
        if seq[:overlap] != taken[:overlap]:
            return 0.0
        padded = max(0, len(taken) - len(seq))
        return (1.0 / len(self.sequences)) * (1.0 / self.n_actions) ** padded

    def to_dict(self) -> dict:
        return {
            "type": "uniform_action_seq",
            "n_actions": self.n_actions,
            "start_step": self.start_step,
            "sequences": [list(s) for s in self.sequences],
        }


@dataclass(frozen=True)
class CompositePolicy:
    """Prefix policy for steps < switch_step, suffix policy from switch_step on."""

    switch_step: int
    prefix: "Policy"
    suffix: "Policy"

    def __post_init__(self) -> None:
        if self.switch_step < 1:
            raise StructuralError("switch step must be >= 1")

    def _at(self, step: int) -> "Policy":
        return self.prefix if step < self.switch_step else self.suffix

    def _rows(self, space: ObsActSpace, h: int, nodes: np.ndarray | int) -> tuple[_Rows, np.ndarray | int]:
        return self._at(h)._rows(space, h, nodes)

    def to_dict(self) -> dict:
        return {
            "type": "composite",
            "switch_step": self.switch_step,
            "prefix": self.prefix.to_dict(),
            "suffix": self.suffix.to_dict(),
        }


Policy = DeterministicTreePolicy | UniformActionSeqPolicy | CompositePolicy


def policy_from_dict(data: dict, space: ObsActSpace) -> Policy:
    """The policy that ``to_dict`` writes as ``data``.

    A uniform mixture's ``n_actions`` defaults to the space's action count
    and its ``start_step`` to 1.  A missing key or an entry of the wrong
    type raises :class:`StructuralError` naming it.
    """
    if not isinstance(data, dict):
        raise StructuralError(f"a policy must be an object, got {data!r}")
    kind = data.get("type")
    try:
        if kind == "deterministic_tree":
            return DeterministicTreePolicy(space, tuple(np.asarray(t) for t in data["actions"]))
        if kind == "uniform_action_seq":
            return UniformActionSeqPolicy(
                _integer(data.get("n_actions", space.n_actions), "'n_actions'"),
                _integer(data.get("start_step", 1), "'start_step'"),
                tuple(tuple(_integer(a, "an action in 'sequences'") for a in seq) for seq in data["sequences"]),
            )
        if kind == "composite":
            return CompositePolicy(
                _integer(data["switch_step"], "'switch_step'"),
                policy_from_dict(data["prefix"], space),
                policy_from_dict(data["suffix"], space),
            )
    except KeyError as exc:
        raise StructuralError(f"{kind} policy is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # a value of the wrong shape, such as a number where a list belongs
        raise StructuralError(f"bad entry in {kind} policy: {exc}") from exc
    raise StructuralError(f"unknown policy type {kind!r}; options: deterministic_tree, uniform_action_seq, composite")


def _integer(value, name: str) -> int:
    if type(value) is not int:  # JSON numbers and booleans are never read as counts or actions
        raise StructuralError(f"{name} must be an integer, got {value!r}")
    return value


def continuation_weights(policy: Policy, space: ObsActSpace, h: int, prefixes: np.ndarray) -> np.ndarray:
    """Policy weights of every continuation of each length-``h`` prefix.

    Row ``i`` covers the subtree of the prefix with lex index ``prefixes[i]``,
    continuations in lexicographic order; each entry is the product of the
    action probabilities from step ``h + 1`` on, multiplied step by step.
    """
    for weights in weight_steps(policy, space, h, np.asarray(prefixes, dtype=np.int64)):
        pass
    return weights


def reached_rows(
    policy: Policy, space: ObsActSpace, h: int, nodes: np.ndarray | int, weights: np.ndarray | None = None
) -> np.ndarray:
    """The policy's step-``h`` action rows at ``nodes``, raising if an invalid row is reached.

    ``nodes`` is an array of (history, obs) lex indices, or one index for
    one row.  A row is reached where its weight is positive, or everywhere
    without ``weights`` (the rows a sampler draws from).
    """
    table, index = policy._rows(space, h, nodes)
    if table.probs.shape[1] != space.n_actions:
        raise StructuralError(f"policy has {table.probs.shape[1]} actions, space has {space.n_actions}")
    if not table.valid.all():
        invalid = ~table.valid[index]
        if np.any(invalid if weights is None else invalid & (weights > 0.0)):
            raise StructuralError(f"step {h}: history inconsistent with every mixture sequence")
    return table.probs[index]


def weight_steps(policy: Policy, space: ObsActSpace, h: int, prefixes: np.ndarray) -> Iterator[np.ndarray]:
    """The running products of :func:`continuation_weights`, one per step from ``h`` to the horizon.

    After ``n`` steps, row ``i`` weighs the length-``n`` continuations of prefix ``prefixes[i]`` in lex order.
    """
    weights = np.ones((len(prefixes), 1))
    yield weights
    for j in range(h + 1, space.horizon + 1):
        span = weights.shape[1] * space.n_obs  # step-j nodes below one prefix
        nodes = (prefixes[:, None] * span + np.arange(span)).reshape(-1)
        node_weights = np.repeat(weights.reshape(-1), space.n_obs)
        probs = reached_rows(policy, space, j, nodes, node_weights)
        weights = (node_weights[:, None] * probs).reshape(len(prefixes), -1)
        yield weights


def policy_weight_vector(policy: Policy, space: ObsActSpace) -> np.ndarray:
    """Weights for all full trajectories in lexicographic order."""
    return continuation_weights(policy, space, 0, np.zeros(1, dtype=np.int64))[0]


def prefix_weight_tables(policy: Policy, space: ObsActSpace) -> Iterator[np.ndarray]:
    """Policy weights of all length-``h`` histories in lexicographic order, for h = 0..H."""
    for weights in weight_steps(policy, space, 0, np.zeros(1, dtype=np.int64)):
        yield weights[0]


def random_tree_tables(space: ObsActSpace, seeds: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Action tables of ``len(seeds)`` uniformly random tree policies, stacked.

    One read-only ``(P, n_histories(h-1) * n_obs)`` array per step ``h``.
    Row ``i`` of every step is what ``np.random.default_rng(seeds[i])``
    draws with one ``integers(0, A, size=...)`` call per step in step order,
    drawn for every seed at once by :func:`first_integers`.
    """
    widths = [space.n_histories(h - 1) * space.n_obs for h in range(1, space.horizon + 1)]
    tables = first_integers(seeds, space.n_actions, widths)
    for table in tables:
        table.flags.writeable = False
    return tables


def tree_weight_table(space: ObsActSpace, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Trajectory weights of stacked tree policies, one row per policy.

    ``tables`` holds one ``(P, n_histories(h-1) * n_obs)`` action array per
    step, as :func:`random_tree_tables` returns.  Each step keeps a node's
    running product in its chosen action's column and 0.0 elsewhere, which
    is what :func:`policy_weight_vector` gets by multiplying one-hot rows
    into the products.  Every entry is 0.0 or 1.0, so row ``i`` has the bits
    of ``policy_weight_vector`` of policy ``i``.
    """
    if len(tables) != space.horizon:
        raise StructuralError("need one action table per step")
    actions = np.arange(space.n_actions)
    weights = np.ones((len(tables[0]), 1))
    for h, table in enumerate(tables, start=1):
        expected = (len(weights), space.n_histories(h - 1) * space.n_obs)
        if table.shape != expected:
            raise StructuralError(f"step {h} table has shape {table.shape}, expected {expected}")
        if table.dtype.kind not in "iu" or table.size and (table.min() < 0 or table.max() >= space.n_actions):
            raise StructuralError(f"action index out of range in tree policy: need integers in [0, {space.n_actions})")
        node_weights = np.repeat(weights, space.n_obs, axis=1)
        weights = np.where(table[..., None] == actions, node_weights[..., None], 0.0).reshape(len(weights), -1)
    return weights


def random_tree_policy(space: ObsActSpace, seed: int) -> DeterministicTreePolicy:
    """Uniformly random deterministic tree policy drawn from ``seed`` (for test batteries): one row of :func:`random_tree_tables`."""
    tables = random_tree_tables(space, [seed])
    return DeterministicTreePolicy._from_valid_tables(space, tuple(table[0] for table in tables))
