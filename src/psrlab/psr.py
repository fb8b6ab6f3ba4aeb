"""Predictive state representations: parameters, probabilities, and distances.

A model is a start vector ``psi0``, per-step observation-action matrices
``M[h][o][a]``, and closing vectors ``phi[0..H]``.  A history's state vector
is the ordered matrix product applied to ``psi0``; its probability is the
closing vector applied to that state.  Prediction features are the state
normalized by its probability, one coordinate per core test; a degenerate
history (probability not above ``PSI_GUARD``) has a 0.0 row instead, which
cached boolean masks flag.

A family of models on one space and core-test set is one :class:`PsrStack`,
the member axis leading every parameter array.  Validation is one pass over
a stack: :meth:`PsrStack.faults` checks the shapes once and finiteness with
one ``isfinite`` for every member, and :meth:`PsrStack.self_consistency`
measures every member's closing-vector recursion with one einsum per step.
A :class:`PsrModel` is member ``index`` of a stack and nothing else: a
validated stack's :meth:`PsrStack.members` are its models, whose arrays are
read-only views into it, so no model is built or checked alone.

States and probabilities are per-depth tables over all histories in
lexicographic order, and the stack owns them: :meth:`PsrStack.tables` builds
a depth for every member, one einsum per member written into the stacked
array, and caches it.  A member's tables are its row of its stack's, so a
member asking for a depth first builds that depth for its whole family
once.  Features are each model's own cached tables, divided from its rows.
A history's entry is the row at its
:meth:`~psrlab.spaces.History.lex_index`.  :func:`gamma`'s policy
maximization is the planner's backward induction.  Distances are exact sums
over the full trajectory tree (exponential in the horizon; the space cap
bounds the blow-up) accumulated with compensated summation, and the identity
checks compare whole tables one depth at a time, stepping them with
:func:`forward_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StructuralError
from .planner import plan_on_table
from .policies import Policy, policy_weight_vector
from .spaces import _INTEGERS, Future, ObsActSpace, check_same_space

PSI_GUARD = 1e-12
RANK_TOL = 1e-8  # singular values at most this fraction of the largest count as zero


@dataclass(frozen=True)
class CoreTestSet:
    """Per-step core tests with their action sets and exploration sets.

    ``tests[h]`` are the tests anchored at history step ``h``; their first
    observation lands at step ``h + 1``.  ``action_seqs[h]`` deduplicates the
    tests' action sequences.  ``exploration_seqs[h]`` is the union of every
    core action sequence at ``h`` with every single action prefixed to a core
    action sequence at ``h + 1`` (the step-``H``-anchored set is the lone
    empty sequence).
    """

    space: ObsActSpace
    tests: tuple[tuple[Future, ...], ...]
    action_seqs: tuple[tuple[tuple[int, ...], ...], ...]
    exploration_seqs: tuple[tuple[tuple[int, ...], ...], ...]

    def d(self, h: int) -> int:
        return len(self.tests[h])

    @property
    def max_action_seqs(self) -> int:
        return max(len(seqs) for seqs in self.action_seqs)

    def to_dict(self) -> dict:
        return {
            "tests": [
                [{"start_step": t.start_step, "obs": list(t.obs), "acts": list(t.acts)} for t in row]
                for row in self.tests
            ]
        }


def make_core_test_set(space: ObsActSpace, tests_per_step: list[tuple[Future, ...]]) -> CoreTestSet:
    if len(tests_per_step) != space.horizon:
        raise StructuralError("need one test list per step 0..H-1")
    action_seqs: list[tuple[tuple[int, ...], ...]] = []
    for h, tests in enumerate(tests_per_step):
        if not tests:
            raise StructuralError(f"empty core test set at step {h}")
        for t in tests:
            t.validate(space)
            if t.start_step != h:
                raise StructuralError(f"test anchored at {t.start_step} placed at step {h}")
        action_seqs.append(tuple(sorted(set(t.acts for t in tests))))
    exploration: list[tuple[tuple[int, ...], ...]] = []
    for h in range(space.horizon):
        nxt = action_seqs[h + 1] if h + 1 < space.horizon else ((),)
        prefixed = {(a,) + seq for a in range(space.n_actions) for seq in nxt}
        exploration.append(tuple(sorted(prefixed | set(action_seqs[h]))))
    return CoreTestSet(space, tuple(tuple(t) for t in tests_per_step), tuple(action_seqs), tuple(exploration))


@dataclass(frozen=True, eq=False)
class PsrModel:
    """Sequential model in predictive-state form: member ``index`` of a :class:`PsrStack`.

    ``PsrModel(stack, index)`` checks only that ``index`` is a member:
    :meth:`PsrStack.members` of a stack whose :meth:`PsrStack.faults` are all
    None builds every model.  ``space``, ``core_tests``, ``psi0``, ``M`` and
    ``phi`` are set once from the stack, the arrays read-only views of the
    member's rows.  States and probabilities are the model's row of the
    stack's tables; only the feature tables are the model's own.  Models
    compare by identity.
    """

    stack: PsrStack = field(repr=False)
    index: int
    space: ObsActSpace = field(init=False)
    core_tests: CoreTestSet = field(init=False, repr=False)
    psi0: np.ndarray = field(init=False, repr=False)
    M: tuple[np.ndarray, ...] = field(init=False, repr=False)  # M[h-1] has shape (O, A, d_h, d_{h-1})
    phi: tuple[np.ndarray, ...] = field(init=False, repr=False)  # phi[h] has length d_h, for h = 0..H
    _feature_cache: dict = field(default_factory=dict, init=False, repr=False)  # depth -> features and masks

    def __post_init__(self) -> None:
        stack, c = self.stack, self.index
        if isinstance(c, bool) or not isinstance(c, _INTEGERS):  # True would index as 1 and keep the member axis
            raise StructuralError(f"member index must be an integer, got {c!r}")
        if not 0 <= c < len(stack):
            raise StructuralError(f"member {c} outside a stack of {len(stack)}")
        # Plain attributes, not properties, since the online loop reads them per iteration; frozen, so set in __dict__.
        self.__dict__.update(space=stack.space, core_tests=stack.core_tests, psi0=stack.psi0[c],
                             M=tuple([ops[c] for ops in stack.M]), phi=tuple([vec[c] for vec in stack.phi]))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.psi0.shape[0],) + tuple(ops.shape[2] for ops in self.M)

    @property
    def max_dim(self) -> int:
        return max(self.dims[:-1])

    # -- tables over the trajectory tree (lexicographic order) ---------------

    def state_table(self, h: int) -> np.ndarray:
        """State vectors (joint core-test probabilities) of all length-``h`` histories, lexicographically ordered; read-only."""
        return self.stack.tables(h)[0][self.index]

    def prob_table(self, h: int) -> np.ndarray:
        """P(observations | actions) of all length-``h`` histories, lexicographically ordered."""
        return self.stack.prob_table(h)[self.index]

    def feature_table(self, h: int) -> np.ndarray:
        """Prediction features (state over probability) of all length-``h`` histories, cached read-only.

        A degenerate history, one whose probability is not above
        ``PSI_GUARD``, has no feature: its row is 0.0 and
        :meth:`degenerate_mask` flags it.
        """
        return self._features(h)[0]

    def degenerate_mask(self, h: int) -> np.ndarray:
        """Which length-``h`` histories are degenerate (probability not above ``PSI_GUARD``), cached read-only."""
        return self._features(h)[1]

    def degenerate_prefixes(self, h: int) -> np.ndarray:
        """Which length-``h`` histories have a degenerate prefix of any length, themselves included; cached read-only."""
        return self._features(h)[2]

    def _features(self, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature table, degenerate mask and degenerate-prefix mask at depth ``h``, built together."""
        out = self._feature_cache.get(h)
        if out is None:
            psis, probs = (table[self.index] for table in self.stack.tables(h))
            ok = probs > PSI_GUARD
            feats = np.zeros_like(psis)
            np.divide(psis, probs[:, None], out=feats, where=ok[:, None])
            degenerate = ~ok
            prefixes = degenerate
            if h:
                prefixes = degenerate | np.repeat(self.degenerate_prefixes(h - 1), self.space.pair_count)
            out = (feats, degenerate, prefixes)
            for table in out:
                table.setflags(write=False)
            self._feature_cache[h] = out
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "space": {"n_obs": self.space.n_obs, "n_actions": self.space.n_actions, "horizon": self.space.horizon},
            "core_tests": self.core_tests.to_dict(),
            "psi0": self.psi0.tolist(),
            "M": [ops.tolist() for ops in self.M],
            "phi": [vec.tolist() for vec in self.phi],
        }


@dataclass(frozen=True, eq=False)
class PsrStack:
    """Parameters and tables of models sharing one space and core-test set, the member axis leading every array.

    ``psi0`` is ``(C, d_0)``, ``M[h-1]`` is ``(C, O, A, d_h, d_{h-1})`` and
    ``phi[h]`` is ``(C, d_h)``; every array is made read-only.  A stack is
    not validated when built: :meth:`faults` checks every member at once,
    :meth:`self_consistency` measures every member at once, and
    :meth:`members` gives the members of a valid stack as models whose
    arrays are views into it.  The stack is the one owner of its members'
    state and probability tables (:meth:`tables`).  Stacks compare by
    identity.
    """

    space: ObsActSpace
    core_tests: CoreTestSet
    psi0: np.ndarray
    M: tuple[np.ndarray, ...]
    phi: tuple[np.ndarray, ...]
    _depth_tables: dict = field(default_factory=dict, init=False, repr=False)  # depth -> (states, probs)

    def __post_init__(self) -> None:
        for array in (self.psi0, *self.M, *self.phi):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.psi0)

    @classmethod
    def concatenate(cls, stacks: Sequence[PsrStack]) -> PsrStack:
        """The members of stacks with one space, core-test set and state dims, in order."""
        first = stacks[0]
        return cls(
            first.space,
            first.core_tests,
            np.concatenate([s.psi0 for s in stacks]),
            tuple(np.concatenate(step) for step in zip(*(s.M for s in stacks))),
            tuple(np.concatenate(step) for step in zip(*(s.phi for s in stacks))),
        )

    def take(self, ids: Sequence[int]) -> PsrStack:
        """The members ``ids``, in that order, with their rows of every depth this stack has cached.

        A member's tables do not depend on the other members, so the gathered
        rows have the bits the new stack would compute.  Probabilities that
        are a view of this stack's states are a view of the new states.
        """
        taken = PsrStack(
            self.space,
            self.core_tests,
            self.psi0[ids],
            tuple(ops[ids] for ops in self.M),
            tuple(vec[ids] for vec in self.phi),
        )
        for h, (states, probs) in self._depth_tables.items():
            rows = states[ids]
            picked = rows[:, :, 0] if np.may_share_memory(probs, states) else probs[ids]
            rows.setflags(write=False)
            picked.setflags(write=False)
            taken._depth_tables[h] = (rows, picked)
        return taken

    def faults(self) -> list[str | None]:
        """Each member's first fault, in the order the checks run, or None for a valid model.

        Every array must be finite; one ``isfinite`` over all of them checks
        every member at once, and only a stack that fails it is checked
        array by array.  The shapes, the same for every member, are checked
        once: a wrong one is the fault of every member without an earlier
        one, and ends the checks.
        """
        checks, shape_fault = self._layout()
        rows = [array.reshape(len(self), -1) for _, array in checks]
        if not rows or np.isfinite(np.concatenate(rows, axis=1)).all():
            return [shape_fault] * len(self)
        flags = np.array([~np.isfinite(row).all(axis=1) for row in rows])  # (check, member)
        firsts = flags.argmax(axis=0).tolist()
        return [checks[i][0] if flags[i, c] else shape_fault for c, i in enumerate(firsts)]

    def _layout(self) -> tuple[list[tuple[str, np.ndarray]], str | None]:
        """The finiteness checks in order, ``(message, array)``, up to the first wrong shape, and its message."""
        H, O, A = self.space.horizon, self.space.n_obs, self.space.n_actions
        if len(self.M) != H or len(self.phi) != H + 1:
            return [], "need H observation-action tables and H+1 closing vectors"
        checks = [("start vector psi0 has non-finite entries", self.psi0)]
        if self.psi0.ndim != 2:
            return checks, f"start vector psi0 must be a vector, got shape {self.psi0.shape[1:]}"
        dims = [self.psi0.shape[1]]
        for h, ops in enumerate(self.M, start=1):
            if ops.ndim != 5 or ops.shape[1] != O or ops.shape[2] != A:
                return checks, f"M at step {h} must be (O, A, d_h, d_h-1), got {ops.shape[1:]}"
            if ops.shape[4] != dims[-1]:
                return checks, f"M at step {h} expects input dim {dims[-1]}, got {ops.shape[4]}"
            checks.append((f"M at step {h} has non-finite entries", ops))
            dims.append(ops.shape[3])
        for h, vec in enumerate(self.phi):
            if vec.shape[1:] != (dims[h],):
                return checks, f"closing vector at step {h} has dim {vec.shape[1:]}, expected ({dims[h]},)"
            checks.append((f"closing vector phi at step {h} has non-finite entries", vec))
        for h in range(H):
            if self.core_tests.d(h) != dims[h]:
                return checks, f"{self.core_tests.d(h)} core tests at step {h} but state dim {dims[h]}"
        return checks, None

    def self_consistency(self) -> np.ndarray:
        """Each member's largest violation of the closing-vector recursion over steps and actions (NaN if any is NaN).

        One einsum per step for every member.
        """
        gaps = [
            np.abs(np.einsum("ci,coaij->caj", self.phi[h + 1], self.M[h]) - self.phi[h][:, None, :]).max(axis=(1, 2))
            for h in range(self.space.horizon)
        ]
        return np.max(gaps, axis=0, initial=0.0)

    def members(self) -> tuple[PsrModel, ...]:
        """The members as models, ``PsrModel(self, c)`` for each ``c``.

        Only for a stack whose :meth:`faults` are all None: no member is
        checked again, which is what makes a family one validation.
        """
        return tuple(PsrModel(self, c) for c in range(len(self)))

    def tables(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """States and probabilities of all length-``h`` histories of every member, cached read-only.

        One forward step per depth gives ``(n_members, n_histories(h), d_h)``
        states and ``(n_members, n_histories(h))`` probabilities in
        lexicographic order.  The step is one einsum per member over its
        ``M``, written straight into that member's block of the states: on
        the short state axes here that is about twice as fast as one einsum
        batched over the member axis, with the same bits.  Below the root,
        where every closing vector is exactly ``[1.0]`` (the last depth of
        every model built here), the probabilities are a view of the
        one-column states.  A depth outside ``[0, H]`` raises
        :class:`StructuralError`.
        """
        cached = self._depth_tables.get(h)
        if cached is not None:
            return cached
        self.space.n_histories(h)  # a depth outside [0, H] raises
        if h == 0:
            states = self.psi0[:, None, :]  # not a reshape with -1, which an empty stack cannot take
        else:
            prev = self.tables(h - 1)[0]
            ops_stack = self.M[h - 1]
            n_ops, d_out = self.space.pair_count, ops_stack.shape[3]
            states = np.empty((len(self), prev.shape[1] * n_ops, d_out))
            for ops, block, prev_block in zip(ops_stack, states, prev):
                np.einsum("kij,nj->nki", ops.reshape(n_ops, d_out, -1), prev_block, out=block.reshape(-1, n_ops, d_out))
        phi = self.phi[h]
        if h and phi.shape[1] == 1 and (phi == 1.0).all():
            # Each einsum sums into a zeroed output, so no state here is -0.0, the one
            # value a product with [1.0] would change; share the states' memory.
            probs = states[:, :, 0]
        else:
            probs = (states @ phi[:, :, None])[:, :, 0]
        states.setflags(write=False)
        probs.setflags(write=False)
        self._depth_tables[h] = (states, probs)
        return states, probs

    def prob_table(self, h: int) -> np.ndarray:
        """The ``(n_members, n_histories(h))`` probabilities: the read-only table below the root, new ones at it."""
        if h == 0:
            return np.ones((len(self), 1))
        return self.tables(h)[1]


# -- model-level operations ---------------------------------------------------


def check_self_consistency(model: PsrModel) -> float:
    """Largest violation of the closing-vector recursion over steps and actions (NaN if any is NaN).

    :meth:`PsrStack.self_consistency` of the model alone, as a stack of one.
    """
    return float(model.stack.take([model.index]).self_consistency()[0])


def terminal_anchor_violation(model: PsrModel) -> float | None:
    """Deviation of the final-step closing rows from core-test indicators.

    Only meaningful when the final core-test set has exactly one test
    matching each (obs, action): a test matches if its observation equals
    the step's observation and its action list is empty or equals the
    action.  Returns None when some pair has no unique match, and NaN when
    some deviation is NaN.
    """
    H = model.space.horizon
    tests = model.core_tests.tests[H - 1]
    gaps = []
    for o in range(model.space.n_obs):
        for a in range(model.space.n_actions):
            matches = [
                i
                for i, t in enumerate(tests)
                if t.obs == (o,) and (t.acts == () or t.acts == (a,))
            ]
            if len(matches) != 1:
                return None
            row = model.phi[H] @ model.M[H - 1][o, a]
            expected = np.zeros(len(tests))
            expected[matches[0]] = 1.0
            gaps.append(np.abs(row - expected).max())
    return float(np.max(gaps, initial=0.0))


def gamma(model: PsrModel) -> float:
    """Well-conditionedness of the representation.

    Computes the largest, over steps and over signed coordinate directions
    of the state space, policy-maximized sum of absolute closing values of
    the direction over the future tree; returns its reciprocal.  The inner
    policy maximization is exact by backward induction (observation nodes
    sum, action nodes maximize); coordinate directions suffice because the
    objective is convex on the unit cross-polytope.
    """
    return 1.0 / sup_weighted_abs(model)


def sup_weighted_abs(model: PsrModel) -> float:
    """The largest policy-maximized absolute closing mass over coordinate directions.

    Only the positive directions are evaluated: negating a direction negates
    every closing value exactly, so ``-x`` has the absolute values of ``x``.
    """
    sup = 0.0
    for h in range(model.space.horizon):
        for x in np.eye(model.dims[h]):
            sup = max(sup, _future_tree_max(model, h, x))
    return sup


def _future_tree_max(model: PsrModel, h: int, x: np.ndarray) -> float:
    """max over continuation policies of sum_w pi(w) |closing value of x|, by the planner's induction."""
    space = model.space
    stack = x[None, :]
    for j in range(h + 1, space.horizon + 1):
        ops = model.M[j - 1].reshape(-1, *model.M[j - 1].shape[2:])
        stack = np.einsum("kij,nj->nki", ops, stack).reshape(-1, ops.shape[1])
    continuations = ObsActSpace(space.n_obs, space.n_actions, space.horizon - h)
    return plan_on_table(continuations, np.abs(stack @ model.phi[space.horizon]))[1]


def tv_distance(model_a: PsrModel, model_b: PsrModel, policy: Policy) -> float:
    """Policy-weighted sum of absolute trajectory-probability differences.

    Convention: no 1/2 factor, so the value lies in [0, 2] for two valid
    models.
    """
    check_same_space("models", model_a.space, model_b.space)
    H = model_a.space.horizon
    weights = policy_weight_vector(policy, model_a.space)
    diff = np.abs(model_a.prob_table(H) - model_b.prob_table(H))
    return float(math.fsum(weights * diff))


def hellinger_sq(model_a: PsrModel, model_b: PsrModel, policy: Policy) -> float:
    """Squared Hellinger distance between policy-induced trajectory laws."""
    check_same_space("models", model_a.space, model_b.space)
    H = model_a.space.horizon
    weights = policy_weight_vector(policy, model_a.space)
    pa = np.clip(model_a.prob_table(H), 0.0, None) * weights
    pb = np.clip(model_b.prob_table(H), 0.0, None) * weights
    return float(0.5 * math.fsum((np.sqrt(pa) - np.sqrt(pb)) ** 2))


def conditional_update_violation(model: PsrModel) -> float:
    """Largest violation of the one-step feature update identity.

    For every positive-probability history and next (obs, action), applying
    the step matrix to the feature must equal the next-step feature scaled
    by the conditional observation probability.  One batched step per depth.
    """
    worst = 0.0
    for h in range(model.space.horizon):
        probs = np.repeat(model.prob_table(h), model.space.pair_count)  # each child's parent probability
        next_probs = model.prob_table(h + 1)
        lhs = forward_step(model.M[h], model.feature_table(h))
        with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows are masked out below
            gaps = np.abs(lhs - (next_probs / probs)[:, None] * model.feature_table(h + 1)).max(-1)
        live = (probs > PSI_GUARD) & (next_probs > PSI_GUARD)
        worst = max(worst, float(np.fmax.reduce(gaps[live], initial=0.0)))  # fmax skips NaN rows, as max() did
    return worst


def psr_rank(matrix: np.ndarray) -> int:
    """Numerical rank: the number of singular values above ``RANK_TOL`` times the largest one."""
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > RANK_TOL * svals[0]))


def forward_step(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``ops[o, a] @ x`` for every state row ``x`` and every (o, a), in lexicographic child order.

    ``ops`` is one step's ``(O, A, d_out, d_in)`` table and ``states`` an
    ``(n, d_in)`` stack; the result is ``(n * O * A, d_out)``.  A broadcast
    matmul, so each row is the per-history matrix-vector product bit for bit
    (an einsum is not).
    """
    products = ops.reshape(-1, *ops.shape[2:])[None] @ states[:, None, :, None]
    return products.reshape(-1, ops.shape[2])
