"""Ground-truth tabular POMDP environments and their exact quantities.

Conventions.  An episode runs ``o_1, a_1, ..., o_H, a_H``: the hidden state
starts at the fixed ``initial_state``, each ``o_h`` is emitted from the
current state via ``emission[h-1]``, and after ``a_h`` the state advances via
``transition[h-1][a_h]`` (no transition after the final action).  Every exact
quantity reads from two batched walks over hidden states: forward tables of
the pre-emission beliefs and probabilities of every history, one depth at a
time (the dynamics matrices are the leaf table reshaped), and a backward walk
of all tests of one length at once.  Tests in this repo check them against
exponential brute-force sums over state sequences.

A reward is a per-step ``(obs, action)`` table.  PSRs are built one way,
for a family of environments that differ only in their tables: the member
axis leads every array, the window tests are walked for all members at
once, and each step's singular values, pseudo-inverses and operators come
from one stacked call.  Each product keeps one member's matrix shapes, so
a member gets the bits of its conversion alone.  :func:`convert_family`
converts a family on the truth's core-test set, which every member shares,
into one :class:`~psrlab.psr.PsrStack`, validated once, with each member's
error; :func:`pomdp_to_psr` of the window-test matrices of
:func:`g_matrices` builds that set once and converts a family of one, and
:func:`default_psr` picks the smallest window that is numerically sound.
An environment converts once: it caches each window's
:class:`GMatrices`, whose :attr:`~GMatrices.singular_values` serve both the
decodability value and the conversion's condition check, and the result of
:func:`default_psr`, so every later call is a lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    PsrLabError,
    RejectionBudgetExhausted,
    SingularCoreTests,
    StructuralError,
)
from .policies import Policy, cumulative_rows, reached_rows
from .psr import CoreTestSet, PsrModel, PsrStack, make_core_test_set
from .seeding import first_uniforms, rng_for
from .spaces import Future, History, ObsActSpace, _read_only_copy, check_numbers

ROW_SUM_TOL = 1e-12
PINV_RCOND = 1e-10
MAX_CONDITION = 1e10
ALPHA_FLOOR = 1e-8  # a window whose decodability value is at most this is not numerically sound


@dataclass(frozen=True, eq=False)
class RewardTable:
    """Per-step reward on (obs, action); trajectory reward is the sum over steps.  Compares by identity."""

    table: np.ndarray  # (H, O, A), entrywise >= 0 with sum_h max_{o,a} <= 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _read_only_copy(self.table))  # the leaf table derives from it
        if self.table.ndim != 3 or not self.table.size:
            raise StructuralError(f"reward table must be a non-empty (H, O, A) array, got {self.table.shape}")
        # Negated comparisons, so that NaN fails them too.
        if not self.table.min() >= 0:
            raise StructuralError("reward table has negative or NaN entries")
        if not self.table.max(axis=(1, 2)).sum() <= 1 + 1e-9:
            raise StructuralError("per-step reward maxima must sum to at most 1")

    def of(self, trajectory: History) -> float:
        """The full trajectory's entry in the leaf table."""
        space = self._space
        if len(trajectory) != space.horizon:
            raise StructuralError(f"reward needs a full trajectory of {space.horizon} steps, got {len(trajectory)}")
        trajectory.validate(space)
        return float(self._leaves[trajectory.lex_index(space)])

    def leaf_table(self, space: ObsActSpace) -> np.ndarray:
        """Reward of every full trajectory in lexicographic order, read-only."""
        if self.table.shape != (space.horizon, space.n_obs, space.n_actions):
            raise StructuralError(f"reward table shape {self.table.shape} does not match {space}")
        return self._leaves

    @cached_property
    def _space(self) -> ObsActSpace:
        horizon, n_obs, n_actions = self.table.shape
        return ObsActSpace(n_obs, n_actions, horizon)

    @cached_property
    def _leaves(self) -> np.ndarray:
        """Built once by broadcasting, the step rewards added left to right."""
        leaves = np.zeros(1)
        for step in self.table:
            leaves = (leaves[:, None] + step.reshape(-1)).reshape(-1)
        leaves.flags.writeable = False
        return leaves


@dataclass(frozen=True, eq=False)
class TabularPomdp:
    """Tabular POMDP with deterministic initial state and per-step tables.

    The environment is frozen and its tables are read-only copies, so what
    derives from them is cached on first use: the forward tables per depth,
    each window's :func:`g_matrices` and the :func:`default_psr` conversion.
    Environments compare and hash by identity.
    """

    n_states: int
    space: ObsActSpace
    transition: np.ndarray  # (H-1, A, S, S), T[h-1, a, s, s'] row-stochastic over s'
    emission: np.ndarray  # (H, S, O), row-stochastic over o
    initial_state: int
    reward: RewardTable
    _table_cache: dict = field(default_factory=dict, init=False, repr=False)  # depth -> (beliefs, probs)
    _windows: dict = field(default_factory=dict, init=False, repr=False)  # window m -> GMatrices, from g_matrices
    _psr: tuple | None = field(default=None, init=False, repr=False)  # default_psr's (model, g) once converted

    def __post_init__(self) -> None:
        check_numbers({"n_states": self.n_states, "initial_state": self.initial_state}, {})
        for name in ("transition", "emission"):  # the cached tables derive from them
            object.__setattr__(self, name, _read_only_copy(getattr(self, name)))
        _check_tables(self.n_states, self.space, self.initial_state, self.transition[None], self.emission[None])

    def reward_of(self, trajectory: History) -> float:
        return self.reward.of(trajectory)

    # -- exact tables over the trajectory tree (lexicographic order) ---------

    def belief_table(self, h: int) -> np.ndarray:
        """Pre-emission beliefs of all length-``h`` histories, read-only, for h < H.

        Row ``i`` is the unnormalized distribution of the state at step
        ``h + 1``: entry ``s`` is P(that state = s, the history's obs | its
        actions) for the history with lex index ``i``.
        """
        if not 0 <= h < self.space.horizon:
            raise StructuralError(f"no pre-emission belief after {h} of {self.space.horizon} steps")
        return self._forward(h)[0]

    def prob_table(self, h: int) -> np.ndarray:
        """P(obs | actions) of all length-``h`` histories, lexicographically ordered, read-only."""
        self.space.n_histories(h)  # raises outside 0..H
        return self._forward(h)[1]

    def _forward(self, h: int) -> tuple[np.ndarray | None, np.ndarray]:
        """Beliefs (None at h = H) and probabilities at depth ``h``, cached per depth.

        One step multiplies every belief elementwise by each observation's
        emission column, then each product as a row vector by ``T[a]``: the
        per-history order, so every entry is the one that per-history
        recursion gives.
        """
        cached = self._table_cache.get(h)
        if cached is not None:
            return cached
        S, A = self.n_states, self.space.n_actions
        if h == 0:
            beliefs: np.ndarray | None = np.zeros((1, S))
            beliefs[0, self.initial_state] = 1.0
            probs = np.ones(1)
        else:
            joint = self.belief_table(h - 1)[:, None, :] * self.emission[h - 1].T[None]  # (N, O, S)
            probs = np.repeat(joint.sum(axis=-1), A)
            beliefs = None
            if h < self.space.horizon:
                beliefs = (joint[:, :, None, None, :] @ self.transition[h - 1][None, None])[..., 0, :].reshape(-1, S)
        for table in (beliefs, probs):
            if table is not None:
                table.setflags(write=False)
        self._table_cache[h] = (beliefs, probs)
        return beliefs, probs

    def exact_traj_prob(self, history: History) -> float:
        """P(history's observations | history's actions): its entry of :meth:`prob_table`."""
        history.validate(self.space)
        return float(self.prob_table(len(history))[history.lex_index(self.space)])

    def test_probs(self, tests: Sequence[Future], state_step: int) -> np.ndarray:
        """P(test obs | state at ``state_step`` = s, test actions): one row per test, one column per s.

        ``state_step`` is the 1-based step at which each test's first
        observation is emitted (``test.start_step + 1``).  This is
        :func:`_walk_tests` of the environment alone.
        """
        return _walk_tests(self.transition[None], self.emission[None], tests, state_step)[0]

    # -- sampling -----------------------------------------------------------

    @cached_property
    def _cdfs(self) -> tuple[np.ndarray, np.ndarray]:
        """Emission and transition rows as ``cumulative_rows``, for inverse-CDF draws."""
        return cumulative_rows(self.emission), cumulative_rows(self.transition)

    @cached_property
    def _cdf_lists(self) -> tuple[list, list]:
        """``_cdfs`` as nested lists, which the scalar sampler bisects."""
        return self._cdfs[0].tolist(), self._cdfs[1].tolist()

    def sample_episode(self, policy: Policy, uniforms: Sequence[float]) -> tuple[list[int], list[float]]:
        """One episode under ``policy`` as a dataset records it; deterministic given its uniforms.

        Returns the lex index and policy weight of each prefix, depth 0..H, as
        two lists; a weight is the previous one times the drawn row's entry.
        ``uniforms`` are the episode's ``3H - 1`` uniforms, used in the order
        o_1, a_1, s_2, ..., o_H, a_H; each value is the first index whose
        normalized cumulative probability exceeds its uniform.  With the
        uniforms of ``default_rng(seed).random(3H - 1)`` (a row of
        :func:`first_uniforms` on that seed), that is how
        ``Generator.choice(n, p=row)`` draws, so the trajectory is the one a
        step-by-step ``choice`` sampler on the same seed would produce.  A
        list of floats is bisected fastest.  Each action row is the policy's
        ``_rows`` entry at node ``lex[h] * n_obs + obs``.
        """
        space, horizon = self.space, self.space.horizon
        if len(uniforms) != 3 * horizon - 1:
            raise StructuralError(f"an episode reads {3 * horizon - 1} uniforms, got {len(uniforms)}")
        emission, transition = self._cdf_lists
        state = self.initial_state
        lex, weights = [0], [1.0]
        for h in range(horizon):
            obs = bisect_right(emission[h][state], uniforms[3 * h])
            table, index = policy._rows(space, h + 1, lex[h] * space.n_obs + obs)
            if table.probs.shape[1] != space.n_actions:  # else an action past the space's could be drawn and recorded
                raise StructuralError(f"policy has {table.probs.shape[1]} actions, space has {space.n_actions}")
            row = table.rows[index]
            if row is None:
                raise StructuralError(f"step {h + 1}: history inconsistent with every mixture sequence")
            probs, cdf = row
            action = bisect_right(cdf, uniforms[3 * h + 1])
            lex.append(lex[h] * space.pair_count + obs * space.n_actions + action)
            weights.append(weights[h] * probs[action])
            if h + 1 < horizon:
                state = bisect_right(transition[h][action][state], uniforms[3 * h + 2])
        return lex, weights

    def sample_episodes(self, policy: Policy, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Prefix lex indices and policy weights, ``(H+1, n)`` each, of one episode per seed.

        Column ``i`` is :meth:`sample_episode` on row ``i`` of
        :func:`first_uniforms` on the seeds.  Each step is drawn for all
        episodes at once, ``(cdf_rows <= u).sum(-1)`` being
        ``bisect_right`` on the non-decreasing CDF rows.  Policy rows are the
        :func:`reached_rows` gathers the weight tables read.  Single episodes (the
        online loop) use :meth:`sample_episode`, which costs far less.
        """
        space = self.space
        horizon = space.horizon
        uniforms = first_uniforms(seeds, 3 * horizon - 1)
        emission, transition = self._cdfs
        n = len(uniforms)
        lex = np.zeros((horizon + 1, n), dtype=np.int64)  # row h: lex indices of the length-h prefixes
        weights = np.ones((horizon + 1, n))  # row h: policy weights of the length-h prefixes
        state = np.full(n, self.initial_state)
        for h in range(horizon):
            obs = _inverse_cdf(emission[h][state], uniforms[:, 3 * h])
            probs = reached_rows(policy, space, h + 1, lex[h] * space.n_obs + obs)
            actions = _inverse_cdf(cumulative_rows(probs), uniforms[:, 3 * h + 1])
            weights[h + 1] = weights[h] * probs[np.arange(n), actions]
            lex[h + 1] = lex[h] * space.pair_count + obs * space.n_actions + actions
            if h + 1 < horizon:
                state = _inverse_cdf(transition[h][actions, state], uniforms[:, 3 * h + 2])
        return lex, weights

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "S": self.n_states,
            "O": self.space.n_obs,
            "A": self.space.n_actions,
            "H": self.space.horizon,
            "T": self.transition.tolist(),
            "Obs": self.emission.tolist(),
            "s1": self.initial_state,
            "reward": self.reward.table.tolist(),
        }


def _check_tables(
    n_states: int, space: ObsActSpace, initial_state: int, transition: np.ndarray, emission: np.ndarray
) -> None:
    """Refuse a stack of environment tables, ``(C, H-1, A, S, S)`` and ``(C, H, S, O)``.

    Every member needs the shapes of ``space`` and ``n_states`` and rows
    that are probability vectors, and ``initial_state`` must be a state.
    The error is the first one :class:`TabularPomdp` raises for the first
    member that has one.
    """
    S, H, A, O = n_states, space.horizon, space.n_actions, space.n_obs
    if transition.shape[1:] != (H - 1, A, S, S):
        raise StructuralError(f"transition shape {transition.shape[1:]} != {(H - 1, A, S, S)}")
    if emission.shape[1:] != (H, S, O):
        raise StructuralError(f"emission shape {emission.shape[1:]} != {(H, S, O)}")
    if not 0 <= initial_state < S:
        raise StructuralError("initial state out of range")
    faults = []  # (message, flag per member), in the order a single environment is checked
    for name, arr in (("transition", transition), ("emission", emission)):
        if arr.size:
            rows = arr.reshape(len(arr), -1, arr.shape[-1])
            # Negated comparisons, so that NaN fails them too (an infinite entry breaks the row sum).
            faults.append((f"{name} has negative or NaN entries", ~(rows.min(axis=(1, 2)) >= 0)))
            faults.append((f"{name} rows must sum to 1", ~(np.abs(rows.sum(axis=-1) - 1.0).max(axis=1) <= ROW_SUM_TOL)))
    flags = np.array([flag for _, flag in faults])  # (check, member)
    bad = np.flatnonzero(flags.any(axis=0))
    if bad.size:
        raise StructuralError(faults[flags[:, bad[0]].argmax()][0])


def _inverse_cdf(cdf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row, the first index whose cumulative probability exceeds the row's uniform."""
    return (cdf_rows <= uniforms[:, None]).sum(axis=1)


def pomdp_from_dict(data: dict) -> TabularPomdp:
    """The environment that ``to_dict`` writes as ``data``.

    A missing or ill-typed key raises :class:`StructuralError` naming it.
    """
    if not isinstance(data, dict):
        raise StructuralError(f"an environment must be an object, got {type(data).__name__}")
    missing = [key for key in ("S", "O", "A", "H", "T", "Obs", "s1", "reward") if key not in data]
    if missing:
        raise StructuralError(f"environment is missing {', '.join(map(repr, missing))}")
    check_numbers({f"environment key {key!r}": data[key] for key in ("S", "O", "A", "H", "s1")}, {})
    arrays = {}
    for key in ("T", "Obs", "reward"):
        try:
            arrays[key] = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError) as exc:  # a string, or ragged or nested wrongly
            raise StructuralError(f"environment key {key!r} must be an array of numbers: {exc}") from exc
    space = ObsActSpace(data["O"], data["A"], data["H"])
    return TabularPomdp(data["S"], space, arrays["T"], arrays["Obs"], data["s1"], RewardTable(arrays["reward"]))


# -- dynamics matrices and core tests ---------------------------------------


def dynamics_matrix(pomdp: TabularPomdp, h: int) -> np.ndarray:
    """Histories-by-futures matrix of joint probabilities at step ``h``, read-only.

    Rows are length-``h`` histories and columns full futures, both in
    lexicographic order; the entry is the joint probability of the spliced
    trajectory's observations given its actions.  Leaves are ordered
    history-major, so this is the leaf table reshaped.
    """
    return pomdp.prob_table(pomdp.space.horizon).reshape(pomdp.space.n_histories(h), -1)


# -- m-step emission-action matrices ----------------------------------------


def window_tests(space: ObsActSpace, state_step: int, m: int) -> list[Future]:
    """Short tests from ``state_step``: min(m, H - state_step + 1) obs, one fewer action, in lex order."""
    t = min(m, space.horizon - state_step + 1)
    digits = [range(space.n_obs) if k % 2 == 0 else range(space.n_actions) for k in range(2 * t - 1)]
    return [Future(state_step - 1, test[0::2], test[1::2]) for test in product(*digits)]


@dataclass(frozen=True, eq=False)
class GMatrices:
    """Per-step test-probability matrices over hidden states.

    ``matrices[h-1]`` has one row per window test whose first observation is
    emitted at step ``h`` and one column per hidden state.  Compares by identity.
    """

    m: int
    tests: tuple[tuple[Future, ...], ...]  # tests[h-1]: the window tests of state step h = 1..H
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        # Read-only copies, since the cached singular values derive from them.
        object.__setattr__(self, "matrices", tuple(_read_only_copy(G) for G in self.matrices))

    @cached_property
    def singular_values(self) -> tuple[np.ndarray, ...]:
        """Each matrix's singular values, read-only: taken once for the decodability value and the conversion."""
        svals = tuple(np.linalg.svd(G, compute_uv=False) for G in self.matrices)
        for s in svals:
            s.setflags(write=False)
        return svals


def _walk_tests(transition: np.ndarray, emission: np.ndarray, tests: Sequence[Future], state_step: int) -> np.ndarray:
    """``test_probs`` of every member of a stack of tables: ``(C, n_tests, S)``.

    ``transition`` is ``(C, H-1, A, S, S)`` and ``emission`` ``(C, H, S, O)``.
    The tests share one length and are walked backwards together, one
    stacked matrix-vector product per step: ``v <- emission * (T[a] @ v)``.
    Each product has one member's shapes, so a member's rows carry the
    bits it has walked alone.
    """
    lengths = {len(t) for t in tests}
    if len(lengths) != 1 or 0 in lengths:
        raise StructuralError(f"tests must share one positive length, got lengths {sorted(lengths)}")
    (length,) = lengths
    if not 1 <= state_step <= emission.shape[1] - length + 1:
        raise StructuralError(f"a {length}-step test from step {state_step} runs past the horizon")
    obs = np.array([t.obs for t in tests])
    acts = np.array([t.acts[: length - 1] for t in tests]).reshape(len(tests), length - 1)
    by_obs = emission.swapaxes(-1, -2)  # (C, H, O, S)
    v = by_obs[:, state_step + length - 2][:, obs[:, -1]]
    for j in range(length - 2, -1, -1):
        step = state_step + j
        moved = (transition[:, step - 1][:, acts[:, j]] @ v[..., None])[..., 0]
        v = by_obs[:, step - 1][:, obs[:, j]] * moved
    return v


def g_matrices(pomdp: TabularPomdp, m: int) -> GMatrices:
    """Exact window-test probability matrices for every state step, one :meth:`~TabularPomdp.test_probs` walk each.

    Built on the environment's first call for window ``m`` and cached in it,
    so a window's matrices and singular values are computed once.
    """
    g = pomdp._windows.get(m)
    if g is None:
        tests = _window_test_sets(pomdp.space, m)
        mats = tuple(pomdp.test_probs(step_tests, h) for h, step_tests in enumerate(tests, start=1))
        g = pomdp._windows[m] = GMatrices(m, tests, mats)
    return g


def _window_test_sets(space: ObsActSpace, m: int) -> tuple[tuple[Future, ...], ...]:
    """The window tests of every state step h = 1..H."""
    if m < 1:
        raise StructuralError("window length m must be >= 1")
    return tuple(tuple(window_tests(space, h, m)) for h in range(1, space.horizon + 1))


def decodability_alpha(g: GMatrices) -> float:
    """Smallest S-th singular value over the per-step test matrices."""
    n_states = g.matrices[0].shape[1]
    return min(float(s[n_states - 1]) if len(s) >= n_states else 0.0 for s in g.singular_values)


# -- POMDP -> PSR construction ----------------------------------------------


def pomdp_to_psr(pomdp: TabularPomdp, g: GMatrices) -> PsrModel:
    """Build the predictive-state representation of a tabular POMDP.

    The core tests are the window tests of ``g`` (from :func:`g_matrices`),
    and the parameters come from pseudo-inverting its full-column-rank test
    matrices: :func:`_family_psrs` of the environment alone, whose error
    for it is raised.
    """
    core = make_core_test_set(pomdp.space, list(g.tests))
    mats = [G[None] for G in g.matrices]
    svals = [s[None] for s in g.singular_values]
    stack, (error,) = _family_psrs(pomdp.initial_state, pomdp.transition[None], pomdp.emission[None], core, mats, svals)
    if error is not None:
        raise error
    return stack.members()[0]


def convert_family(
    env: TabularPomdp, transition: np.ndarray, emission: np.ndarray, core: CoreTestSet
) -> tuple[PsrStack, list[PsrLabError | None]]:
    """PSRs on the core tests ``core`` of a stack of tables, ``(C, H-1, A, S, S)`` and ``(C, H, S, O)``.

    Member ``c`` is ``env`` with the tables ``transition[c]`` and
    ``emission[c]``, and ``core`` holds window tests of ``env``'s space,
    such as the truth's from :func:`default_psr`; every member shares that
    one object.  Returns the stacked parameters of every member and each
    member's error: None when ``pomdp_to_psr(member, g_matrices(member,
    m))``, at the window ``m`` of ``core``, returns a model, whose arrays
    are then, bit for bit, member ``c`` of the stack, and otherwise the
    :class:`SingularCoreTests` or :class:`StructuralError` it raises (that
    member's parameters in the stack mean nothing).  Tables that
    :class:`TabularPomdp` refuses raise its error at once.
    """
    _check_tables(env.n_states, env.space, env.initial_state, transition, emission)
    if core.space != env.space:
        raise StructuralError(f"core tests on {core.space} for an environment on {env.space}")
    mats = [_walk_tests(transition, emission, tests, h) for h, tests in enumerate(core.tests, start=1)]
    svals = [np.linalg.svd(G, compute_uv=False) for G in mats]
    return _family_psrs(env.initial_state, transition, emission, core, mats, svals)


def _family_psrs(
    initial_state: int,
    transition: np.ndarray,
    emission: np.ndarray,
    core: CoreTestSet,
    mats: Sequence[np.ndarray],
    svals: Sequence[np.ndarray],
) -> tuple[PsrStack, list[PsrLabError | None]]:
    """The stacked PSR parameters of a stack of tables, and the error each member's conversion gives.

    ``mats`` holds each state step's ``(C, n_tests, S)`` matrices of the
    window tests in ``core``, from :func:`_walk_tests`, and ``svals`` their
    ``(C, k)`` singular values.  The members share ``core``.
    Each step checks every member's S-th singular value at once and
    pseudo-inverts with one stacked ``pinv``, and the operators of every
    (member, o, a) come from one pair of matmuls.  Every product keeps one
    member's matrix shapes and layouts, only adding batch axes, so a member
    gets the bits of its conversion alone.  A member whose test matrix at
    some step has condition above ``MAX_CONDITION`` gets
    :class:`SingularCoreTests` for the first such step, and one with a fault
    (:meth:`PsrStack.faults`, checked once for the whole stack) gets that as
    a :class:`StructuralError`; a valid member's error is None.
    """
    space = core.space
    n_states = emission.shape[2]
    errors: list[PsrLabError | None] = [None] * len(emission)
    pinvs = []
    for h, (G, s) in enumerate(zip(mats, svals), start=1):
        smin = s[:, n_states - 1] if s.shape[1] >= n_states else np.zeros(len(G))
        with np.errstate(divide="ignore", invalid="ignore"):  # smin = 0 is already singular
            singular = (smin <= 0) | (s[:, 0] / smin > MAX_CONDITION)
        for c in np.flatnonzero(singular):
            if errors[c] is None:
                errors[c] = SingularCoreTests(f"test matrix at step {h} has condition > {MAX_CONDITION:g}")
        if h < space.horizon:  # the last step's operators are indicator rows
            pinvs.append(np.linalg.pinv(G, rcond=PINV_RCOND))
    ones = np.ones(n_states)
    M, phi = [], []
    for h in range(1, space.horizon):
        # Operator (o, a) sends the pre-emission belief at step h to step h + 1: T[a].T scaled by
        # the emission column of o, each matrix laid out as that transposed view lays it out.
        emit = emission[:, h - 1].swapaxes(-1, -2)[:, :, None, :, None]  # (C, O, 1, S, 1)
        t_ops = (transition[:, h - 1, None] * emit).swapaxes(-1, -2)  # (C, O, A, S, S)
        M.append((mats[h][:, None, None] @ t_ops) @ pinvs[h - 1][:, None, None])
        phi.append(pinvs[h - 1].swapaxes(-1, -2) @ ones)
    # Final step: the window tests there are the single next observations, so
    # the last matrices reduce to exact indicator rows (anchored closing).
    n_members, d_last = mats[-1].shape[:2]
    terminal = np.zeros((n_members, space.n_obs, space.n_actions, 1, d_last))
    for o in range(space.n_obs):
        terminal[:, o, :, 0, o] = 1.0
    M.append(terminal)
    phi += [np.ones((n_members, d_last)), np.ones((n_members, 1))]
    e0 = np.zeros(n_states)
    e0[initial_state] = 1.0
    stack = PsrStack(space, core, mats[0] @ e0, tuple(M), tuple(phi))
    for c, fault in enumerate(stack.faults()):
        if errors[c] is None and fault is not None:
            errors[c] = StructuralError(fault)
    return stack, errors


def default_psr(pomdp: TabularPomdp) -> tuple[PsrModel, GMatrices]:
    """PSR via the smallest window whose decodability value exceeds ``ALPHA_FLOOR``.

    Converted on the environment's first call and cached in it: every call
    returns the same model and matrices.  A failure is not cached; each
    call raises :class:`SingularCoreTests` again, from the cached windows.
    """
    if pomdp._psr is not None:
        return pomdp._psr
    last_alpha = 0.0
    for m in range(1, pomdp.space.horizon + 1):
        g = g_matrices(pomdp, m)
        last_alpha = decodability_alpha(g)
        if last_alpha > ALPHA_FLOOR:
            object.__setattr__(pomdp, "_psr", (pomdp_to_psr(pomdp, g=g), g))  # frozen, so set as in __post_init__
            return pomdp._psr
    raise SingularCoreTests(f"no decodable window up to m=H (best alpha {last_alpha:.3g})")


# -- builtin environments ----------------------------------------------------


def _scaled_reward(raw: np.ndarray) -> RewardTable:
    total = raw.max(axis=(1, 2)).sum()
    return RewardTable(raw / total if total > 0 else raw)


def random_revealing(
    seed: int,
    n_states: int,
    n_obs: int,
    n_actions: int,
    horizon: int,
    dirichlet_conc: float = 1.0,
    alpha_threshold: float = 0.1,
    max_draws: int = 1000,
) -> TabularPomdp:
    """Random POMDP whose single-step test matrices are well separated.

    Draws transition and emission rows from a Dirichlet and rejects until
    the one-step decodability value is at least ``alpha_threshold``.
    """
    if n_obs < n_states:
        raise StructuralError("revealing construction requires n_obs >= n_states")
    space = ObsActSpace(n_obs, n_actions, horizon)
    for attempt in range(max_draws):
        rng = rng_for(seed, "random_revealing", attempt)
        conc = dirichlet_conc
        transition = rng.dirichlet(np.full(n_states, conc), size=(horizon - 1, n_actions, n_states))
        emission = rng.dirichlet(np.full(n_obs, conc), size=(horizon, n_states))
        raw = rng.random((horizon, n_obs, n_actions))
        pomdp = TabularPomdp(n_states, space, transition, emission, 0, _scaled_reward(raw))
        if decodability_alpha(g_matrices(pomdp, 1)) >= alpha_threshold:
            return pomdp
    raise RejectionBudgetExhausted(
        f"no draw reached one-step alpha >= {alpha_threshold} in {max_draws} attempts"
    )


def tiger(horizon: int) -> TabularPomdp:
    """Two hidden tiger positions, noisy directional hearing, three actions.

    Observations are what listening reveals (hear-left / hear-right, 85%
    accurate).  Opening the door away from the heard side pays; listening
    pays a small amount.  The tiger drifts between steps so beliefs stay
    informative.
    """
    space = ObsActSpace(2, 3, horizon)
    stay = np.array([[0.9, 0.1], [0.1, 0.9]])
    shuffle = np.full((2, 2), 0.5)
    transition = np.stack(
        [np.stack([stay, shuffle, shuffle]) for _ in range(horizon - 1)]
    ) if horizon > 1 else np.zeros((0, 3, 2, 2))
    emission = np.stack([np.array([[0.85, 0.15], [0.15, 0.85]]) for _ in range(horizon)])
    w = 1.0 / horizon
    step = np.array(
        [
            # actions: listen, open-left, open-right; obs: hear-left, hear-right
            [0.1 * w, 0.0, w],
            [0.1 * w, w, 0.0],
        ]
    )
    reward = RewardTable(np.stack([step for _ in range(horizon)]))
    return TabularPomdp(2, space, transition, emission, 0, reward)


def near_tie() -> TabularPomdp:
    """Two-step instance whose first-step decisions sit near value ties.

    Action 0 steers the hidden state toward the rewarding second
    observation but pays nothing now; action 1 pays immediately.  The two
    first-observation branches carry different immediate payments, so the
    two decision nodes have staggered net margins (about 0.105 and 0.036)
    between the long-run and the greedy action.  Useful for data-size
    sweeps: mild value pessimism flips these decisions until the data
    resolves them.
    """
    space = ObsActSpace(2, 2, 2)
    transition = np.array(
        [[
            [[0.9, 0.1], [0.5, 0.5]],
            [[0.6, 0.4], [0.4, 0.6]],
        ]]
    )
    emission = np.array(
        [
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.95, 0.05], [0.05, 0.95]],
        ]
    )
    reward = RewardTable(
        np.array(
            [
                [[0.0, 0.105], [0.0, 0.175]],
                [[0.78, 0.78], [0.0, 0.0]],
            ]
        )
    )
    return TabularPomdp(2, space, transition, emission, 0, reward)


def random_mdp(seed: int, n_states: int, n_actions: int, horizon: int) -> TabularPomdp:
    """Fully observable MDP encoded as a POMDP with identity emissions."""
    space = ObsActSpace(n_states, n_actions, horizon)
    rng = rng_for(seed, "random_mdp")
    transition = rng.dirichlet(np.ones(n_states), size=(horizon - 1, n_actions, n_states))
    emission = np.stack([np.eye(n_states) for _ in range(horizon)])
    raw = rng.random((horizon, n_states, n_actions))
    return TabularPomdp(n_states, space, transition, emission, 0, _scaled_reward(raw))


BUILTIN_ENVS = {
    "random_revealing": random_revealing,
    "tiger": tiger,
    "random_mdp": random_mdp,
    "near_tie": near_tie,
}
