"""Per-history reference implementations of the environment's exact quantities.

These are the loops the package ran before the environment's quantities were
read from trajectory-tree tables: the forward recursion run once per
history, the backward walk run once per test, the dynamics matrix filled one
cell at a time, and histories and window tests decoded from their lex
indices (the package walks both with ``itertools.product``).  Tests compare
the tables and walks against them bit for bit.  The full futures (tests
that run to the horizon, one action per observation) index the dynamics
matrix's columns; the package itself only builds window tests.

:func:`psi`, :func:`seq_prob` and :func:`prediction_feature` read one
history's row of a model's state, probability and feature tables at its
lex index, as the model's per-history accessors did; the package itself
reads only whole tables and rows gathered at recorded lex indices.
"""

import math

import numpy as np

from psrlab.errors import DegenerateHistory, StructuralError
from psrlab.psr import PSI_GUARD
from psrlab.spaces import Future, History, enumerate_histories


def psi(model, history):
    """The history's state vector: its row of ``model.state_table``, read-only."""
    history.validate(model.space)
    return model.state_table(len(history))[history.lex_index(model.space)]


def seq_prob(model, history):
    """P(the history's observations | its actions) under ``model``: its entry of ``model.prob_table``."""
    history.validate(model.space)
    return float(model.prob_table(len(history))[history.lex_index(model.space)])


def prediction_feature(model, history):
    """The history's row of ``model.feature_table``; a degenerate history raises ``DegenerateHistory``.

    A history is degenerate when its probability is not above ``PSI_GUARD``;
    the model's cached mask must flag exactly those, and their rows are 0.0.
    """
    history.validate(model.space)
    h, idx = len(history), history.lex_index(model.space)
    feature = model.feature_table(h)[idx]
    degenerate = not model.prob_table(h)[idx] > PSI_GUARD
    assert model.degenerate_mask(h)[idx] == degenerate
    if degenerate:
        assert not feature.any()
        raise DegenerateHistory(f"history of length {h} has probability at most the guard")
    return feature


def history_from_lex(space, h, index):
    """Inverse of :meth:`History.lex_index` for length-``h`` histories, one ``divmod`` per step.

    The package walks histories with ``itertools.product``; this decode is the
    independent reference for that order.
    """
    steps = []
    for _ in range(h):
        index, pair = divmod(index, space.pair_count)
        steps.append(divmod(pair, space.n_actions))
    steps.reverse()
    return History(tuple(steps))


# (O, A, H) of the spaces the package's walks are checked on against the decode: a
# one-leaf tree, more actions than observations, three levels of depth, and an
# observation count with two digits.
LEX_ORDER_SPACES = [(1, 1, 3), (2, 3, 2), (3, 2, 4), (17, 2, 2)]


def python_int_steps(histories):
    """Whether every step of every history holds Python ``int``s, as the decode gives."""
    return all(type(x) is int for hist in histories for step in hist.steps for x in step)


def future_from_lex(space, start_step, index):
    """Full future of the remaining horizon, from its lexicographic index."""
    steps = history_from_lex(space, space.horizon - start_step, index).steps
    return Future(start_step, tuple(o for o, _ in steps), tuple(a for _, a in steps))


def oracle_window_tests(space, state_step, m):
    """Window tests from ``state_step``, each decoded from its lex index one digit at a time."""
    t = min(m, space.horizon - state_step + 1)
    sizes = [space.n_obs if k % 2 == 0 else space.n_actions for k in range(2 * t - 1)]
    tests = []
    for idx in range(space.n_obs**t * space.n_actions ** (t - 1)):
        digits = []
        for size in reversed(sizes):
            idx, d = divmod(idx, size)
            digits.append(d)
        digits.reverse()
        tests.append(Future(state_step - 1, tuple(digits[0::2]), tuple(digits[1::2])))
    return tests


def enumerate_futures(space, start_step):
    """All full futures from ``start_step`` in lexicographic order."""
    count = space.pair_count ** (space.horizon - start_step)
    return [future_from_lex(space, start_step, i) for i in range(count)]


def is_full(future):
    return len(future.acts) == len(future.obs)


def future_steps(future):
    """A full future's (obs, action) pairs."""
    if not is_full(future):
        raise StructuralError("short test has no complete (obs, action) pairing")
    return tuple(zip(future.obs, future.acts))


def oracle_pre_emission_belief(env, history):
    if len(history) >= env.space.horizon:
        raise StructuralError("no post-history state after the final step")
    v = np.zeros(env.n_states)
    v[env.initial_state] = 1.0
    for h, (o, a) in enumerate(history.steps, start=1):
        u = env.emission[h - 1, :, o] * v
        v = env.transition[h - 1, a].T @ u
    return v


def oracle_exact_traj_prob(env, history):
    history.validate(env.space)
    if len(history) == 0:
        return 1.0
    v = np.zeros(env.n_states)
    v[env.initial_state] = 1.0
    u = v
    for h, (o, a) in enumerate(history.steps, start=1):
        u = env.emission[h - 1, :, o] * v
        if h < env.space.horizon:
            v = env.transition[h - 1, a].T @ u
    return float(u.sum())


def oracle_test_prob_given_state(env, test, state_step):
    """P(test obs | state at ``state_step`` = s, test actions), one test at a time."""
    out = np.ones(env.n_states)
    for j in range(len(test.obs) - 1, -1, -1):
        step = state_step + j
        emit = env.emission[step - 1, :, test.obs[j]]
        if j == len(test.obs) - 1:
            out = emit.copy()
        else:
            out = emit * (env.transition[step - 1, test.acts[j]] @ out)
    return out


def oracle_dynamics_matrix(env, h):
    space = env.space
    rows = space.n_histories(h)
    cols = space.pair_count ** (space.horizon - h)
    out = np.empty((rows, cols))
    for i, hist in enumerate(enumerate_histories(space, h)):
        for j, fut in enumerate(enumerate_futures(space, h)):
            out[i, j] = oracle_exact_traj_prob(env, History(hist.steps + future_steps(fut)))
    return out


def oracle_reward_of(reward, trajectory):
    """Exactly rounded sum of the trajectory's step rewards."""
    return float(math.fsum(reward.table[h, o, a] for h, (o, a) in enumerate(trajectory.steps)))
