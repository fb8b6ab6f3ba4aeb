"""Exact policy optimization by backward induction on the history tree.

The planner maximizes ``sum_traj weight(traj) * leaves[traj]`` over all
history-dependent policies, where ``weight`` is the policy's probability of
the trajectory's actions given its observations and ``leaves`` is a table
with one value per full trajectory in lexicographic order.  Callers build it from other
tables -- model probabilities times rewards, minus or plus bonuses, or
absolute model differences -- so one routine serves greedy planning,
optimistic/pessimistic planning, and max-policy total variation.
:func:`leaf_table` evaluates a per-trajectory function into such a table,
one call per leaf, building each leaf's history from the steps
``itertools.product`` yields (a ``RewardTable`` builds its own leaf table at once).

Deterministic policies attain the maximum (the objective is linear in each
conditional action distribution), and ties break toward the lowest action
index, so results are reproducible.  Each depth of the induction runs a few
long vector operations over strided slices of the value array (one slice
per action, then one per observation) rather than reductions along its
short axes.  A running ``np.maximum`` over the action slices gives the best
value per (node, observation), with the same bits, signed zeros included,
as a max over the action axis.  The choice starts as ``action 1 > action
0``, and a later action replaces it only where it is strictly larger.  Below 8
observations a node's value adds its observation columns left to right
from 0.0, numpy's own order for ``sum(axis=1)``; from 8 up it is that
reduction (see :func:`_column_sum`).  Either way it keeps its bits.  :func:`psrlab.psr.gamma` runs the same induction.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable

import numpy as np

from .errors import StructuralError
from .policies import DeterministicTreePolicy, Policy, action_dtype, policy_weight_vector
from .spaces import History, ObsActSpace


def leaf_table(space: ObsActSpace, leaf_fn: Callable[[History], float]) -> np.ndarray:
    """Evaluate a trajectory functional on every full history, in lex order."""
    return np.array([leaf_fn(History(steps)) for steps in product(space.pairs, repeat=space.horizon)])


def plan_on_table(space: ObsActSpace, leaves: np.ndarray) -> tuple[DeterministicTreePolicy, float]:
    """Backward induction over precomputed leaf values."""
    _check_leaves(space, leaves)
    n_obs, n_actions = space.n_obs, space.n_actions
    dtype = action_dtype(n_actions)  # the tree policy's storage type, so its tables are these arrays
    choices: list[np.ndarray] = []
    values = leaves
    for _ in range(space.horizon):
        best = values[0::n_actions]  # one entry per (node, obs), in lexicographic order
        choice = np.zeros(best.shape, dtype=dtype) if n_actions == 1 else None
        for a in range(1, n_actions):
            col = values[a::n_actions]
            greater = col > best  # strict: ties keep the lowest action
            choice = greater.astype(dtype) if a == 1 else np.where(greater, dtype.type(a), choice)
            best = np.maximum(best, col)
        choices.append(choice)
        values = _column_sum(best, n_obs)
    value = float(values[0])
    if math.isnan(value):  # maximum and sum carry a NaN leaf up to the root
        raise StructuralError("leaf values contain NaN (or infinities of both signs)")
    choices.reverse()
    # Every choice starts at 0 and only takes actions 1..A-1, so only the shapes need checking.
    return DeterministicTreePolicy._from_valid_tables(space, tuple(choices)), value


def _check_leaves(space: ObsActSpace, leaves: np.ndarray) -> None:
    if np.shape(leaves) != (space.n_trajectories,):
        raise StructuralError(f"expected {space.n_trajectories} leaf values, got shape {np.shape(leaves)}")


def _column_sum(values: np.ndarray, n: int) -> np.ndarray:
    """``values.reshape(-1, n).sum(axis=1)`` bit for bit.

    Below 8 columns numpy adds each row left to right from 0.0, so whole
    columns added in that order from 0.0 give the same bits without the
    per-row overhead of a reduction along a short axis.  From 8 columns up
    it is numpy's own reduction.
    """
    if n >= 8:
        return values.reshape(-1, n).sum(axis=1)
    total = values[0::n] + 0.0
    for j in range(1, n):
        total += values[j::n]
    return total


def policy_value_on_table(space: ObsActSpace, policy: Policy, leaves: np.ndarray) -> float:
    """sum_traj weight(traj) * leaves[traj] under ``policy``, exactly; the leaves are checked as in :func:`plan_on_table`."""
    _check_leaves(space, leaves)
    weights = policy_weight_vector(policy, space)
    return float(np.dot(weights, leaves))
