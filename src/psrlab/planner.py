"""Exact policy optimization by backward induction on the history tree.

The planner maximizes ``sum_traj weight(traj) * leaves[traj]`` over all
history-dependent policies, where ``weight`` is the policy's probability of
the trajectory's actions given its observations and ``leaves`` is a table
with one value per full trajectory in lexicographic order.  Callers build it from other
tables -- model probabilities times rewards, minus or plus bonuses, or
absolute model differences -- so one routine serves greedy planning,
optimistic/pessimistic planning, and max-policy total variation.
:func:`leaf_table` evaluates a per-trajectory function into such a table,
one call per leaf (a ``RewardTable`` builds its own leaf table at once).

Deterministic policies attain the maximum (the objective is linear in each
conditional action distribution), and ties break toward the lowest action
index, so results are reproducible.  Each depth of the induction walks the
action slices of the ``(nodes, obs, action)`` value block once: a running
``np.maximum`` gives the node values (the same bits, signed zeros included,
as a max over the action axis), and an action replaces the running choice
only where it is strictly larger.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import StructuralError
from .policies import DeterministicTreePolicy, Policy, action_dtype, policy_weight_vector
from .spaces import History, ObsActSpace, history_from_lex


def leaf_table(space: ObsActSpace, leaf_fn: Callable[[History], float]) -> np.ndarray:
    """Evaluate a trajectory functional on every full history, in lex order."""
    return np.array(
        [leaf_fn(history_from_lex(space, space.horizon, idx)) for idx in range(space.n_trajectories)]
    )


def plan_on_table(space: ObsActSpace, leaves: np.ndarray) -> tuple[DeterministicTreePolicy, float]:
    """Backward induction over precomputed leaf values."""
    if leaves.shape != (space.n_trajectories,):
        raise StructuralError(f"expected {space.n_trajectories} leaf values, got shape {leaves.shape}")
    values = leaves
    dtype = action_dtype(space.n_actions)  # the tree policy's storage type, so its tables are these arrays
    choices: list[np.ndarray] = []
    for _ in range(space.horizon):
        shaped = values.reshape(-1, space.n_obs, space.n_actions)
        best = shaped[:, :, 0]
        choice = np.zeros(best.shape, dtype=dtype)
        for a in range(1, space.n_actions):
            col = shaped[:, :, a]
            choice[col > best] = a  # strict: ties keep the lowest action
            best = np.maximum(best, col)
        choices.append(choice.reshape(-1))
        values = best.sum(axis=1)
    value = float(values[0])
    if math.isnan(value):  # maximum and sum carry a NaN leaf up to the root
        raise StructuralError("leaf values contain NaN (or infinities of both signs)")
    choices.reverse()
    # Every choice starts at 0 and only takes actions 1..A-1, so only the shapes need checking.
    return DeterministicTreePolicy._from_valid_tables(space, tuple(choices)), value


def policy_value_on_table(space: ObsActSpace, policy: Policy, leaves: np.ndarray) -> float:
    """sum_traj weight(traj) * leaves[traj] under ``policy``, exactly."""
    weights = policy_weight_vector(policy, space)
    return float(np.dot(weights, leaves))
