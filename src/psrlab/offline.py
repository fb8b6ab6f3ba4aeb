"""Offline pessimistic learning from a fixed behavior dataset.

Episodes are collected i.i.d. under a behavior policy, recorded as drawn
and split evenly at random into per-step buckets.  Selection and bonus
construction reuse the online machinery; the output policy maximizes
estimated value minus bonus (a lower confidence bound on the true value).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .bonus import BonusEvaluator
from .errors import StructuralError
from .estimation import CandidateSet, DatasetFamily, constrained_mle
from .online import _build_evaluator
from .planner import plan_on_table, policy_value_on_table
from .policies import DeterministicTreePolicy, Policy, prefix_weight_tables, weight_steps
from .pomdp import TabularPomdp
from .psr import CoreTestSet, PsrModel
from .seeding import child_seeds, rng_for
from .spaces import check_numbers


@dataclass(frozen=True)
class OfflineConfig:
    p_min: float
    beta: float
    lam: float
    alpha: float

    def __post_init__(self) -> None:
        check_numbers({}, {name: getattr(self, name) for name in ("p_min", "beta", "lam", "alpha")})
        for name in ("p_min", "beta", "lam", "alpha"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise StructuralError(f"{name} must be positive")


def collect_offline(env: TabularPomdp, behavior: Policy, n_episodes: int, seed: int) -> DatasetFamily:
    """Sample i.i.d. episodes and split them evenly across step buckets.

    The bucket assignment is a seeded shuffle of the balanced pattern
    0,1,...,H-1,0,1,..., so bucket sizes differ by at most one.  Episode
    ``i`` is drawn from its own child seed; all episodes are drawn in one
    batched pass, entry for entry what ``sample_episode`` gives, and
    appended as drawn.
    """
    space = env.space
    check_numbers({"n_episodes": n_episodes}, {})
    if n_episodes < space.horizon:
        raise StructuralError("need at least H episodes for a full split")
    assignment = np.arange(n_episodes) % space.horizon
    rng_for(seed, "offline-split").shuffle(assignment)
    dataset = DatasetFamily(space)
    lex, weights = env.sample_episodes(behavior, child_seeds(seed, "offline-episode", range(n_episodes)))
    dataset.add_batch(lex, weights, assignment)
    return dataset


def ensure_behavior_coverage(behavior: Policy, core_tests: CoreTestSet) -> float:
    """Reject behavior policies that miss an exploration sequence entirely.

    Returns the minimum exploration probability when it is positive.
    """
    iota = min_exploration_prob(behavior, core_tests)
    if iota <= 0.0:
        raise StructuralError("behavior policy gives zero probability to an exploration sequence")
    return iota


def min_exploration_prob(behavior: Policy, core_tests: CoreTestSet) -> float:
    """Worst-case probability the behavior policy emits any exploration sequence.

    For each step's exploration set, minimizes over every positive-weight
    branch of earlier observations and actions, and within the sequence over
    its observation branches; observation-independent behavior policies
    reduce to a product of action probabilities.  Reads the policy's weight
    pass: below the positive entries of :func:`prefix_weight_tables`, the
    :func:`weight_steps` products after ``len(seq)`` steps at the actions
    ``seq``.  A reached history no mixture sequence matches raises
    :class:`StructuralError`, as in every weight pass.
    """
    space = core_tests.space
    worst = 1.0
    for h, prefix_weights in zip(range(space.horizon), prefix_weight_tables(behavior, space)):
        seqs = [seq for seq in core_tests.exploration_seqs[h] if seq]
        if not seqs:
            continue
        reached = np.flatnonzero(prefix_weights > 0.0)
        for n, weights in zip(range(max(map(len, seqs)) + 1), weight_steps(behavior, space, h, reached)):
            by_step = weights.reshape(len(reached), *(space.n_obs, space.n_actions) * n)  # one axis per obs and action
            for seq in seqs:
                if len(seq) == n:  # every prefix and observation branch, at the sequence's actions
                    at_seq = by_step[(slice(None), *(axis for a in seq for axis in (slice(None), a)))]
                    worst = min(worst, float(at_seq.min(initial=math.inf)))
    return worst


def coverage_coefficient(env: TabularPomdp, target: Policy, behavior: Policy) -> float:
    """Largest prefix-probability ratio of target to behavior over all steps.

    Prefixes the environment cannot produce are skipped; a target-reachable
    prefix the behavior never produces sends the coefficient to infinity.
    """
    space = env.space
    worst = 1.0
    for h, (wt, wb) in enumerate(zip(prefix_weight_tables(target, space), prefix_weight_tables(behavior, space))):
        live = (env.prob_table(h) > 0.0) & (wt != 0.0)
        if np.any(wb[live] == 0.0):
            return math.inf
        if live.any():
            worst = max(worst, float((wt[live] / wb[live]).max()))
    return worst


@dataclass(frozen=True)
class OfflineResult:
    policy: DeterministicTreePolicy
    model: PsrModel
    pessimistic_value: float
    evaluator: BonusEvaluator


def run_psr_lcb(dataset: DatasetFamily, candidates: CandidateSet, config: OfflineConfig,
                reward_leaves: np.ndarray) -> OfflineResult:
    """Stable selection, bonus construction, and pessimistic planning."""
    mle = constrained_mle(candidates, dataset, config.p_min, config.beta)
    evaluator = _build_evaluator(mle.model, dataset, config.lam, config.alpha)
    space = mle.model.space
    probs = mle.model.prob_table(space.horizon)
    leaves = probs * (reward_leaves - evaluator.bonus_table())
    policy, value = plan_on_table(space, leaves)
    return OfflineResult(policy, mle.model, float(value), evaluator)


def offline_gap(
    env: TabularPomdp, true_model: PsrModel, target: Policy, learned: Policy
) -> float:
    """Exact value difference of the target over the learned policy."""
    space = env.space
    reward_leaves = env.reward.leaf_table(space)
    table = true_model.prob_table(space.horizon) * reward_leaves
    return float(
        policy_value_on_table(space, target, table) - policy_value_on_table(space, learned, table)
    )
