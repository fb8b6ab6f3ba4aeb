"""Online confidence-bound learning loop.

Each iteration collects one episode per step under the previous greedy
policy spliced with uniform exploration over that step's exploration
sequences, re-selects a model by stable constrained likelihood, scores
every trajectory with the bonus built from the selected model's features
over the collected data, and plans greedily against the bonus.  The loop
stops once the planned bonus value is at most half the accuracy target;
the loop body never touches the reward function.  The dataset records each
episode's lex indices and policy weights, not its policy.

Episode ``h`` of iteration ``k`` is drawn from the uniforms of its own child
seed, ``child_seed(seed, "episode", k * (H + 1) + h)``.  Those depend only on
the seed, so the loop draws them for ``EPISODE_BLOCK`` iterations at a time
in one :func:`first_uniforms` call, bit for bit the uniforms of one
``default_rng`` per episode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bonus import BonusEvaluator, prefix_grams
from .errors import EmptyFeasibleSet, StructuralError
from .estimation import CandidateSet, DatasetFamily, constrained_mle
from .planner import plan_on_table, policy_value_on_table
from .policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    Policy,
    UniformActionSeqPolicy,
    uniform_policy,
)
from .pomdp import TabularPomdp
from .psr import CoreTestSet, PsrModel
from .seeding import child_seeds, first_uniforms
from .spaces import check_numbers


EPISODE_BLOCK = 64  # iterations whose episode uniforms are drawn in one call


@dataclass(frozen=True)
class OnlineConfig:
    max_iterations: int
    epsilon: float
    delta: float
    p_min: float
    beta: float
    lam: float
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        check_numbers({name: getattr(self, name) for name in ("max_iterations", "seed")},
                      {name: getattr(self, name) for name in ("epsilon", "delta", "p_min", "beta", "lam", "alpha")})
        if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
            raise StructuralError("epsilon and delta must lie in (0, 1)")
        for name in ("p_min", "beta", "lam", "alpha"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise StructuralError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise StructuralError("need at least one iteration")


@dataclass(frozen=True)
class IterationLog:
    k: int
    candidate_id: int
    candidate_label: str
    feasible_size: int
    ucb_value: float
    bucket_sizes: tuple[int, ...]
    wall_clock: float
    terminated: bool


@dataclass(frozen=True)
class OnlineResult:
    final_policy: DeterministicTreePolicy | None
    logs: tuple[IterationLog, ...]
    dataset: DatasetFamily
    terminated: bool
    last_model: PsrModel | None = None
    last_evaluator: BonusEvaluator | None = None


def exploration_suffixes(core_tests: CoreTestSet) -> tuple[UniformActionSeqPolicy, ...]:
    """The uniform exploration policies from step ``h`` on, for ``h = 1..H``.

    They depend only on the core tests, so a run builds them once and every
    iteration shares their compiled rows.
    """
    space = core_tests.space
    return tuple(
        UniformActionSeqPolicy(space.n_actions, start_step=h, sequences=core_tests.exploration_seqs[h - 1])
        for h in range(1, space.horizon + 1)
    )


def _explore(prefix: Policy, h: int, suffixes: tuple[UniformActionSeqPolicy, ...]) -> Policy:
    if not 1 <= h <= len(suffixes):
        raise StructuralError(f"exploration step {h} outside [1, H]")
    if h == 1:
        return suffixes[0]
    return CompositePolicy(h, prefix, suffixes[h - 1])


def _episode_uniforms(seed: int, horizon: int, n_iterations: int) -> Iterator[list[float]]:
    """Each episode's uniforms, as a list, in draw order; drawn ``EPISODE_BLOCK`` iterations at a time."""
    for first in range(1, n_iterations + 1, EPISODE_BLOCK):
        iterations = range(first, min(first + EPISODE_BLOCK, n_iterations + 1))
        indices = [k * (horizon + 1) + h for k in iterations for h in range(1, horizon + 1)]
        yield from first_uniforms(child_seeds(seed, "episode", indices), 3 * horizon - 1).tolist()


def _build_evaluator(
    model: PsrModel, dataset: DatasetFamily, lam: float, alpha: float
) -> BonusEvaluator:
    """Grams of the selected model's features over the per-step buckets."""
    return BonusEvaluator(prefix_grams(model, dataset, lam), alpha, model)


def run_psr_ucb(
    env: TabularPomdp,
    config: OnlineConfig,
    candidates: CandidateSet,
    true_core_tests: CoreTestSet | None = None,
) -> OnlineResult:
    """Run the optimistic loop; returns nothing final if the budget runs out.

    The reward function is read only after termination, to extract the
    greedy output policy; exceeding ``max_iterations`` is a reported
    outcome, not an error.
    """
    space = env.space
    core = true_core_tests if true_core_tests is not None else candidates.models[0].core_tests
    suffixes = exploration_suffixes(core)
    dataset = DatasetFamily(space)
    previous: Policy = uniform_policy(space)
    logs: list[IterationLog] = []
    last_model = None
    last_evaluator = None
    terminated = False
    uniforms = _episode_uniforms(config.seed, space.horizon, config.max_iterations)
    for k in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        for h in range(1, space.horizon + 1):
            lex, weights = env.sample_episode(_explore(previous, h, suffixes), next(uniforms))
            dataset.add(lex, weights, h - 1)
        try:
            mle = constrained_mle(candidates, dataset, config.p_min, config.beta)
        except EmptyFeasibleSet as exc:
            raise EmptyFeasibleSet(f"iteration {k}: {exc}") from exc
        evaluator = _build_evaluator(mle.model, dataset, config.lam, config.alpha)
        leaves = mle.model.prob_table(space.horizon) * evaluator.bonus_table()
        greedy, ucb_value = plan_on_table(space, leaves)
        terminated = ucb_value <= config.epsilon / 2.0
        logs.append(
            IterationLog(
                k,
                mle.selected_id,
                mle.selected_label,
                len(mle.feasible_ids),
                float(ucb_value),
                tuple(len(cols.trajectory) for cols in dataset.columns),
                time.perf_counter() - started,
                terminated,
            )
        )
        last_model, last_evaluator = mle.model, evaluator
        if terminated:
            break
        previous = greedy
    dataset._selection = None  # the record served the loop's selections; the result need not hold it or the candidates
    final_policy = None
    if terminated:
        reward_leaves = env.reward.leaf_table(space)
        final_policy, _ = plan_on_table(space, last_model.prob_table(space.horizon) * reward_leaves)
    return OnlineResult(
        final_policy,
        tuple(logs),
        dataset,
        terminated,
        last_model,
        last_evaluator,
    )


def evaluate_output(
    env: TabularPomdp,
    true_model: PsrModel,
    final_model: PsrModel,
    final_policy: Policy,
) -> tuple[float, float]:
    """Exact suboptimality of the output policy and worst-policy model gap.

    Both by full enumeration: the gap compares the optimal value of the
    true model with the output policy's value; the model distance maximizes
    the policy-weighted absolute probability difference over all policies.
    """
    space = env.space
    reward_leaves = env.reward.leaf_table(space)
    true_table = true_model.prob_table(space.horizon)
    _, best_value = plan_on_table(space, true_table * reward_leaves)
    achieved = policy_value_on_table(space, final_policy, true_table * reward_leaves)
    gap = best_value - achieved
    diff = np.abs(final_model.prob_table(space.horizon) - true_table)
    _, max_tv = plan_on_table(space, diff)
    return float(gap), float(max_tv)
