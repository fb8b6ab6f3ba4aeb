"""Registered property suites: deterministic identities, inequality checks,
and Monte-Carlo event frequencies.

Deterministic checks must pass outright.  Probabilistic checks compare an
observed violation rate against its nominal level plus normal-approximation
slack at the 99% z value, so reruns with fresh seeds stay stable.  Each
likelihood event is one array comparison per dataset over the set's stack.
A bound that holds for every policy is checked on the worst one: both sides
are linear in the policy's trajectory weights, so backward induction on a
leaf table of per-trajectory terms (:func:`plan_on_table`) finds it, and no
policy is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .bonus import (
    BonusEvaluator,
    elliptical_potential_check,
    prefix_grams,
    transfer_score_check,
)
from .errors import DegenerateHistory, StructuralError
from .estimation import (
    NEG_INF,
    DatasetFamily,
    _perturbed_rows,
    _SelectionRecord,
    conditional_tv_diagnostic,
    constrained_mle,
    make_candidates,
)
from .online import OnlineConfig, _build_evaluator, _explore, exploration_suffixes, run_psr_ucb
from .offline import OfflineConfig, collect_offline, run_psr_lcb
from .planner import plan_on_table, policy_value_on_table
from .policies import Policy, uniform_policy
from .pomdp import (
    TabularPomdp,
    default_psr,
    dynamics_matrix,
    random_mdp,
    random_revealing,
    tiger,
)
from .psr import (
    CoreTestSet,
    PsrModel,
    PsrStack,
    check_self_consistency,
    conditional_update_violation,
    forward_step,
    gamma,
    hellinger_sq,
    psr_rank,
    terminal_anchor_violation,
)
from .seeding import child_seed, child_seeds, rng_for
from .spaces import History, check_numbers, enumerate_histories

Z_99 = 2.5758293035489004
DELTA = 0.05  # nominal violation level of the Monte-Carlo and confidence-bound suites
CORE_SEEDS = 4  # dithered model pairs of the tv-vs-estimation-error check

# Exploration collections drawn as one block, one batched draw per step, so
# memory does not grow with the seed count.
DRAW_BLOCK = 4


def wilson_slack(delta: float, n: int) -> float:
    return Z_99 * math.sqrt(delta * (1.0 - delta) / n)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    violation_rate: float | None = None
    allowed_rate: float | None = None


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            rate = ""
            if r.violation_rate is not None:
                rate = f" [violations {r.violation_rate:.3f} <= {r.allowed_rate:.3f}]"
            out.append(f"{status} {r.suite}/{r.name}: {r.detail}{rate}")
        return out


def reference_env() -> TabularPomdp:
    """The documented desk-scale instance used throughout the experiments."""
    return random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=2)


def small_builtin_envs() -> list[tuple[str, TabularPomdp]]:
    return [
        ("random_revealing(1,2,3,2,2)", random_revealing(1, 2, 3, 2, 2)),
        ("random_revealing(2,2,2,2,3)", random_revealing(2, 2, 2, 2, 3, alpha_threshold=0.05)),
        ("random_revealing(3,3,3,2,2)", random_revealing(3, 3, 3, 2, 2, alpha_threshold=0.05)),
        ("random_revealing(4,2,3,3,2)", random_revealing(4, 2, 3, 3, 2)),
        ("tiger(2)", tiger(2)),
        ("tiger(4)", tiger(4)),
        ("random_mdp(3,2,2,4)", random_mdp(3, 2, 2, 4)),
        ("random_mdp(4,3,3,2)", random_mdp(4, 3, 3, 2)),
        ("random_mdp(5,2,3,3)", random_mdp(5, 2, 3, 3)),
    ]


def brute_force_test_cond_prob(env: TabularPomdp, history: History, obs: tuple[int, ...], acts: tuple[int, ...]) -> float:
    """P(test observations | history, test actions) by future enumeration.

    Pads the window with action 0 and marginalizes the remaining
    observations through the exact forward recursion.
    """
    base = env.exact_traj_prob(history)
    if base <= 0.0:
        raise DegenerateHistory("conditioning on a zero-probability history")
    space = env.space
    h = len(history)
    t = len(obs)
    pad = space.horizon - h - t
    total = 0.0
    act_list = list(acts[: t - 1]) + [0] * (t - 1 - len(acts[: t - 1]))

    def extend_all(hist: History, depth: int) -> float:
        if depth == pad:
            return env.exact_traj_prob(hist)
        return math.fsum(extend_all(hist.extend(o, 0), depth + 1) for o in range(space.n_obs))

    spliced = history
    for j in range(t):
        a = act_list[j] if j < len(act_list) else 0
        spliced = spliced.extend(obs[j], a if j < t - 1 else (acts[j] if len(acts) == t else 0))
    total = extend_all(spliced, 0)
    return total / base


# -- deterministic suite -------------------------------------------------------


def run_core_identities(report: Report) -> None:
    suite = "core-identities"
    for name, env in small_builtin_envs():
        model, _ = default_psr(env)
        worst = 0.0
        for h in range(env.space.horizon + 1):
            worst = max(worst, float(np.abs(model.prob_table(h) - env.prob_table(h)).max()))
        report.add(
            CheckResult(suite, f"traj-prob[{name}]", worst <= 1e-8, f"max |psr - exact| = {worst:.2e}")
        )
        sc = check_self_consistency(model)
        report.add(CheckResult(suite, f"self-consistency[{name}]", sc <= 1e-9, f"violation {sc:.2e}"))
        anchor = terminal_anchor_violation(model)
        report.add(
            CheckResult(
                suite,
                f"terminal-anchor[{name}]",
                anchor is not None and anchor <= 1e-9,
                f"violation {anchor if anchor is not None else 'n/a'}",
            )
        )
        cu = conditional_update_violation(model)
        report.add(CheckResult(suite, f"feature-update[{name}]", cu <= 1e-9, f"violation {cu:.2e}"))
        ranks_ok = all(
            psr_rank(dynamics_matrix(env, h)) <= env.n_states for h in range(env.space.horizon)
        )
        report.add(CheckResult(suite, f"rank-bound[{name}]", ranks_ok, "rank(D_h) <= S"))
        probs = model.prob_table(env.space.horizon)
        most, least = plan_on_table(env.space, probs)[1], -plan_on_table(env.space, -probs)[1]
        total_ok = abs(most - 1.0) <= 1e-9 and abs(least - 1.0) <= 1e-9
        report.add(CheckResult(suite, f"total-mass[{name}]", total_ok, "sum pi * p = 1"))

    env = reference_env()
    model, _ = default_psr(env)
    worst = 0.0
    for h in range(env.space.horizon):
        feats = model.feature_table(h)
        probs = model.prob_table(h)
        for idx, hist in enumerate(enumerate_histories(env.space, h)):
            if probs[idx] <= 1e-12:
                continue
            for l, test in enumerate(model.core_tests.tests[h]):
                oracle = brute_force_test_cond_prob(env, hist, test.obs, test.acts)
                worst = max(worst, abs(feats[idx, l] - oracle))
    report.add(
        CheckResult(suite, "prediction-feature", worst <= 1e-9, f"max feature error {worst:.2e}")
    )

    # Step matrices stay bounded in the policy-maximized l1 sense.  A negated
    # coordinate direction has the same absolute images, so only +e_i is tried.
    q_over_gamma = model.core_tests.max_action_seqs / gamma(model)
    worst_ratio = 0.0
    for h in range(env.space.horizon):
        for x in np.eye(model.dims[h]):
            val = math.fsum(
                max(
                    float(np.abs(model.M[h][o, a] @ x).sum())
                    for a in range(env.space.n_actions)
                )
                for o in range(env.space.n_obs)
            )
            worst_ratio = max(worst_ratio, val)
    report.add(
        CheckResult(
            suite,
            "step-matrix-bound",
            worst_ratio <= q_over_gamma + 1e-9,
            f"max policy l1 mass {worst_ratio:.4f} <= Q/gamma {q_over_gamma:.4f}",
        )
    )

    # Model distance never exceeds the per-step estimation-error sum, under
    # every policy: both sides are linear in the trajectory weights, so one
    # plan on their per-trajectory difference finds the worst policy.  The
    # decomposition telescopes through a shared start vector, so the pairs
    # here differ only in transitions.
    H = env.space.horizon
    ok = True
    max_tv = 0.0
    for s in range(CORE_SEEDS):
        other, _ = default_psr(_transition_dithered(env, seed=100 + s, scale=0.3))
        diff = np.abs(other.prob_table(H) - model.prob_table(H))
        ok = ok and plan_on_table(env.space, diff - estimation_error_bound(other, model).sum(axis=0))[1] <= 1e-9
        max_tv = max(max_tv, plan_on_table(env.space, diff)[1])
    detail = f"every policy, {CORE_SEEDS} pairs: max tv {max_tv:.4f}, tv - bound {'<=' if ok else '>'} 1e-9"
    report.add(CheckResult(suite, "tv-vs-estimation-error", ok, detail))

    # Planner agrees with the exact policy evaluator.
    reward_leaves = env.reward.leaf_table(env.space)
    table = model.prob_table(env.space.horizon) * reward_leaves
    policy, value = plan_on_table(env.space, table)
    revalue = policy_value_on_table(env.space, policy, table)
    report.add(
        CheckResult(
            suite,
            "planner-evaluator-agreement",
            abs(value - revalue) <= 1e-12,
            f"|plan - evaluate| = {abs(value - revalue):.2e}",
        )
    )


def _transition_dithered(env: TabularPomdp, seed: int, scale: float) -> TabularPomdp:
    """Copy of the environment with perturbed transitions and intact emissions."""
    noisy = _perturbed_rows(env.transition, scale, rng_for(seed, "transition-dither"))
    return TabularPomdp(env.n_states, env.space, noisy, env.emission, env.initial_state, env.reward)


def estimation_error_bound(model_hat: PsrModel, model: PsrModel) -> np.ndarray:
    """Per-step, per-trajectory absolute estimation errors, whose policy-weighted sum dominates the model distance.

    Row ``h - 1`` of the ``(H, n_trajectories)`` result holds each
    trajectory's step-``h`` term
    ``|phi_H' M_H' ... M_{h+1}' (M_h' - M_h) psi(prefix)|``, primes marking
    ``model_hat``.  One pass per step carries every prefix's error vector
    through the estimated step matrices to the leaves.
    """
    H = model.space.horizon
    terms = np.empty((H, model.space.n_trajectories))
    for h in range(1, H + 1):
        vecs = forward_step(model_hat.M[h - 1] - model.M[h - 1], model.state_table(h - 1))
        for j in range(h + 1, H + 1):
            vecs = forward_step(model_hat.M[j - 1], vecs)
        np.abs((vecs[:, None] @ model_hat.phi[H])[:, 0], out=terms[h - 1])  # one dot product per leaf, as phi @ v
    return terms


# -- inequality suite ----------------------------------------------------------


def run_lemma_checks(report: Report, seeds: int = 100) -> None:
    suite = "lemmas"
    tv_viol = 0
    cond_viol = 0
    for s in range(seeds):
        rng = rng_for(s, "tv-hellinger")
        n = int(rng.integers(2, 12))
        P = rng.random(n) * 1.5
        Q = rng.random(n) * 1.5
        tv = float(np.abs(P - Q).sum())
        h2 = 0.5 * float(((np.sqrt(P) - np.sqrt(Q)) ** 2).sum())
        if tv * tv > 4.0 * (P.sum() + Q.sum()) * h2 + 1e-9:
            tv_viol += 1
        # Conditional-to-joint comparison for proper distributions.
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        Px = rng.dirichlet(np.ones(nx))
        Qx = rng.dirichlet(np.ones(nx))
        Pyx = rng.dirichlet(np.ones(ny), size=nx)
        Qyx = rng.dirichlet(np.ones(ny), size=nx)
        lhs = float(
            np.sum(Px[:, None] * (np.sqrt(Pyx) - np.sqrt(Qyx)) ** 2) * 0.5
        )
        joint_h2 = 0.5 * float(
            ((np.sqrt(Pyx * Px[:, None]) - np.sqrt(Qyx * Qx[:, None])) ** 2).sum()
        )
        if lhs > 8.0 * joint_h2 + 1e-9:
            cond_viol += 1
    report.add(
        CheckResult(suite, "tv-hellinger", tv_viol == 0, f"{tv_viol}/{seeds} violations")
    )
    report.add(
        CheckResult(suite, "hellinger-conditional", cond_viol == 0, f"{cond_viol}/{seeds} violations")
    )

    viol = 0
    for s in range(seeds):
        rng = rng_for(s, "transfer")
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12))
        X = rng.standard_normal((n, dim))
        Y = X + 0.3 * rng.standard_normal((n, dim))
        subset = [i for i in range(n) if rng.random() < 0.7]
        lam = float(rng.uniform(0.1, 2.0))
        _, _, holds = transfer_score_check(X, Y, subset, lam)
        if not holds:
            viol += 1
    report.add(CheckResult(suite, "transfer-score", viol == 0, f"{viol}/{seeds} violations"))

    viol = 0
    for s in range(seeds):
        rng = rng_for(s, "elliptical")
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 1000))
        X = rng.standard_normal((n, dim))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        X = X / np.maximum(norms, 1.0)  # keep vectors inside the unit ball
        lam = float(rng.uniform(0.5, 2.0))
        B = float(rng.uniform(0.5, 3.0))
        _, _, holds = elliptical_potential_check(X, lam, B)
        if not holds:
            viol += 1
    report.add(CheckResult(suite, "elliptical-potential", viol == 0, f"{viol}/{seeds} violations"))


# -- Monte-Carlo event suite ----------------------------------------------------


def _uniform_explorers(core_tests: CoreTestSet) -> tuple[Policy, ...]:
    """The exploration policy of each step ``h = 1..H`` under a uniform prefix.

    Built once per suite run, so every collection shares their compiled rows.
    """
    prefix, suffixes = uniform_policy(core_tests.space), exploration_suffixes(core_tests)
    return tuple(_explore(prefix, h, suffixes) for h in range(1, len(suffixes) + 1))


def _uniform_collections(
    env: TabularPomdp, explorers: tuple[Policy, ...], n_rounds: int, seeds: Sequence[int]
) -> Iterator[DatasetFamily]:
    """Exploration-style collections under a fixed uniform prefix policy, one per seed, in seed order.

    ``explorers`` are the :func:`_uniform_explorers` of the core tests.
    Round ``k`` of a collection draws one episode per step ``h`` from its
    own child seed, under ``explorers[h - 1]``, into bucket ``h - 1``.  For
    ``DRAW_BLOCK`` collections at a time, each step's episodes are drawn in
    one batch and added to each collection's dataset in round order.
    """
    space = env.space
    for start in range(0, len(seeds), DRAW_BLOCK):
        block = seeds[start : start + DRAW_BLOCK]
        datasets = [DatasetFamily(space) for _ in block]
        for h, policy in enumerate(explorers, start=1):
            rounds = [k * (space.horizon + 1) + h for k in range(1, n_rounds + 1)]
            episode_seeds = np.concatenate([child_seeds(seed, "verify-episode", rounds) for seed in block])
            lex, weights = env.sample_episodes(policy, episode_seeds)
            for c, dataset in enumerate(datasets):
                columns = slice(c * n_rounds, (c + 1) * n_rounds)
                dataset.add_batch(lex[:, columns], weights[:, columns], np.full(n_rounds, h - 1))
        yield from datasets


def _prefix_logliks(stack: PsrStack, dataset: DatasetFamily) -> np.ndarray:
    """Each member's sum of log(prefix probability x weight) over the entries, one gather per bucket; -inf if one is <= 0."""
    probs = np.concatenate([stack.prob_table(h).take(cols.prefix, axis=1) * cols.prefix_weight
                            for h, cols in enumerate(dataset.columns)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logliks = np.log(probs).sum(axis=1)
    logliks[(probs <= 0.0).any(axis=1)] = NEG_INF
    return logliks


def _hellinger_sums(models: Sequence[PsrModel], reference: PsrModel, policies: Sequence[Policy], n: int) -> np.ndarray:
    """Each model's ``math.fsum`` of ``n`` Hellinger distances from ``reference`` under each bucket's policy."""
    distances = [[hellinger_sq(model, reference, policy) for policy in policies] for model in models]
    return np.array([math.fsum(row * n) for row in distances])


def run_mle_events(report: Report, seeds: int = 200) -> None:
    suite = "mle-events"
    env = reference_env()
    cands = make_candidates(env, "dithered", seed=77, n=8, scale=0.08)
    stack, truth = cands.stack, cands.labels.index("true")
    true_model = cands.models[truth]
    n_rounds, n_cands = 12, len(cands)
    log_term = math.log(n_rounds * n_cands / DELTA)
    p_min = DELTA / (n_rounds * env.space.horizon * float(env.space.pair_count) ** env.space.horizon)
    viol = {"loglik-margin": 0, "conditional-tv": 0, "hellinger": 0, "p-min-feasible": 0}
    explorers = _uniform_explorers(true_model.core_tests)
    # Every collection holds n_rounds entries per bucket, so each candidate's Hellinger sum is the same for every seed.
    hellinger = _hellinger_sums(cands.models, true_model, explorers, n_rounds)
    datasets = _uniform_collections(env, explorers, n_rounds, [child_seed(s, "mle-event") for s in range(seeds)])
    for dataset in datasets:
        # One read over the stack gives every candidate's p_min stability and log-likelihood.
        stable, liks = _SelectionRecord(cands, p_min, n_cands, env.space.horizon).read(stack.prob_table, dataset)
        prefix_liks = _prefix_logliks(stack, dataset)
        margin_ok = not (
            (liks - 3.0 * log_term > liks[truth]).any() or (prefix_liks - 3.0 * log_term > prefix_liks[truth]).any()
        )
        gap = np.full(n_cands, math.inf)  # a candidate that cannot produce the data is infinitely far behind
        np.subtract(liks[truth], liks, out=gap, where=liks > NEG_INF)
        ids = np.flatnonzero(stable)
        lhs = conditional_tv_diagnostic(stack.take(ids), true_model, dataset, explorers)
        cond_ok = not (lhs > 6.0 * gap[ids] + 31.0 * log_term + 1e-9).any()
        hell_ok = not (hellinger > 0.5 * gap + 2.0 * log_term + 1e-9).any()
        viol["loglik-margin"] += 0 if margin_ok else 1
        viol["conditional-tv"] += 0 if cond_ok else 1
        viol["hellinger"] += 0 if hell_ok else 1
        viol["p-min-feasible"] += 0 if stable[truth] else 1
    allowed = DELTA + wilson_slack(DELTA, seeds)
    for name, count in viol.items():
        rate = count / seeds
        report.add(
            CheckResult(
                suite,
                name,
                rate <= allowed,
                f"{count}/{seeds} violating seeds",
                violation_rate=rate,
                allowed_rate=allowed,
            )
        )


# -- confidence-bound validity ---------------------------------------------------


def _validity_run_online(seed: int, env, true_model, cands, params) -> tuple[PsrModel, BonusEvaluator]:
    cfg = OnlineConfig(max_iterations=10, epsilon=0.05, delta=0.05, seed=seed, **params)
    result = run_psr_ucb(env, cfg, cands, true_model.core_tests)
    return result.last_model, result.last_evaluator


def _validity_slack(model: PsrModel, evaluator: BonusEvaluator, true_rewards: np.ndarray, reward_leaves: np.ndarray) -> float:
    """The largest ``|V_model - V_true| - V_bonus`` over every policy.

    Each value is linear in the policy's trajectory weights, so the worst
    policy of each sign of ``V_model - V_true`` is one plan on a leaf
    table.  ``true_rewards`` is the true model's depth-H probabilities
    times ``reward_leaves``.
    """
    space = model.space
    model_table = model.prob_table(space.horizon)
    gap = model_table * reward_leaves - true_rewards
    bonus = model_table * evaluator.bonus_table()
    return max(plan_on_table(space, gap - bonus)[1], plan_on_table(space, -gap - bonus)[1])


def run_validity_checks(report: Report, runs: int = 100, params: dict | None = None) -> None:
    suite = "ucb-validity"
    env = reference_env()
    cands = make_candidates(env, "dithered", seed=42, n=10, scale=0.03)
    true_model = cands.models[cands.labels.index("true")]
    if params is None:
        params = {"p_min": 1e-10, "beta": 40.0, "lam": 1.0, "alpha": 2.0}
    space = env.space
    reward_leaves = env.reward.leaf_table(space)
    true_table = true_model.prob_table(space.horizon)
    true_rewards = true_table * reward_leaves

    online_viol = 0
    for s in range(runs):
        model, evaluator = _validity_run_online(child_seed(s, "validity-online"), env, true_model, cands, params)
        if _validity_slack(model, evaluator, true_rewards, reward_leaves) > 1e-12:
            online_viol += 1
    allowed = DELTA + wilson_slack(DELTA, runs)
    rate = online_viol / runs
    report.add(
        CheckResult(
            suite,
            "online-ucb-valid",
            rate <= allowed,
            f"{online_viol}/{runs} violating runs",
            violation_rate=rate,
            allowed_rate=allowed,
        )
    )

    behavior = uniform_policy(space)
    offline_viol = 0
    for s in range(runs):
        ds = collect_offline(env, behavior, 60, child_seed(s, "validity-offline"))
        res = run_psr_lcb(ds, cands, OfflineConfig(**params), reward_leaves)
        if _validity_slack(res.model, res.evaluator, true_rewards, reward_leaves) > 1e-12:
            offline_viol += 1
    rate = offline_viol / runs
    report.add(
        CheckResult(
            suite,
            "offline-lcb-valid",
            rate <= allowed,
            f"{offline_viol}/{runs} violating runs",
            violation_rate=rate,
            allowed_rate=allowed,
        )
    )

    # Empirical-feature bonus dominated by the true-feature bonus plus drift,
    # under every policy: one plan per run on the per-trajectory difference.
    bonus_viol = 0
    bonus_runs = max(20, runs // 5)
    q_a = true_model.core_tests.max_action_seqs
    beta_stat = 31.0 * math.log(10 * len(cands) / DELTA)
    true_weight = 1.0 + 2.0 * space.n_actions * q_a * math.sqrt(7.0 * env.n_states * beta_stat) / math.sqrt(params["lam"])
    drift_weight = 2.0 * space.horizon * q_a / math.sqrt(params["lam"])
    explorers = _uniform_explorers(true_model.core_tests)
    datasets = _uniform_collections(env, explorers, 10, [child_seed(s, "bonus-relation") for s in range(bonus_runs)])
    for dataset in datasets:
        mle = constrained_mle(cands, dataset, params["p_min"], params["beta"])
        evaluator = _build_evaluator(mle.model, dataset, params["lam"], params["alpha"])
        scores, degenerate = evaluator.score_table()
        if degenerate.any():
            continue
        # Per leaf, the sum over steps of its length-h prefix's root true-feature score.
        true_side = sum(
            np.repeat(np.sqrt(np.maximum(gram.scores(true_model.feature_table(h)), 0.0)), space.pair_count ** (space.horizon - h))
            for h, gram in enumerate(prefix_grams(true_model, dataset, params["lam"]))
        )
        drift = np.abs(true_table - mle.model.prob_table(space.horizon))
        leaves = true_table * (np.sqrt(np.maximum(scores, 0.0)) - true_weight * true_side) - drift_weight * drift
        if plan_on_table(space, leaves)[1] > 1e-9:
            bonus_viol += 1
    rate = bonus_viol / bonus_runs
    allowed_b = DELTA + wilson_slack(DELTA, bonus_runs)
    report.add(
        CheckResult(
            suite,
            "empirical-vs-true-bonus",
            rate <= allowed_b,
            f"{bonus_viol}/{bonus_runs} violating runs",
            violation_rate=rate,
            allowed_rate=allowed_b,
        )
    )


SUITES = {
    "core-identities": lambda report, seeds: run_core_identities(report),
    "lemmas": lambda report, seeds: run_lemma_checks(report, seeds),
    "mle-events": lambda report, seeds: run_mle_events(report, seeds),
    "ucb-validity": lambda report, seeds: run_validity_checks(report, seeds),
}


def verify(suite: str, seeds: int = 100) -> Report:
    """Run one registered suite, or all of them.

    An unknown suite name, a suite that is not a string, or a seed count
    that is not a positive integer raises :class:`StructuralError` before
    any suite runs.
    """
    check_numbers({"seeds": seeds}, {})
    if seeds < 1:
        raise StructuralError(f"need at least one seed, got {seeds}")
    if not isinstance(suite, str) or suite != "all" and suite not in SUITES:
        raise StructuralError(f"unknown suite {suite!r}; options: {', '.join(sorted(SUITES))} or 'all'")
    report = Report()
    for fn in SUITES.values() if suite == "all" else [SUITES[suite]]:
        fn(report, seeds)
    return report
