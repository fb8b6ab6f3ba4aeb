"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Tuned experiment settings live in configs/; the criteria below pin the
tolerances.  Probabilistic criteria compare violation frequencies against
their nominal level (with normal-approximation slack where stated).
"""

import json
from pathlib import Path

import numpy as np
from policy_oracles import add_drawn
from psrlab.estimation import make_candidates
from psrlab.offline import OfflineConfig, collect_offline, offline_gap, run_psr_lcb
from psrlab.online import OnlineConfig, evaluate_output, run_psr_ucb
from psrlab.planner import leaf_table, plan_on_table, policy_value_on_table
from psrlab.policies import UniformActionSeqPolicy
from psrlab.pomdp import default_psr, near_tie, random_revealing
from psrlab.psr import check_self_consistency
from psrlab.spaces import enumerate_histories
from psrlab.verify import (
    DELTA,
    Report,
    brute_force_test_cond_prob,
    run_lemma_checks,
    run_mle_events,
    run_validity_checks,
    small_builtin_envs,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_RESULTS: list[str] = []


def record(criterion: int, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    _RESULTS.append(line)
    print(line)
    assert passed, line


def load_config(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def test_criterion_01_psr_semantics_oracle_equivalence():
    worst_prob, worst_sc = 0.0, 0.0
    for name, env in small_builtin_envs():
        model, _ = default_psr(env)
        for h in range(env.space.horizon + 1):
            probs = model.prob_table(h)
            for idx, hist in enumerate(enumerate_histories(env.space, h)):
                worst_prob = max(worst_prob, abs(probs[idx] - env.exact_traj_prob(hist)))
        worst_sc = max(worst_sc, check_self_consistency(model))
    record(
        1,
        worst_prob <= 1e-8 and worst_sc <= 1e-9,
        f"trajectory-probability error {worst_prob:.2e} <= 1e-8, "
        f"self-consistency {worst_sc:.2e} <= 1e-9",
    )


def test_criterion_02_prediction_feature_semantics():
    env = random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=2)
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
    record(2, worst <= 1e-9, f"max conditional-probability error {worst:.2e} <= 1e-9")


def test_criterion_03_planner_exactness():
    from test_planner import all_tree_policies

    env = random_revealing(seed=11, n_states=2, n_obs=2, n_actions=2, horizon=2, alpha_threshold=0.05)
    model, _ = default_psr(env)
    other_env = random_revealing(seed=21, n_states=2, n_obs=2, n_actions=2, horizon=2, alpha_threshold=0.05)
    other, _ = default_psr(other_env)
    space = env.space
    from psrlab.estimation import DatasetFamily
    from psrlab.online import _build_evaluator
    from psrlab.policies import uniform_policy

    dataset = DatasetFamily(space)
    pol = uniform_policy(space)
    for i in range(6):
        add_drawn(dataset, env, pol, 900 + i, i % 2)
    evaluator = _build_evaluator(model, dataset, 1.0, 0.7)
    probs = model.prob_table(space.horizon)
    reward = leaf_table(space, env.reward_of)
    tables = {
        "reward": probs * reward,
        "bonus": probs * evaluator.bonus_table(),
        "reward-minus-bonus": probs * (reward - evaluator.bonus_table()),
        "abs-model-difference": np.abs(probs - other.prob_table(space.horizon)),
    }
    worst = 0.0
    for leaves in tables.values():
        policy, val = plan_on_table(space, leaves)
        brute = max(
            policy_value_on_table(space, p, leaves) for p in all_tree_policies(space)
        )
        worst = max(worst, abs(val - brute), abs(policy_value_on_table(space, policy, leaves) - brute))
    record(3, worst <= 1e-12, f"max planner-vs-enumeration deviation {worst:.2e} <= 1e-12")


def test_criterion_04_deterministic_lemma_suite():
    report = Report()
    run_lemma_checks(report, seeds=100)
    failed = [r for r in report.results if not r.passed]
    record(
        4,
        not failed,
        f"{len(report.results)} inequality families x 100 seeds, "
        f"{len(failed)} with violations",
    )


def test_criterion_05_mle_event_frequencies():
    assert DELTA == 0.05
    report = Report()
    run_mle_events(report, seeds=200)
    bad = [r for r in report.results if not r.passed]
    rates = ", ".join(f"{r.name}={r.violation_rate:.3f}" for r in report.results)
    allowed = report.results[0].allowed_rate
    record(5, not bad, f"violation rates [{rates}] all <= {allowed:.3f}")


def test_criterion_06_confidence_bound_validity():
    assert DELTA == 0.05
    report = Report()
    run_validity_checks(report, runs=100)
    named = {r.name: r for r in report.results}
    online = named["online-ucb-valid"]
    offline = named["offline-lcb-valid"]
    strict = online.violation_rate <= 0.05 and offline.violation_rate <= 0.05
    record(
        6,
        strict and report.all_passed,
        f"online violations {online.violation_rate:.3f}, "
        f"offline violations {offline.violation_rate:.3f}, both <= 0.05",
    )


def test_criterion_07_online_end_to_end():
    config = load_config("online_reference.json")
    env = random_revealing(**config["env"]["params"])
    true_model, _ = default_psr(env)
    cands = make_candidates(env, "dithered", **{k: v for k, v in config["candidates"].items() if k != "mode"})
    ocfg = config["online"]
    successes = 0
    for seed in config["seeds"]:
        cfg = OnlineConfig(
            max_iterations=ocfg["max_iterations"],
            epsilon=ocfg["epsilon"],
            delta=ocfg["delta"],
            p_min=ocfg["p_min"],
            beta=ocfg["beta"],
            lam=ocfg["lambda"],
            alpha=ocfg["alpha"],
            seed=seed,
        )
        result = run_psr_ucb(env, cfg, cands, true_model.core_tests)
        if not result.terminated:
            continue
        gap, max_tv = evaluate_output(env, true_model, result.last_model, result.final_policy)
        if gap <= ocfg["epsilon"] and max_tv <= ocfg["epsilon"]:
            successes += 1
    n = len(config["seeds"])
    record(7, successes >= 0.9 * n, f"{successes}/{n} seeds terminated with gap and max-TV <= 0.2")


def test_criterion_08_online_bonus_decay():
    config = load_config("online_decay.json")
    env = random_revealing(**config["env"]["params"])
    true_model, _ = default_psr(env)
    cands = make_candidates(env, "dithered", **{k: v for k, v in config["candidates"].items() if k != "mode"})
    ocfg = config["online"]
    ratios = []
    for seed in config["seeds"]:
        cfg = OnlineConfig(
            max_iterations=ocfg["max_iterations"],
            epsilon=ocfg["epsilon"],
            delta=ocfg["delta"],
            p_min=ocfg["p_min"],
            beta=ocfg["beta"],
            lam=ocfg["lambda"],
            alpha=ocfg["alpha"],
            seed=seed,
        )
        result = run_psr_ucb(env, cfg, cands, true_model.core_tests)
        vals = np.array([log.ucb_value for log in result.logs])
        running = np.cumsum(vals) / np.arange(1, len(vals) + 1)
        ratios.append(running[255] / running[31])
    median = float(np.median(ratios))
    record(8, median <= 0.5, f"median running-mean ratio at k=256 vs k=32 is {median:.3f} <= 0.5")


def test_criterion_09_offline_trend():
    config = load_config("offline_sweep.json")
    env = near_tie()
    true_model, _ = default_psr(env)
    cands = make_candidates(env, "dithered", **{k: v for k, v in config["candidates"].items() if k != "mode"})
    behavior = UniformActionSeqPolicy(
        2, 1, tuple(tuple(s) for s in config["behavior"]["sequences"])
    )
    reward_leaves = leaf_table(env.space, env.reward_of)
    opt_policy, _ = plan_on_table(env.space, true_model.prob_table(2) * reward_leaves)
    ocfg = config["offline"]
    medians = []
    for K in (250, 1000, 4000):
        gaps = []
        for seed in config["seeds"]:
            dataset = collect_offline(env, behavior, K, seed)
            cfg = OfflineConfig(
                p_min=ocfg["p_min"],
                beta=ocfg["beta"],
                lam=ocfg["lambda"],
                alpha=ocfg["alpha"],
            )
            result = run_psr_lcb(dataset, cands, cfg, reward_leaves)
            gaps.append(offline_gap(env, true_model, opt_policy, result.policy))
        medians.append(float(np.median(gaps)))
    monotone = medians[0] >= medians[1] - 1e-12 and medians[1] >= medians[2] - 1e-12
    endpoint = medians[2] <= 0.6 * medians[0]
    record(
        9,
        monotone and endpoint and medians[0] > 0,
        f"median gaps {['%.4f' % m for m in medians]} non-increasing, "
        f"final {medians[2]:.4f} <= 0.6 x {medians[0]:.4f}",
    )


def test_criterion_10_reproducibility(tmp_path):
    from click.testing import CliRunner

    from psrlab.cli import main

    config = load_config("online_reference.json")
    config["seeds"] = [0, 1]
    config["online"]["max_iterations"] = 80
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    off_config = load_config("offline_sweep.json")
    off_config["seeds"] = [0, 1]
    off_path = tmp_path / "off.json"
    off_path.write_text(json.dumps(off_config))
    runner = CliRunner()
    outputs = {}
    for tag in ("a", "b"):
        on_dir = tmp_path / f"on_{tag}"
        off_dir = tmp_path / f"off_{tag}"
        assert runner.invoke(main, ["run-online", "--config", str(cfg_path), "--out", str(on_dir)]).exit_code == 0
        assert runner.invoke(main, ["run-offline", "--config", str(off_path), "--out", str(off_dir)]).exit_code == 0
        blob = {}
        for path in sorted(list(on_dir.iterdir()) + list(off_dir.iterdir())):
            blob[path.name] = path.read_bytes()
        outputs[tag] = blob
    same = outputs["a"].keys() == outputs["b"].keys() and all(
        outputs["a"][k] == outputs["b"][k] for k in outputs["a"]
    )
    record(10, same, f"{len(outputs['a'])} artifacts byte-identical across two runs")


def test_zz_print_summary(request):
    print()
    for line in _RESULTS:
        print(line)
    collected = [
        item.name
        for item in request.session.items
        if item.module is request.module and item.name.startswith("test_criterion_")
    ]
    assert len(_RESULTS) == len(collected), f"{len(_RESULTS)} results for {len(collected)} criteria"
    assert all(line.startswith("PASS ") for line in _RESULTS)
    assert len(set(_RESULTS)) == len(_RESULTS)
