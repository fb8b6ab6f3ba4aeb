"""The four benchmark workloads: inputs from the run's seed, timed work, checks.

Each workload has three steps.  ``setup`` builds the instance (environment,
``default_psr``, candidates, behavior policy); ``units`` lists the timed work
as named operations, run in order and timed one by one (a seed, a command
invocation, a verify suite), which call psrlab only through module
attributes, so a traced pass sees every call; ``judge`` runs after the clock
stops and turns the outputs into per-operation checks, checks on the whole
seed set, and a fingerprint that must be identical on every pass, traced or
not.

A run's ``--seed n`` selects seed block ``n``: ``n * count .. (n+1) * count - 1``.
Block 0 is the seed list of the configs and of the acceptance tests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("psrlab.cli")
online = importlib.import_module("psrlab.online")
planner = importlib.import_module("psrlab.planner")
pomdp = importlib.import_module("psrlab.pomdp")
estimation = importlib.import_module("psrlab.estimation")
policies = importlib.import_module("psrlab.policies")
verify_mod = importlib.import_module("psrlab.verify")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def seed_block(seed: int, count: int) -> list[int]:
    return list(range(seed * count, (seed + 1) * count))


def load_config(name: str) -> dict:
    with open(ROOT / "configs" / name) as fh:
        return json.load(fh)


def attempt(fn) -> tuple:
    """Run one operation; a raised error is its failure, not the run's."""
    try:
        return fn(), None
    except Exception:  # an operation that raised counts as failed and the run goes on
        return None, traceback.format_exc(limit=3)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@dataclass
class Judgement:
    """Checks and fingerprint of one pass."""

    ops: list[tuple[str, bool, str]]  # operation id, passed, detail
    set_checks: list[tuple[str, bool, str]]  # checks on the whole seed set
    fingerprint: str
    bases: dict
    iter_wall: list[float] = field(default_factory=list)  # IterationLog.wall_clock samples

    @property
    def failed(self) -> int:
        if not all(ok for _, ok, _ in self.set_checks):
            return len(self.ops)
        return sum(1 for _, ok, _ in self.ops if not ok)


def _log_rows(result) -> list[tuple]:
    return [
        (log.k, log.candidate_id, log.candidate_label, log.feasible_size, log.ucb_value, log.bucket_sizes, log.terminated)
        for log in result.logs
    ]


def _online_config(params: dict, iterations: int, epsilon: float, seed: int):
    return online.OnlineConfig(
        max_iterations=iterations,
        epsilon=epsilon,
        delta=params["delta"],
        p_min=params["p_min"],
        beta=params["beta"],
        lam=params["lambda"],
        alpha=params["alpha"],
        seed=seed,
    )


def _fixed_length(result, error, iterations: int) -> tuple[bool, str]:
    """The loop ran its whole budget, so the work does not depend on stopping."""
    if error is not None:
        return False, error
    if result.terminated or len(result.logs) != iterations:
        return False, f"stopped after {len(result.logs)} of {iterations} iterations"
    return True, f"{iterations} iterations"


class OnlineSmall:
    """The online loop on configs/online_decay.json, 36 leaves."""

    name = "online-small"

    def __init__(self, seed: int, n_seeds: int = 10, iterations: int | None = None) -> None:
        self.config = load_config("online_decay.json")
        self.params = self.config["online"]
        self.iterations = iterations or self.params["max_iterations"]
        self.seeds = seed_block(seed, n_seeds)

    def setup(self):
        env = cli.build_env(self.config["env"])
        true_model, _ = pomdp.default_psr(env)
        return env, true_model, cli.build_candidates(env, self.config["candidates"])

    def units(self, state) -> list:
        env, true_model, cands = state
        return [
            (f"seed {s}", lambda s=s: online.run_psr_ucb(
                env, _online_config(self.params, self.iterations, self.params["epsilon"], s), cands, true_model.core_tests
            ))
            for s in self.seeds
        ]

    def judge(self, state, out: dict) -> Judgement:
        env, _, cands = state
        ops, ratios, wall = [], [], []
        for op, (result, error) in out.items():
            ok, detail = _fixed_length(result, error, self.iterations)
            ops.append((op, ok, detail))
            if ok and self.iterations >= 256:
                running = np.cumsum([log.ucb_value for log in result.logs]) / np.arange(1, self.iterations + 1)
                ratios.append(running[255] / running[31])
            if result is not None:
                wall += [log.wall_clock for log in result.logs]
        median = float(np.median(ratios)) if len(ratios) == len(out) else math.nan
        set_checks = [(
            "criterion-8 bonus decay",
            median <= 0.5,
            f"median running-mean ratio k=256 vs k=32 is {median:.3f} <= 0.5 over {len(ratios)} seeds",
        )]
        prints = {op: (None if r is None else _log_rows(r)) for op, (r, _) in out.items()}
        bases = _bases(env, cands, self.seeds, self.iterations * len(self.seeds))
        return Judgement(ops, set_checks, digest(prints), bases, wall)


REWARD_TABLE = "reward table"


class OnlineLarge:
    """The online loop at 46,656 leaves, then a greedy reward plan and exact evaluation."""

    name = "online-large"
    ENV = dict(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=6)
    CANDIDATES = dict(seed=5, n=40, scale=0.05)
    PARAMS = {"delta": 0.1, "p_min": 1e-10, "beta": 5.0, "lambda": 1.0, "alpha": 0.5}
    EPSILON = 1e-9  # far below any planned bonus value, so the loop runs its whole budget

    def __init__(self, seed: int, n_seeds: int = 3, iterations: int = 60) -> None:
        self.iterations = iterations
        self.seeds = seed_block(seed, n_seeds)

    def setup(self):
        env = pomdp.random_revealing(**self.ENV)
        true_model, _ = pomdp.default_psr(env)
        return env, true_model, estimation.make_candidates(env, "dithered", **self.CANDIDATES)

    def _one_seed(self, env, true_model, cands, reward_leaves, seed: int) -> tuple:
        space = env.space
        config = _online_config(self.PARAMS, self.iterations, self.EPSILON, seed)
        result = online.run_psr_ucb(env, config, cands, true_model.core_tests)
        leaves = result.last_model.prob_table(space.horizon) * reward_leaves
        greedy, planned = planner.plan_on_table(space, leaves)
        gap, max_tv = online.evaluate_output(env, true_model, result.last_model, greedy)
        return result, greedy, planned, gap, max_tv

    def units(self, state) -> list:
        env, true_model, cands = state
        shared = {}

        def reward_table() -> None:
            shared["leaves"] = planner.leaf_table(env.space, env.reward_of)

        return [(REWARD_TABLE, reward_table)] + [
            (f"seed {s}", lambda s=s: self._one_seed(env, true_model, cands, shared["leaves"], s)) for s in self.seeds
        ]

    def judge(self, state, out: dict) -> Judgement:
        env, _, cands = state
        space = env.space
        reward_leaves = planner.leaf_table(space, env.reward_of)
        ops, wall, prints = [], [], {}
        for op, (value, error) in out.items():
            if op == REWARD_TABLE:
                ops.append((op, error is None, error or "reward leaf table"))
                continue
            result = None if value is None else value[0]
            ok, detail = _fixed_length(result, error, self.iterations)
            if ok:
                _, greedy, planned, gap, max_tv = value
                leaves = result.last_model.prob_table(space.horizon) * reward_leaves
                revalued = planner.policy_value_on_table(space, greedy, leaves)
                ok = abs(planned - revalued) <= 1e-9 and gap >= -1e-12 and 0.0 <= max_tv <= 2.0
                detail = f"|plan - evaluate| {abs(planned - revalued):.1e}, gap {gap:.4f}, max-TV {max_tv:.4f}"
                prints[op] = (_log_rows(result), greedy.to_dict(), planned, gap, max_tv)
            if result is not None:
                wall += [log.wall_clock for log in result.logs]
            ops.append((op, ok, detail))
        bases = _bases(env, cands, self.seeds, self.iterations * len(self.seeds))
        return Judgement(ops, [], digest(prints), bases, wall)


class OfflineSweep:
    """The sweep-offline command on configs/offline_sweep.json, 16 leaves."""

    name = "offline-sweep"
    K_LIST = (250, 1000, 4000)
    CONFIG = "offline_sweep.json"

    def __init__(self, seed: int, n_seeds: int = 6, k_list: tuple[int, ...] = K_LIST) -> None:
        if n_seeds % 2:
            raise ValueError("offline-sweep runs seeds in pairs; n_seeds must be even")
        self.config = load_config(self.CONFIG)
        self.k_list = k_list
        self.seeds = seed_block(seed, n_seeds)
        self.out = OUT_DIR / f"{self.name}-seed{seed}"

    def setup(self):
        """The instance the command builds for itself, built and timed on its own."""
        env = cli.build_env(self.config["env"])
        true_model, _ = pomdp.default_psr(env)
        cands = cli.build_candidates(env, self.config["candidates"])
        return env, true_model, cands, cli.build_behavior(self.config["behavior"], env.space)

    def units(self, state) -> list:
        """One command per K and pair of seeds, each writing its own directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        return [
            (f"K={K} seeds {pair[0]},{pair[1]}", lambda K=K, pair=pair: self._command(K, pair))
            for K in self.k_list
            for pair in zip(self.seeds[::2], self.seeds[1::2])
        ]

    def _command(self, K: int, pair: tuple[int, int]) -> None:
        args = [
            "sweep-offline",
            "--config", str(ROOT / "configs" / self.CONFIG),
            "--out", str(self.out / f"K{K}-seeds{pair[0]}-{pair[1]}"),
            "--k-list", str(K),
            "--seeds", ",".join(map(str, pair)),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, prog_name="psrlab", standalone_mode=False)

    def judge(self, state, out) -> Judgement:
        env, _, cands, _ = state
        errors = {op: error for op, (_, error) in out.items() if error is not None}
        files = {p.relative_to(self.out).as_posix(): p.read_bytes() for p in sorted(self.out.glob("*/*"))}
        shutil.rmtree(self.out, ignore_errors=True)
        gaps: dict[tuple[int, int], float] = {}
        for path, data in files.items():
            if path.endswith("/results.csv"):
                for row in csv.DictReader(io.StringIO(data.decode())):
                    gaps[int(row["K"]), int(row["seed"])] = float(row["gap"])
        ops = []
        for op, (_, error) in out.items():
            K = int(op.split()[0].removeprefix("K="))
            pair = [int(s) for s in op.split()[-1].split(",")]
            pair_gaps = [gaps.get((K, s)) for s in pair]
            ok = error is None and all(g is not None and g >= -1e-12 for g in pair_gaps)
            ops.append((op, ok, error or f"gaps {pair_gaps}"))
        medians = [float(np.median([gaps.get((K, s), math.nan) for s in self.seeds])) for K in self.k_list]
        trend = all(a >= b - 1e-12 for a, b in zip(medians, medians[1:]))
        ok = not errors and trend and medians[-1] <= 0.6 * medians[0] and medians[0] > 0
        set_checks = [(
            "criterion-9 offline trend",
            ok,
            f"median gaps {['%.4f' % m for m in medians]} non-increasing, last <= 0.6 x first, first > 0",
        )]
        bases = _bases(env, cands, self.seeds, 0)
        bases["episodes"] = sum(self.k_list) * len(self.seeds)
        return Judgement(ops, set_checks, digest(sorted(files.items())), bases)


class VerifyAll:
    """``verify("all", n)``; its suites derive their own seeds from the count."""

    name = "verify-all"

    def __init__(self, seed: int, n_seeds: int = 20) -> None:
        self.n_seeds = n_seeds

    def setup(self):
        """The reference instance and candidate families the suites draw on."""
        env = verify_mod.reference_env()
        true_model, _ = pomdp.default_psr(env)
        families = [
            estimation.make_candidates(env, "dithered", seed=77, n=8, scale=0.08),
            estimation.make_candidates(env, "dithered", seed=42, n=10, scale=0.03),
        ]
        return env, true_model, families, policies.uniform_policy(env.space)

    def units(self, state) -> list:
        """``verify("all", n)`` one suite at a time, in the order "all" runs them."""
        return [(suite, lambda suite=suite: verify_mod.verify(suite, self.n_seeds)) for suite in verify_mod.SUITES]

    def judge(self, state, out) -> Judgement:
        env, _, families, _ = state
        ops, lines = [], []
        for suite, (report, error) in out.items():
            if error is not None:
                ops.append((suite, False, error))
                continue
            ops += [(f"{r.suite}/{r.name}", r.passed, r.detail) for r in report.results]
            lines += report.lines()
        bases = {
            "leaves": env.space.n_trajectories,
            "candidates": sum(len(f) for f in families),
            "seeds": self.n_seeds,
            "iterations": 0,
            "checks": len(lines),
        }
        return Judgement(ops, [], digest(lines), bases)


def _bases(env, cands, seeds: list[int], iterations: int) -> dict:
    return {
        "leaves": env.space.n_trajectories,
        "candidates": len(cands),
        "seeds": len(seeds),
        "iterations": iterations,
        "episodes": iterations * env.space.horizon,
    }


WORKLOADS = {w.name: w for w in (OnlineSmall, OnlineLarge, OfflineSweep, VerifyAll)}
