"""Experiment command line: environment generation, runs, sweeps, verification.

All persisted CSV/JSON artifacts are deterministic functions of the config
and seeds: fixed column orders, sorted JSON keys, shortest round-trip float
encoding, and no wall-clock content.  Timing goes to stdout only.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .errors import PsrLabError, StructuralError
from .estimation import CandidateSet, make_candidates
from .offline import (
    OfflineConfig,
    collect_offline,
    coverage_coefficient,
    ensure_behavior_coverage,
    offline_gap,
    run_psr_lcb,
)
from .online import OnlineConfig, evaluate_output, run_psr_ucb
from .planner import plan_on_table
from .policies import policy_from_dict, uniform_policy
from .pomdp import BUILTIN_ENVS, TabularPomdp, default_psr, dynamics_matrix, pomdp_from_dict
from .psr import psr_rank
from .spaces import check_numbers
from .theory import EnvSummary, resolve_theory_params
from .verify import SUITES, Report, verify


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a NaN or an infinity raises ``ValueError`` instead of being written."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue())


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON (decode errors are ValueErrors)
        raise PsrLabError(f"cannot read {what} {path!r}: {exc}") from exc


def _out_dir(path: str) -> Path:
    """The output directory ``path``, created if missing; one that cannot be is a package error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, no permission, ...
        raise PsrLabError(f"cannot create output directory {path!r}: {exc}") from exc
    return Path(path)


def _load_config(path: str) -> dict:
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise StructuralError(f"config file {path!r} must hold a JSON object")
    return config


# The keys each parameter section may hold; the learning commands read no others.
_PARAM_KEYS = ("p_min", "beta", "lambda", "alpha", "c_theory", "auto_params", "delta")
_SECTION_KEYS = {
    "online": ("max_iterations", "epsilon") + _PARAM_KEYS,
    "offline": ("n_episodes", "coverage") + _PARAM_KEYS,
}
# The keys only the ``auto_params`` theory formulas read; a section setting one without it is a mistake.
# The online section's ``delta`` is also an ``OnlineConfig`` field, so it stays allowed there.
_THEORY_KEYS = {"online": ("c_theory",), "offline": ("c_theory", "delta", "coverage")}


def _require(config: dict, key: str) -> object:
    if key not in config:
        raise StructuralError(f"config is missing top-level key {key!r}")
    return config[key]


def _section(config: dict, name: str, required: tuple[str, ...] = ()) -> dict:
    """The config's ``name`` parameter section, holding every ``required`` key and no unknown key."""
    section = _require(config, name)
    if not isinstance(section, dict):
        raise StructuralError(f"config section {name!r} must be an object")
    known = _SECTION_KEYS[name]
    for key in section:
        if key not in known:
            raise StructuralError(f"unknown key {key!r} in config section {name!r}; options: {list(known)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise StructuralError(f"config section {name!r} is missing {', '.join(map(repr, missing))}")
    auto_params = section.get("auto_params", False)
    if not isinstance(auto_params, bool):
        raise StructuralError(f"config key 'auto_params' in section {name!r} must be true or false, got {auto_params!r}")
    if not auto_params:
        for key in _THEORY_KEYS[name]:
            if key in section:
                raise StructuralError(f"config section {name!r} sets {key!r}, which only 'auto_params' reads")
    return section


def _distinct(option: str, values: list[int]) -> list[int]:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise PsrLabError(f"{option} lists {', '.join(map(str, repeated))} more than once")
    return values


def _integers(option: str, text: str) -> list[int]:
    """The comma-separated integers of a command-line option, each at most once."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise PsrLabError(f"{option} must be comma-separated integers, got {text!r}") from exc
    return _distinct(option, values)


def _seed_list(config: dict, text: str | None) -> list[int]:
    """The ``--seeds`` list if given, else the config's ``seeds`` (default ``[0]``), which must be what ``--seeds`` accepts."""
    if text is not None:
        return _integers("--seeds", text)
    seeds = config.get("seeds", [0])
    if not (isinstance(seeds, list) and seeds) or any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise StructuralError(f"config key 'seeds' must be a non-empty list of integers, got {seeds!r}")
    return _distinct("config key 'seeds'", seeds)


def build_env(spec: dict) -> TabularPomdp:
    if not isinstance(spec, dict):
        raise StructuralError(f"config section 'env' must be an object, got {spec!r}")
    if "path" in spec:
        if not isinstance(spec["path"], str):
            raise StructuralError(f"config key 'env.path' must be a file name, got {spec['path']!r}")
        return pomdp_from_dict(_read_json(spec["path"], "env file"))
    if "builtin" not in spec:
        raise StructuralError("config section 'env' is missing 'builtin' (or 'path')")
    return _make_builtin(spec["builtin"], spec.get("params", {}))


def _make_builtin(name: str, params: dict) -> TabularPomdp:
    if name not in BUILTIN_ENVS:
        raise PsrLabError(f"unknown builtin environment {name!r}")
    try:
        return BUILTIN_ENVS[name](**params)
    except TypeError as exc:  # unknown, missing or ill-typed constructor arguments
        raise PsrLabError(f"bad parameters for builtin environment {name!r}: {exc}") from exc


def build_candidates(env: TabularPomdp, spec: dict) -> CandidateSet:
    if not isinstance(spec, dict):
        raise StructuralError(f"config section 'candidates' must be an object, got {spec!r}")
    options = {k: v for k, v in spec.items() if k != "mode"}
    params = inspect.signature(make_candidates).parameters.values()
    known = ["mode"] + [p.name for p in params if p.kind is p.KEYWORD_ONLY]
    for key in spec:
        if key not in known:
            raise StructuralError(f"unknown key {key!r} in config section 'candidates'; options: {known}")
    return make_candidates(env, spec.get("mode", "include_true"), **options)


def build_behavior(spec, space):
    if spec in (None, "uniform"):
        return uniform_policy(space)
    return policy_from_dict(spec, space)


def _env_rank(env: TabularPomdp) -> int:
    return max(psr_rank(dynamics_matrix(env, h)) for h in range(env.space.horizon))


def _env_summary(cfg: dict, env: TabularPomdp, true_model) -> EnvSummary | None:
    """The instance constants of the theory formulas under ``auto_params`` (once per command), else None."""
    if cfg.get("auto_params", False):
        return EnvSummary.from_model(true_model, _env_rank(env))
    return None


def _resolve_params(cfg: dict, constants: EnvSummary | None, mode: str, n_episodes: int, **bounds) -> tuple[dict, dict]:
    """Selection and bonus parameters plus their echo: theory formulas under ``auto_params``, else the config's."""
    if constants is not None:
        params = resolve_theory_params(
            constants,
            delta=cfg.get("delta", 0.05),
            c_theory=cfg.get("c_theory", 0.01),
            mode=mode,
            n_episodes=n_episodes,
            **bounds,
        )
        values = dict(p_min=params.p_min, beta=params.beta, lam=params.lam, alpha=params.alpha)
        return values, params.to_dict() | bounds
    missing = [key for key in ("p_min", "beta", "lambda", "alpha") if key not in cfg]
    if missing:
        raise StructuralError(f"config section {mode!r} is missing {', '.join(map(repr, missing))} (or set auto_params)")
    # Checked here so an error names the config key ('lambda'), not the config field it fills ('lam').
    check_numbers({}, {key: cfg[key] for key in ("p_min", "beta", "lambda", "alpha")})
    values = dict(p_min=cfg["p_min"], beta=cfg["beta"], lam=cfg["lambda"], alpha=cfg["alpha"])
    echo = {"mode": mode, "c_theory": None, "p_min": cfg["p_min"], "beta": cfg["beta"],
            "lambda": cfg["lambda"], "alpha": cfg["alpha"]}
    return values, echo


def _resolve_online(cfg: dict, constants: EnvSummary | None, n_episodes: int, seed: int) -> tuple[OnlineConfig, dict]:
    values, echo = _resolve_params(cfg, constants, "online", n_episodes)
    online = OnlineConfig(
        max_iterations=cfg["max_iterations"],
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        seed=seed,
        **values,
    )
    return online, echo


class _Group(click.Group):
    """Reports package errors as one ``Error:`` line and exit status 1.

    Without standalone mode (a caller embedding the command) the error
    propagates unchanged.
    """

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except PsrLabError as exc:
            if not standalone_mode:
                raise
            click.echo(f"Error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main() -> None:
    """Confidence-bound learning of predictive state models, desk scale."""


@main.command("gen-env")
@click.option("--name", required=True, type=click.Choice(sorted(BUILTIN_ENVS)))
@click.option("--params", default="{}", help="JSON dict of constructor arguments.")
@click.option("--out", required=True, type=click.Path())
def gen_env(name: str, params: str, out: str) -> None:
    """Write a builtin environment to a JSON file."""
    try:
        parsed = json.loads(params)
    except json.JSONDecodeError as exc:
        raise PsrLabError(f"--params for builtin environment {name!r} is not valid JSON: {exc}") from exc
    env = _make_builtin(name, parsed)
    try:
        _write_json(Path(out), env.to_dict())
    except OSError as exc:
        raise PsrLabError(f"cannot write environment file {out!r}: {exc}") from exc
    click.echo(f"wrote {out}")


@main.command("run-online")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seeds", default=None, help="Comma-separated seed list (overrides config).")
def run_online(config_path: str, out_dir: str, seeds: str | None) -> None:
    """Run the optimistic loop for each seed and write logs and outputs."""
    config = _load_config(config_path)
    ocfg = _section(config, "online", ("max_iterations", "epsilon", "delta"))
    seed_list = _seed_list(config, seeds)
    out = _out_dir(out_dir)
    env = build_env(_require(config, "env"))
    true_model, _ = default_psr(env)
    candidates = build_candidates(env, config.get("candidates", {"mode": "include_true"}))
    constants = _env_summary(ocfg, env, true_model)
    for seed in seed_list:
        started = time.perf_counter()
        online, echo = _resolve_online(ocfg, constants, ocfg["max_iterations"], seed)
        result = run_psr_ucb(env, online, candidates, true_model.core_tests)
        rows = [
            [log.k, log.ucb_value, log.feasible_size, log.candidate_id] for log in result.logs
        ]
        _write_csv(out / f"logs_seed{seed}.csv", ["k", "ucb_value", "feasible_size", "candidate_id"], rows)
        summary = {
            "run_id": f"online-seed{seed}",
            "seed": seed,
            "terminated": result.terminated,
            "iterations": len(result.logs),
            "gap": None,
            "max_tv": None,
            "params": echo,
            "epsilon": online.epsilon,
            "delta": online.delta,
        }
        if result.terminated:
            gap, max_tv = evaluate_output(env, true_model, result.last_model, result.final_policy)
            summary["gap"] = gap
            summary["max_tv"] = max_tv
            _write_json(out / f"model_seed{seed}.json", result.last_model.to_dict())
            _write_json(out / f"policy_seed{seed}.json", result.final_policy.to_dict())
        _write_json(out / f"summary_seed{seed}.json", summary)
        click.echo(
            f"seed {seed}: terminated={result.terminated} iterations={len(result.logs)} "
            f"({time.perf_counter() - started:.2f} s)"
        )


# The columns of an offline command's ``results.csv``, one row per (K, seed); ``report`` reads K and gap.
_RESULTS_HEADER = ["K", "seed", "gap", "lcb_value", "iota", "c_infinity"]


def _offline_runner(env, true_model, candidates, behavior, cfg: dict):
    """The run for one (K, seed); what does not depend on them is computed here, once per command."""
    space = env.space
    iota = ensure_behavior_coverage(behavior, true_model.core_tests)
    reward_leaves = env.reward.leaf_table(space)
    opt_policy, _ = plan_on_table(space, true_model.prob_table(space.horizon) * reward_leaves)
    coverage = coverage_coefficient(env, opt_policy, behavior)
    given = cfg.get("coverage")
    constants = _env_summary(cfg, env, true_model)

    def run(n_episodes: int, seed: int):
        values, echo = _resolve_params(
            cfg, constants, "offline", n_episodes, coverage=coverage if given is None else given, iota=iota
        )
        dataset = collect_offline(env, behavior, n_episodes, seed)
        result = run_psr_lcb(dataset, candidates, OfflineConfig(**values), reward_leaves)
        gap = offline_gap(env, true_model, opt_policy, result.policy)
        return result, gap, iota, coverage, echo

    return run


@main.command("run-offline")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seeds", default=None)
def run_offline(config_path: str, out_dir: str, seeds: str | None) -> None:
    """Collect behavior data, run the pessimistic pipeline, write outputs."""
    config = _load_config(config_path)
    ocfg = _section(config, "offline", ("n_episodes",))
    seed_list = _seed_list(config, seeds)
    out = _out_dir(out_dir)
    env = build_env(_require(config, "env"))
    true_model, _ = default_psr(env)
    candidates = build_candidates(env, config.get("candidates", {"mode": "include_true"}))
    behavior = build_behavior(config.get("behavior", "uniform"), env.space)
    run = _offline_runner(env, true_model, candidates, behavior, ocfg)
    rows = []
    for seed in seed_list:
        started = time.perf_counter()
        result, gap, iota, coverage, echo = run(ocfg["n_episodes"], seed)
        rows.append([ocfg["n_episodes"], seed, gap, result.pessimistic_value, iota, coverage])
        _write_json(out / f"model_seed{seed}.json", result.model.to_dict())
        _write_json(out / f"policy_seed{seed}.json", result.policy.to_dict())
        _write_json(
            out / f"summary_seed{seed}.json",
            {
                "run_id": f"offline-seed{seed}",
                "seed": seed,
                "K": ocfg["n_episodes"],
                "gap": gap,
                "lcb_value": result.pessimistic_value,
                "iota": iota,
                "c_infinity": coverage,
                "params": echo,
            },
        )
        click.echo(f"seed {seed}: gap={gap:.4f} ({time.perf_counter() - started:.2f} s)")
    _write_csv(out / "results.csv", _RESULTS_HEADER, rows)


@main.command("sweep-offline")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--k-list", default="250,1000,4000")
@click.option("--seeds", default="20", help="Seed count or comma-separated list.")
def sweep_offline(config_path: str, out_dir: str, k_list: str, seeds: str) -> None:
    """Gap-versus-data-size sweep; one CSV row per (K, seed)."""
    config = _load_config(config_path)
    ocfg = _section(config, "offline")
    ks = _integers("--k-list", k_list)
    seed_list = _integers("--seeds", seeds)
    if "," not in seeds:  # a count, not a list
        if seed_list[0] < 1:
            raise PsrLabError(f"--seeds count must be at least 1, got {seed_list[0]}")
        seed_list = list(range(seed_list[0]))
    out = _out_dir(out_dir)
    env = build_env(_require(config, "env"))
    true_model, _ = default_psr(env)
    candidates = build_candidates(env, config.get("candidates", {"mode": "include_true"}))
    behavior = build_behavior(config.get("behavior", "uniform"), env.space)
    run = _offline_runner(env, true_model, candidates, behavior, ocfg)
    rows = []
    medians = {}
    for K in ks:
        gaps = []
        for seed in seed_list:
            result, gap, iota, coverage, _ = run(K, seed)
            rows.append([K, seed, gap, result.pessimistic_value, iota, coverage])
            gaps.append(gap)
            _write_json(out / f"model_K{K}_seed{seed}.json", result.model.to_dict())
            _write_json(out / f"policy_K{K}_seed{seed}.json", result.policy.to_dict())
        medians[K] = float(np.median(gaps))
        click.echo(f"K={K}: median gap {medians[K]:.4f}")
    _write_csv(out / "results.csv", _RESULTS_HEADER, rows)
    _write_json(out / "medians.json", {str(k): v for k, v in medians.items()})


@main.command("verify")
@click.option("--suite", default="all", type=click.Choice(sorted(SUITES) + ["all"]))
@click.option("--seeds", default=100, type=click.IntRange(min=1))
def verify_cmd(suite: str, seeds: int) -> None:
    """Run property suites; exit nonzero on any failed check."""
    report = Report()
    seconds = {}
    for name in SUITES if suite == "all" else [suite]:
        started = time.perf_counter()
        report.results += verify(name, seeds).results
        seconds[name] = time.perf_counter() - started
    for line in report.lines():
        click.echo(line)
    for name, elapsed in seconds.items():
        click.echo(f"suite {name}: {elapsed:.2f} s")
    passed = sum(1 for r in report.results if r.passed)
    click.echo(f"{passed}/{len(report.results)} checks passed")
    if not report.all_passed:
        sys.exit(1)


@main.command("report")
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
def report_cmd(out_dir: str) -> None:
    """Summarize the JSON/CSV artifacts of a finished run directory."""
    out = Path(out_dir)
    summaries = sorted(out.glob("summary_seed*.json"))
    if summaries:
        gaps, terms = [], []
        for path in summaries:
            data = _read_json(str(path), "summary")
            if not isinstance(data, dict):
                raise PsrLabError(f"summary {str(path)!r} must hold a JSON object")
            if data.get("gap") is not None:
                check_numbers({}, {f"'gap' in {str(path)!r}": data["gap"]})
                if not abs(data["gap"]) <= sys.float_info.max:  # NaN, Infinity, or an integer too large for a float
                    raise PsrLabError(f"'gap' in {str(path)!r} must be finite, got {data['gap']!r}")
                gaps.append(data["gap"])
            if "terminated" in data:
                if not isinstance(data["terminated"], bool):
                    raise PsrLabError(f"'terminated' in {str(path)!r} must be true or false, got {data['terminated']!r}")
                terms.append(data["terminated"])
        click.echo(f"runs: {len(summaries)}")
        if terms:
            click.echo(f"terminated: {sum(terms)}/{len(terms)}")
        if gaps:
            click.echo(f"gap median {float(np.median(gaps)):.4f} max {max(gaps):.4f}")
    results = out / "results.csv"
    if results.exists():
        try:
            with open(results, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:  # unreadable, not UTF-8, or not CSV
            raise PsrLabError(f"cannot read {str(results)!r}: {exc}") from exc
        by_k: dict[int, list[float]] = {}
        for n, row in enumerate(rows, start=1):
            try:
                k, gap = int(row["K"]), float(row["gap"])
            except (KeyError, TypeError, ValueError) as exc:  # a missing column or cell, or not a number
                raise PsrLabError(f"{str(results)!r} row {n} needs an integer K and a numeric gap, got {row!r}") from exc
            if not math.isfinite(gap):
                raise PsrLabError(f"{str(results)!r} row {n} has a gap that is not finite, got {row['gap']!r}")
            by_k.setdefault(k, []).append(gap)
        for k in sorted(by_k):
            click.echo(f"K={k}: n={len(by_k[k])} median gap {float(np.median(by_k[k])):.4f}")
    if not summaries and not results.exists():
        click.echo("nothing to report")


if __name__ == "__main__":
    main()
