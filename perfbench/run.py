"""psrlab benchmark: run one workload in this process, or every workload in turn.

    python3 perfbench/run.py --workload online-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run does a warm-up pass, then repeats passes of its workload -- fresh
set-up, then the timed work -- for about ``--seconds`` seconds and reports
the mean calibrated pass time (``wall_cal``, see calibrate.py), the median
calibrated set-up time and, per layer, medians over the traced passes.  With
``--trace 0`` no tracer is installed and the run reports the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the run
reports the per-layer metrics of the traced ones.  Every pass must give the
same results, traced or not.  One line per metric is printed (name, value,
unit, sample count), then, last, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero if any
check failed.  ``--workload all`` runs each workload in its own process.

The seed set is block ``--seed`` of the workload's seed count (see
workloads.py).  Default set: ``--seed 0``.  Held-out set for later claims:
``--seed 101``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("online-small", "online-large", "offline-sweep", "verify-all")
END_TO_END = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5  # calibrated set-ups before every pass, so set-up samples span the run


def _sources_present() -> bool:
    needed = [ROOT / "src" / "psrlab" / "__init__.py"]
    needed += [ROOT / "configs" / name for name in ("online_decay.json", "offline_sweep.json")]
    return all(p.is_file() for p in needed)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def write_spans(path: Path, tracers: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for tracer in tracers:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")


def run_pass(workload, tracer=None) -> dict:
    """Set up, do the timed work unit by unit, then judge the outputs with the clock stopped.

    While the units run, a ``SpeedSampler`` times the reference loop every
    few hundredths of a second.  ``wall_s`` is the units' time less the
    sampler's own; ``wall_cal`` sums each unit's share of it over the loop's
    time sampled during that unit (during the pass, for a unit too short to
    hold a sample).  Dividing unit by unit followed the machine's speed
    closer than dividing the whole pass: over five runs, the run-to-run
    spread of online-small fell from 0.074 to 0.057 and of verify-all from
    0.028 to 0.024.
    """
    from calibrate import SpeedSampler, loop_time
    from workloads import attempt

    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        state = workload.setup()
        setup_s = time.perf_counter() - t0
        out, unit_s, unit_net = {}, [], []
        with SpeedSampler() as sampler:
            for op, fn in workload.units(state):
                first, spent = len(sampler.samples), sampler.spent
                t1 = time.perf_counter()
                out[op] = attempt(fn)
                unit_s.append(time.perf_counter() - t1)
                unit_net.append((unit_s[-1] - (sampler.spent - spent), sampler.samples[first:]))
    finally:
        if tracer is not None:
            tracer.remove()
    judgement = workload.judge(state, out)
    iter_sum = sum(judgement.iter_wall)
    if iter_sum > sum(unit_s):
        judgement.set_checks.append(("iteration clock", False, f"iteration times sum to {iter_sum:.4f} s > wall {sum(unit_s):.4f} s"))
    return {
        "setup_s": setup_s,
        "wall_s": sum(net for net, _ in unit_net),
        "wall_cal": sum(net / loop_time(samples or sampler.samples) for net, samples in unit_net),
        "unit_s": unit_s, "cal_s": sampler.samples, "judgement": judgement, "tracer": tracer,
    }


def pass_time(passes: list[dict], key: str = "wall_cal") -> float:
    """Mean over a run's passes of their calibrated (or, with ``key="wall_s"``, raw) time."""
    return statistics.fmean(p[key] for p in passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    """All passes of one run; returns the result line, the full record and report lines."""
    import calibrate
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_samples = []  # (seconds, seconds at the reference speed)
    plain, traced = [], []
    started = time.perf_counter()
    # The first pass of a process read 10-20% off the later ones in
    # calibrated time; it is checked like every pass but not timed.
    warmup = dict(run_pass(workload), warmup=True)
    while True:
        setup_samples += [calibrate.around(workload.setup) for _ in range(SETUP_REPEATS)]
        use_trace = trace and len(traced) < len(plain)
        tracer = tracing.Tracer(f"{name}/seed{seed}/pass{len(plain) + len(traced)}") if use_trace else None
        result = run_pass(workload, tracer)
        (traced if use_trace else plain).append(result)
        elapsed = time.perf_counter() - started
        per_pass = elapsed / (1 + len(plain) + len(traced))
        if plain and (traced or not trace) and elapsed + per_pass > seconds:
            break

    passes = [warmup] + plain + traced
    first = passes[0]["judgement"]
    attempted = sum(len(p["judgement"].ops) for p in passes)
    failed = sum(p["judgement"].failed for p in passes)
    problems = [
        f"FAIL {op}: {detail}" for p in passes for op, ok, detail in p["judgement"].ops + p["judgement"].set_checks if not ok
    ]
    if any(p["judgement"].fingerprint != first.fingerprint for p in passes):
        problems.append("FAIL passes disagree: results differ between passes (traced or untraced)")
    correct = not problems
    bases = dict(first.bases)
    wall_cal = pass_time(plain)
    wall = pass_time(plain, "wall_s")
    lines = []
    metrics: dict[str, dict] = {}

    def report(metric: str, value, unit: str, samples: int, declared: bool = True) -> None:
        lines.append(f"metric {metric} = {value:.6g} {unit} (n={samples})")
        if declared:
            metrics[metric] = {"value": value, "unit": unit}

    if trace:
        layer = [p["tracer"].metrics() for p in traced]
        traced_cal = pass_time(traced)
        for metric, unit in tracing.layer_metric_units().items():
            if metric == "trace.overhead_frac":
                report(metric, traced_cal / wall_cal - 1.0, unit, len(traced) + len(plain))
            else:
                report(metric, statistics.median(m[metric] for m in layer), unit, len(layer))
        counts = traced[0]["tracer"].counts
        bases["episodes"] = layer[0]["pomdp.sample_episode.calls"]
        lines.append(
            f"base estimation.feasible_ratio: {counts['estimation.feasible']} feasible of "
            f"{counts['estimation.candidates']} candidates over "
            f"{layer[0]['estimation.constrained_mle.calls']} selections per pass"
        )
        lines.append(
            f"base psr.table_bytes_computed: {counts['psr.candidates']} candidates built per pass, "
            f"computed from table shapes, not measured"
        )
        lines.append(f"base trace.overhead_frac: traced wall_cal {traced_cal:.2f} vs untraced {wall_cal:.2f} cal")
        write_spans(HERE / "out" / f"{name}-seed{seed}.spans.jsonl", [p["tracer"] for p in traced])
    else:
        # In plain seconds the fastest of a run's set-ups still moved 29% between
        # two sets of ten runs, as the machine's speed drifted; scaled to the
        # reference speed, their median follows the code, not the machine.
        report("setup_s", statistics.median(cal for _, cal in setup_samples), END_TO_END["setup_s"], len(setup_samples))
        report("wall_cal", wall_cal, END_TO_END["wall_cal"], len(plain))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report("peak_rss_mb", rss_mb, END_TO_END["peak_rss_mb"], 1)
        report("setup_raw_s", statistics.median(raw for raw, _ in setup_samples), "s", len(setup_samples), declared=False)
        report("wall_s", wall, "s", len(plain), declared=False)
        report("cal_ms", 1e3 * statistics.fmean(p["wall_s"] / p["wall_cal"] for p in plain), "ms",
               sum(len(p["cal_s"]) for p in plain), declared=False)
        report("failed_frac", failed / attempted, "ratio", attempted, declared=False)
        iter_wall = [w for p in plain for w in p["judgement"].iter_wall]
        if iter_wall:
            report("iters_per_s", bases["iterations"] / wall, "1/s", len(plain), declared=False)
            deciles = statistics.quantiles(iter_wall, n=10, method="inclusive")
            report("iter_ms.p50", 1e3 * deciles[4], "ms", len(iter_wall), declared=False)
            report("iter_ms.p90", 1e3 * deciles[8], "ms", len(iter_wall), declared=False)
        if "episodes" in bases:
            report("episodes_per_s", bases["episodes"] / wall, "1/s", len(plain), declared=False)

    lines.append("base " + " ".join(f"{k}={v}" for k, v in bases.items()) + f" passes=1+{len(plain)}+{len(traced)} (warm-up+untraced+traced)")
    lines.extend(problems)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(line, workload=name, seed=seed, seconds=seconds, trace=trace, bases=bases, report=lines)
    record["passes"] = [
        {key: p[key] for key in ("setup_s", "wall_s", "wall_cal", "unit_s", "cal_s")} | {"traced": p["tracer"] is not None, "warmup": "warmup" in p}
        for p in passes
    ]
    record["setup_samples"] = setup_samples
    return line, record, lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        out_lines = done.stdout.strip().splitlines()
        for text in out_lines[:-1]:
            print(f"[{name}] {text}")
        try:
            line = json.loads(out_lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(done.stderr)
            line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= line["correct"] and done.returncode == 0
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not _sources_present():
        sys.stderr.write(f"psrlab sources or configs not found under {ROOT}\n")
        return 2
    # Pin BLAS/OpenMP pools before numpy is first imported, here and in child processes.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    line, record, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = environment()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for text in lines:
        print(text)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
