"""Self-tests of the benchmark: tracing only observes, and the declaration matches.

Run with ``python -m pytest perfbench``.  The workloads run at reduced
sizes here; the benchmark itself repeats the same comparison at full size
on every traced run.
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "online-small": lambda: workloads.OnlineSmall(0, n_seeds=2, iterations=8),
    "online-large": lambda: workloads.OnlineLarge(0, n_seeds=1, iterations=3),
    "offline-sweep": lambda: workloads.OfflineSweep(0, n_seeds=2, k_list=(250, 1000)),
    "verify-all": lambda: workloads.VerifyAll(0, n_seeds=2),
}


def _bindings() -> dict:
    """Every name under which tracing could replace an object."""
    out = {}
    for name, module in sys.modules.items():
        if name == "psrlab" or name.startswith("psrlab."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (importlib.import_module("psrlab.pomdp").TabularPomdp, importlib.import_module("psrlab.bonus").BonusEvaluator):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    out.update({("SUITES", k): v for k, v in importlib.import_module("psrlab.verify").SUITES.items()})
    return out


def test_small_sizes_cover_every_workload():
    assert set(SMALL) == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_gives_identical_results_and_unwinds(name):
    workload = SMALL[name]()
    before = _bindings()
    plain = run.run_pass(workload)
    tracer = tracing.Tracer(f"test/{name}")
    traced = run.run_pass(workload, tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left installed"
    assert traced["judgement"].fingerprint == plain["judgement"].fingerprint
    layer = tracer.metrics()
    assert layer["pomdp.sample_episode.calls"] > 0
    assert layer["estimation.constrained_mle.calls"] > 0
    assert set(layer) | {"trace.overhead_frac"} == set(tracing.layer_metric_units())


def test_speed_sampler_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedSampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.spent < 0.3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_reports_calibrated_time():
    result = run.run_pass(SMALL["online-small"]())
    assert result["cal_s"] and 0.0 < result["wall_s"] <= sum(result["unit_s"])
    slowest, fastest = max(result["cal_s"]), min(result["cal_s"])
    assert result["wall_s"] / slowest * (1 - 1e-9) <= result["wall_cal"] <= result["wall_s"] / fastest * (1 + 1e-9)


def test_loop_time_leaves_out_stalls():
    assert calibrate.loop_time([1.0, 1.0, 1.0, 50.0]) == 1.0
    assert calibrate.loop_time([2.0]) == 2.0


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "online-large", lambda seed: SMALL["online-large"]())
    line, record, _ = run.run_workload("online-large", 0, 0.1, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = tracing.layer_metric_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in line["metrics"].items() if not trace)
    json.dumps(record)


def test_declaration_matches_what_the_runner_reports():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.layer_metric_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
