"""Every psrlab name the benchmark harness looks up still exists.

``perfbench/tracer.py`` wraps entry points by module and attribute name, and
``perfbench/workloads.py`` calls a few more and reads fields of the online
loop's results; a deletion or rename that breaks either fails here first.
The tracer and workload files are loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# What perfbench/workloads.py calls, beyond the traced entry points.
WORKLOAD_CALLS = (
    ("psrlab.cli", "build_env"),
    ("psrlab.cli", "build_candidates"),
    ("psrlab.cli", "build_behavior"),
    ("psrlab.cli", "main"),
    ("psrlab.online", "OnlineConfig"),
    ("psrlab.planner", "leaf_table"),
    ("psrlab.pomdp", "random_revealing"),
    ("psrlab.policies", "uniform_policy"),
    ("psrlab.verify", "reference_env"),
    ("psrlab.verify", "verify"),
    ("psrlab.verify", "SUITES"),
)

# The fields perfbench/workloads.py reads from run_psr_ucb's result and its logs.
RESULT_FIELDS = {
    "OnlineResult": ("logs", "terminated", "last_model"),
    "IterationLog": (
        "k", "candidate_id", "candidate_label", "feasible_size", "ucb_value", "bucket_sizes", "terminated", "wall_clock",
    ),
}


def _load(path: Path):
    """A perfbench file as a module of its own, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{path.stem}_contract", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


ENTRY_POINTS = _load(TRACER).ENTRY_POINTS
WORKLOADS = _load(TRACER.with_name("workloads.py")).WORKLOADS


@pytest.mark.parametrize("prefix,module,cls,attr,_kinds", ENTRY_POINTS, ids=[row[0] for row in ENTRY_POINTS])
def test_tracer_entry_point_resolves(prefix, module, cls, attr, _kinds):
    mod = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(mod, attr, None)), prefix
    else:
        assert callable(getattr(mod, cls).__dict__.get(attr)), prefix


@pytest.mark.parametrize("module,attr", WORKLOAD_CALLS, ids=[f"{m}.{a}" for m, a in WORKLOAD_CALLS])
def test_workload_call_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_workload_reward_leaves_resolve():
    from psrlab.pomdp import TabularPomdp

    assert callable(TabularPomdp.__dict__.get("reward_of"))


@pytest.mark.parametrize("cls", sorted(RESULT_FIELDS))
def test_workload_result_fields_exist(cls):
    names = {f.name for f in dataclasses.fields(getattr(importlib.import_module("psrlab.online"), cls))}
    assert set(RESULT_FIELDS[cls]) <= names


def test_iteration_log_bucket_sizes_count_the_entries():
    """The online loop adds one entry per step per iteration, so after iteration k every bucket holds k."""
    from psrlab.estimation import make_candidates
    from psrlab.online import OnlineConfig, run_psr_ucb
    from psrlab.verify import reference_env

    env = reference_env()
    config = OnlineConfig(max_iterations=3, epsilon=1e-6, delta=0.1, p_min=1e-9, beta=5.0, lam=1.0, alpha=0.5, seed=0)
    result = run_psr_ucb(env, config, make_candidates(env, "include_true"))
    assert [log.bucket_sizes for log in result.logs] == [(k,) * env.space.horizon for k in (1, 2, 3)]
    assert sum(result.logs[-1].bucket_sizes) == result.dataset.size()


def test_online_loop_selects_once_per_iteration_through_the_traced_name(monkeypatch):
    """The loop calls ``constrained_mle`` by the module name the tracer wraps, once per
    iteration, so the benchmark's selection counter cannot silently read 0."""
    import psrlab.online
    from psrlab.estimation import make_candidates
    from psrlab.online import OnlineConfig, run_psr_ucb
    from psrlab.verify import reference_env

    calls = []
    select = psrlab.online.constrained_mle

    def counted(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    monkeypatch.setattr(psrlab.online, "constrained_mle", counted)
    env = reference_env()
    config = OnlineConfig(max_iterations=5, epsilon=1e-6, delta=0.1, p_min=1e-9, beta=5.0, lam=1.0, alpha=0.5, seed=0)
    candidates = make_candidates(env, "dithered", seed=5, n=4, scale=0.05)
    result = run_psr_ucb(env, config, candidates)
    assert len(result.logs) == 5
    assert len(calls) == 5
    assert all(args[0] is candidates and args[1] is result.dataset for args in calls)


def test_online_iteration_reaches_every_traced_stage(monkeypatch):
    """Per iteration the loop reaches the sampler once per step, and selection, the evaluator build,
    the bonus table and the plan once each, under the names the tracer wraps, so none of those
    per-layer counters can be bypassed by a private path."""
    import sys

    from psrlab.estimation import make_candidates
    from psrlab.online import OnlineConfig, run_psr_ucb
    from psrlab.verify import reference_env

    stages = {
        "pomdp.sample_episode", "estimation.constrained_mle", "online.build_evaluator", "bonus.bonus_table",
        "planner.plan_on_table",
    }
    calls = dict.fromkeys(stages, 0)

    def counted(prefix, original):
        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            return original(*args, **kwargs)
        return wrapper

    for prefix, module, cls, attr, _kinds in ENTRY_POINTS:
        if prefix not in stages:
            continue
        if cls is not None:
            owner = getattr(importlib.import_module(module), cls)
            monkeypatch.setattr(owner, attr, counted(prefix, owner.__dict__[attr]))
            continue
        original = getattr(importlib.import_module(module), attr)
        for name, mod in list(sys.modules.items()):
            if (name == "psrlab" or name.startswith("psrlab.")) and getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counted(prefix, original))
    env = reference_env()
    config = OnlineConfig(max_iterations=3, epsilon=1e-6, delta=0.1, p_min=1e-9, beta=5.0, lam=1.0, alpha=0.5, seed=0)
    result = run_psr_ucb(env, config, make_candidates(env, "dithered", seed=5, n=4, scale=0.05))
    assert len(result.logs) == 3 and not result.terminated
    per_iteration = {prefix: 1 for prefix in stages} | {"pomdp.sample_episode": env.space.horizon}
    assert calls == {prefix: 3 * n for prefix, n in per_iteration.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_converts_its_environment_once(monkeypatch, name):
    """Every set-up asks ``default_psr`` for the truth, and ``make_candidates`` asks again per family;
    the environment converts on the first call and answers the others from its cache."""
    import psrlab.pomdp

    converted = []
    convert = psrlab.pomdp.pomdp_to_psr
    monkeypatch.setattr(psrlab.pomdp, "pomdp_to_psr", lambda env, g: converted.append(env) or convert(env, g))
    state = WORKLOADS[name](seed=0).setup()
    assert len(converted) == 1 and converted[0] is state[0]
