"""Every psrlab name the benchmark harness looks up still exists.

``perfbench/tracer.py`` wraps entry points by module and attribute name, and
``perfbench/workloads.py`` calls a few more; a deletion that breaks either
fails here first.  The tracer file is loaded by path and only read.
"""

import importlib
import importlib.util
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


def _entry_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


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
