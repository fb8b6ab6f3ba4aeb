"""Timing wrappers on psrlab's entry points, installed from outside the package.

A traced pass replaces each entry point under every name its callers look
up: every ``psrlab`` module attribute that holds the function (so
``from .online import _build_evaluator`` in another module is covered too),
the class attribute for methods, and the entry of the verify suite table.
Each wrapper keeps a span in memory -- name, start, end, parent span -- and
the counts below are taken at the same boundaries.  ``remove`` puts every
original object back; nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

ALL = ("calls", "busy_s", "self_s")
BUSY = ("busy_s", "self_s")
SELF = ("self_s",)

# metric prefix, module, class (None for a module function), attribute, reported metrics
ENTRY_POINTS = (
    ("pomdp.sample_episode", "psrlab.pomdp", "TabularPomdp", "sample_episode", ALL),
    ("pomdp.default_psr", "psrlab.pomdp", None, "default_psr", BUSY),
    ("estimation.make_candidates", "psrlab.estimation", None, "make_candidates", BUSY),
    ("estimation.constrained_mle", "psrlab.estimation", None, "constrained_mle", ALL),
    ("estimation.log_likelihood", "psrlab.estimation", None, "log_likelihood", BUSY),
    ("estimation.conditional_tv_diagnostic", "psrlab.estimation", None, "conditional_tv_diagnostic", BUSY),
    ("online.build_evaluator", "psrlab.online", None, "_build_evaluator", BUSY),
    ("online.run_psr_ucb", "psrlab.online", None, "run_psr_ucb", SELF),
    ("online.evaluate_output", "psrlab.online", None, "evaluate_output", BUSY),
    ("bonus.bonus_table", "psrlab.bonus", "BonusEvaluator", "bonus_table", ALL),
    ("planner.plan_on_table", "psrlab.planner", None, "plan_on_table", ALL),
    ("planner.leaf_table", "psrlab.planner", None, "leaf_table", BUSY),
    ("planner.policy_value_on_table", "psrlab.planner", None, "policy_value_on_table", BUSY),
    ("policies.policy_weight_vector", "psrlab.policies", None, "policy_weight_vector", ALL),
    ("psr.hellinger_sq", "psrlab.psr", None, "hellinger_sq", BUSY),
    ("psr.tv_distance", "psrlab.psr", None, "tv_distance", BUSY),
    ("offline.collect_offline", "psrlab.offline", None, "collect_offline", BUSY),
    ("offline.run_psr_lcb", "psrlab.offline", None, "run_psr_lcb", SELF),
    ("offline.coverage_coefficient", "psrlab.offline", None, "coverage_coefficient", BUSY),
    ("offline.min_exploration_prob", "psrlab.offline", None, "min_exploration_prob", BUSY),
    ("offline.offline_gap", "psrlab.offline", None, "offline_gap", BUSY),
)
VERIFY_SUITES = ("core-identities", "lemmas", "mle-events", "ucb-validity")


def _table_bytes(model) -> int:
    """Bytes of the state and probability tables over every depth, by shape."""
    space = model.space
    return sum(space.n_histories(h) * (d + 1) * 8 for h, d in enumerate(model.dims))


def _observe_mle(counts: Counter, args, kwargs, result) -> None:
    candidates = args[0] if args else kwargs["candidates"]
    counts["estimation.feasible"] += len(result.feasible_ids)
    counts["estimation.candidates"] += len(candidates)


def _observe_candidates(counts: Counter, args, kwargs, result) -> None:
    counts["psr.candidates"] += len(result)
    counts["psr.table_bytes_computed"] += sum(_table_bytes(m) for m in result.models)


OBSERVERS = {
    "estimation.constrained_mle": _observe_mle,
    "estimation.make_candidates": _observe_candidates,
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    reported = [(p, r) for p, _, _, _, r in ENTRY_POINTS] + [(f"verify.{s}", BUSY) for s in VERIFY_SUITES]
    for prefix, kinds in reported:
        for kind in kinds:
            units[f"{prefix}.{kind}"] = "count" if kind == "calls" else "s"
        if prefix == "estimation.constrained_mle":
            units["estimation.feasible_ratio"] = "ratio"
    units["psr.table_bytes_computed"] = "B"
    units["trace.overhead_frac"] = "ratio"
    return units


def _psrlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "psrlab" or name.startswith("psrlab.")]


class Tracer:
    """Spans and counts of one traced pass; install, run, remove."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, bool]] = []  # name, start, end, parent, outermost
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outermost = self._open[name] == 0
            self.spans.append((name, 0.0, 0.0, parent, outermost))
            self._stack.append(idx)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, outermost)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _psrlab_modules()
        for prefix, module_name, cls_name, attr, _ in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(prefix, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(prefix, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        suites = importlib.import_module("psrlab.verify").SUITES
        for suite in list(suites):
            self._patch(suites, suite, self._wrap(f"verify.{suite}", suites[suite]))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; layers that did not run read 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                busy[name] += end - start
            own[name] += end - start - child[i]
        out: dict[str, float] = {}
        for metric in layer_metric_units():
            prefix, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[prefix]
            elif kind == "busy_s":
                out[metric] = busy[prefix]
            elif kind == "self_s":
                out[metric] = own[prefix]
        seen = self.counts["estimation.candidates"]
        out["estimation.feasible_ratio"] = self.counts["estimation.feasible"] / seen if seen else 0.0
        out["psr.table_bytes_computed"] = self.counts["psr.table_bytes_computed"]
        return out

    def span_records(self):
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            yield {"run": self.run_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
