"""Span recording for the traced benchmark run.

Spans are recorded only at the program's public entry points, by
replacing each name where its caller looks it up (``iotdraw.cli.parse_model``,
``iotdraw.engine.initial_state``, ...).  Nothing under ``src/`` changes;
``install`` patches and the returned ``restore`` undoes it.

Each span holds the op it belongs to, its parent span (-1 for a root),
its name and its start and end on ``time.perf_counter``.  Spans live in
columnar arrays so a run of several hundred thousand spans stays small,
and they are written out only when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, object] = {}  # span index -> measure(result)
        self.op_id = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span to the current op and return its index."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.op.append(self.op_id)
        self.parent.append(parent)
        self.name.append(self._name_ids[name])
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(result)`` is kept per span."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.add(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(index)
            self.start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if measure is not None:
                self.values[index] = measure(result)
            return result

        return traced

    def span_name(self, index: int) -> str:
        return self.names[self.name[index]]

    def write_csv(self, path) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op,id,parent,name,start_s,end_s\n")
            origin = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                out.write(f"{self.op[i]},{i},{self.parent[i]},{self.span_name(i)},"
                          f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n")


def self_times(recorder: SpanRecorder, lo: int = 0, hi: int | None = None) -> dict[int, float]:
    """Self time of every span with index in [lo, hi): duration minus children's cover."""
    hi = len(recorder) if hi is None else hi
    start, end = recorder.start, recorder.end
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(lo, hi):
        if recorder.parent[i] >= lo:
            children[recorder.parent[i]].append(i)
    result = {}
    for i in range(lo, hi):
        covered, reach = 0.0, start[i]
        for s, e in sorted((max(start[c], start[i]), min(end[c], end[i])) for c in children[i]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        result[i] = (end[i] - start[i]) - covered
    return result


def _ticks_and_counts(report):
    return report.final_tick + 1, dict(report.counts)


# (module, attribute where the caller looks the name up, span name, measure)
TARGETS = (
    ("iotdraw.cli", "main", "cli.main", None),
    ("iotdraw.cli", "_load", "cli.load", None),
    ("iotdraw.cli", "_write", "cli.write", None),
    ("iotdraw.cli", "print", "cli.print", None),
    ("iotdraw.cli", "parse_model", "modelfmt.parse_model", None),
    ("iotdraw.modelfmt", "build_system", "model.build_system", None),
    ("iotdraw.analysis", "single_source_routes", "model.single_source_routes", None),
    ("iotdraw.validate", "single_source_routes", "model.single_source_routes", None),
    ("iotdraw.cli", "validate_model", "validate.validate_model", None),
    ("iotdraw.analysis", "dependency_edges", "validate.dependency_edges", None),
    ("iotdraw.validate", "dependency_edges", "validate.dependency_edges", None),
    ("iotdraw.validate", "interface_providers", "validate.interface_providers", None),
    ("iotdraw.analysis", "eligible_hosts", "validate.eligible_hosts", len),
    ("iotdraw.validate", "eligible_hosts", "validate.eligible_hosts", len),
    ("iotdraw.cli", "run_simulation", "engine.run_simulation", _ticks_and_counts),
    ("iotdraw.analysis", "run_simulation", "engine.run_simulation", _ticks_and_counts),
    ("iotdraw.engine", "initial_state", "engine.initial_state", None),
    ("iotdraw.engine", "_build_plans", "engine.build_plans", None),
    ("iotdraw.engine", "SimulationReport.events_csv", "engine.events_csv", len),
    ("iotdraw.cli", "enumerate_deployments", "analysis.enumerate_deployments", len),
    ("iotdraw.analysis", "enumerate_deployments", "analysis.enumerate_deployments", len),
    ("iotdraw.extmod", "enumerate_deployments", "analysis.enumerate_deployments", len),
    ("iotdraw.cli", "evaluate_scenarios", "analysis.evaluate_scenarios", len),
    ("iotdraw.extmod", "evaluate_scenarios", "analysis.evaluate_scenarios", len),
    ("iotdraw.cli", "rank_scenarios", "analysis.rank_scenarios", None),
    ("iotdraw.extmod", "rank_scenarios", "analysis.rank_scenarios", None),
    ("iotdraw.cli", "scenarios_to_csv", "analysis.scenarios_to_csv", None),
    ("iotdraw.extmod", "scenarios_to_csv", "analysis.scenarios_to_csv", None),
    ("iotdraw.cli", "lifetime_sweep", "analysis.lifetime_sweep", None),
    ("iotdraw.extmod", "take_snapshot", "extmod.take_snapshot", None),
    ("iotdraw.extmod", "ModuleRegistry.resolve", "extmod.hook", None),
)


def install(recorder: SpanRecorder):
    """Patch every target that exists; return (restore, targets not found)."""
    undo, missing = [], []
    for module_name, attribute, span, measure in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            had_own = leaf in vars(owner)
            original = getattr(owner, leaf) if leaf != "print" else getattr(builtins, "print")
        except AttributeError:
            missing.append(f"{module_name}.{attribute}")
            continue
        if span == "extmod.hook":
            # Hooks are looked up through the registry; wrap what it hands back.
            def replacement(registry, name, _resolve=original, _span=span):
                return recorder.wrap(_span, _resolve(registry, name))
        else:
            replacement = recorder.wrap(span, original, measure)
        setattr(owner, leaf, replacement)
        undo.append((owner, leaf, original if had_own else None))

    def restore():
        for owner, leaf, original in reversed(undo):
            if original is None:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)

    return restore, missing


def layer_metrics(recorder: SpanRecorder, lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures for the spans of one op, indices [lo, hi)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs = self_times(recorder, lo, hi)
    ticks, candidates, sweep_runs = 0, 0, 0
    counts: dict[str, int] = defaultdict(int)
    measured: dict[str, int] = defaultdict(int)
    for i in range(lo, hi):
        name = recorder.span_name(i)
        total[name] += recorder.end[i] - recorder.start[i]
        own[name] += selfs[i]
        calls[name] += 1
        value = recorder.values.get(i)
        if name == "engine.run_simulation" and value is not None:
            ticks += value[0]
            for kind, count in value[1].items():
                counts[kind] += count
            parent = recorder.parent[i]
            if parent >= lo and recorder.span_name(parent) == "analysis.lifetime_sweep":
                sweep_runs += 1
        elif name == "analysis.enumerate_deployments":
            pools = [recorder.values.get(c, 0) for c in range(i + 1, hi)
                     if recorder.parent[c] == i
                     and recorder.span_name(c) == "validate.eligible_hosts"]
            product = 1
            for size in pools:
                product *= size
            candidates += product if pools else 0
        if isinstance(value, int):
            measured[name] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    loop_s = own["engine.run_simulation"]
    requests = counts["PeriodicRequest"] + counts["EventRequest"]
    served = counts["SenseSample"] + counts["CacheHit"] + counts["Actuation"]
    scenarios = measured["analysis.enumerate_deployments"]
    evaluate_s = total["analysis.evaluate_scenarios"]
    hooks_s = total["extmod.hook"] + total["extmod.take_snapshot"]
    return {
        "engine.loop_s": loop_s,
        "engine.ns_per_tick": ratio(loop_s * 1e9, ticks),
        "engine.setup_s": total["engine.initial_state"] + total["engine.build_plans"] + hooks_s,
        "engine.ticks": ticks,
        "engine.requests": requests,
        "engine.served_ratio": ratio(served, requests),
        "engine.cache_hit_ratio": ratio(counts["CacheHit"], counts["CacheHit"] + counts["SenseSample"]),
        "engine.events": sum(counts.values()),
        "engine.events_csv_s": total["engine.events_csv"],
        "engine.events_csv_bytes": measured["engine.events_csv"],
        "analysis.sweep_runs": sweep_runs,
        "analysis.enumerate_s": total["analysis.enumerate_deployments"],
        "analysis.candidates": candidates,
        "analysis.scenarios": scenarios,
        "analysis.feasible_ratio": ratio(scenarios, candidates),
        "analysis.evaluate_s": evaluate_s,
        "analysis.score_us_per_scenario": ratio(evaluate_s * 1e6,
                                                measured["analysis.evaluate_scenarios"]),
        "validate.validate_s": total["validate.validate_model"],
        "validate.dependency_edges_calls": calls["validate.dependency_edges"],
        "validate.interface_providers_calls": calls["validate.interface_providers"],
        "model.build_s": total["model.build_system"],
        "model.routes_calls": calls["model.single_source_routes"],
        "model.routes_s": total["model.single_source_routes"],
        "modelfmt.parse_s": own["modelfmt.parse_model"],
        "extmod.hooks_s": hooks_s,
        "cli.print_s": total["cli.print"],
        "cli.write_s": total["cli.write"],
    }
