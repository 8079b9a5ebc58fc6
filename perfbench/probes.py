"""Per-layer probes for the traced run, installed from outside the program.

:func:`install` wraps the public entry point of each layer with a timer
(count + total nanoseconds, and the time spent outside any other probe, so
the unattributed share can be computed), and enables the program's own
``repro.obs.TRACER`` so the spans the engine already records (``delta.push``,
``retract.*``, ``chase.round``, ``seminaive.rule``) are aggregated too.
:func:`snapshot` returns everything, plus the engine's ``STATS`` counters, as
one JSON-able dict; :func:`difference` subtracts two snapshots so a timed
section can be isolated from set-up.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: (probe name, module, function or class, method or None).
TARGETS = (
    ("sparql.parse", "repro.sparql.parser", "parse_sparql", None),
    ("entailment.translate", "repro.translation.entailment_regime",
     "entailment_regime_query", None),
    ("entailment.view_eval", "repro.service.view", "ViewSnapshot", "query"),
    ("view.consistency", "repro.engine.incremental", "DeltaSession", "check_consistency"),
    ("incremental.push", "repro.engine.incremental", "DeltaSession", "push"),
    ("incremental.retract", "repro.engine.incremental", "DeltaSession", "retract"),
    ("warded.materialise", "repro.core.warded_engine", "WardedEngine", "materialise"),
    ("warded.evaluate", "repro.core.warded_engine", "WardedEngine", "evaluate_query"),
    ("seminaive.evaluate", "repro.datalog.seminaive", "SemiNaiveEvaluator", "evaluate"),
    ("plan.compile", "repro.engine.plan", "compile_rule", None),
    ("plan.run_batch", "repro.engine.plan", "JoinPlan", "run_batch"),
    ("rdf.parse", "repro.rdf.parser", "parse_ntriples", None),
)

#: Modules imported before patching, so every ``from ... import`` copy of a
#: wrapped function exists and is replaced too.
_PRELOAD = (
    "repro.service.http", "repro.service.view", "repro.translation.entailment_regime",
    "repro.core.warded_engine", "repro.datalog.seminaive", "repro.datalog.chase",
    "repro.engine.incremental", "repro.rdf.parser",
)

_TRACE_CAPACITY = 1 << 17


class Probes:
    """Call counters and timers shared by every wrapper in one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)
        self.top_ns = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.tracer = defaultdict(lambda: defaultdict(int))
        self.dropped = 0

    def wrap(self, name, function):
        local, lock = self._local, self._lock
        calls, ns = self.calls, self.ns
        clock = time.perf_counter_ns

        def probe(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                local.depth = depth
                with lock:
                    calls[name] += 1
                    ns[name] += elapsed
                    if depth == 0:
                        self.top_ns += elapsed

        probe.__wrapped__ = function
        probe.__name__ = getattr(function, "__name__", name)
        return probe

    def drain_tracer(self) -> None:
        """Fold the tracer's recorded events into per-name totals."""
        from repro.obs import TRACER

        for event in TRACER.events():
            name = event["name"]
            if name == "seminaive.rule" and not event["attrs"].get("naive"):
                name = "seminaive.rule.delta"
            totals = self.tracer[name]
            totals["count"] += 1
            totals["us"] += event["duration_us"]
            for key, value in event["attrs"].items():
                if isinstance(value, int) and not isinstance(value, bool):
                    totals[key] += value
        self.dropped += TRACER.dropped
        TRACER.clear()

    def snapshot(self) -> dict:
        """Everything recorded so far (cumulative), as plain JSON data."""
        from repro.engine.stats import STATS

        self.drain_tracer()
        with self._lock:
            return {
                "calls": dict(self.calls),
                "ns": dict(self.ns),
                "top_ns": self.top_ns,
                "tracer": {name: dict(t) for name, t in self.tracer.items()},
                "dropped": self.dropped,
                "stats": STATS.snapshot(),
            }


def install() -> Probes:
    """Wrap every target and enable the program's tracer; returns the probes."""
    from repro.obs import TRACER

    for module in _PRELOAD:
        importlib.import_module(module)
    probes = Probes()
    for name, module_name, owner, method in TARGETS:
        module = importlib.import_module(module_name)
        if method is not None:
            cls = getattr(module, owner)
            setattr(cls, method, probes.wrap(name, getattr(cls, method)))
            continue
        original = getattr(module, owner)
        wrapper = probes.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, owner, None) is original:
                setattr(loaded, owner, wrapper)
    TRACER.enable(capacity=_TRACE_CAPACITY)
    return probes


def difference(end: dict, start: dict) -> dict:
    """``end - start`` for two :meth:`Probes.snapshot` results."""

    def sub(a: dict, b: dict) -> dict:
        return {key: a[key] - b.get(key, 0) for key in a}

    return {
        "calls": sub(end["calls"], start["calls"]),
        "ns": sub(end["ns"], start["ns"]),
        "top_ns": end["top_ns"] - start["top_ns"],
        "tracer": {
            name: sub(totals, start["tracer"].get(name, {}))
            for name, totals in end["tracer"].items()
        },
        "dropped": end["dropped"] - start["dropped"],
        "stats": sub(end["stats"], start["stats"]),
    }


def merge(parts) -> dict:
    """Sum several snapshots or differences (one per traced segment)."""
    total = {"calls": defaultdict(int), "ns": defaultdict(int), "top_ns": 0,
             "tracer": defaultdict(lambda: defaultdict(int)), "dropped": 0,
             "stats": defaultdict(int)}
    for part in parts:
        for key in ("calls", "ns", "stats"):
            for name, value in part[key].items():
                total[key][name] += value
        for name, totals in part["tracer"].items():
            for key, value in totals.items():
                total["tracer"][name][key] += value
        total["top_ns"] += part["top_ns"]
        total["dropped"] += part["dropped"]
    return total
