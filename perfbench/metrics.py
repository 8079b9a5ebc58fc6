"""Metric definitions and the arithmetic shared by the three workloads.

Every workload prints every end-to-end metric (untraced run) or every
per-layer metric (traced run).  End-to-end metrics are defined on all three
workloads through their operation kinds: ``service_mix`` has queries, pushes
and retracts; ``cold_triq`` has cold queries; ``closure_shapes`` has the
wide and the deep closure.  A per-layer metric a workload does not exercise
reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from common import CALIBRATION_REFERENCE_MS, median

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is rejected.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "ops_per_s": ("1/s", "higher", 0.15),
    "op_p50_ms": ("ms", "lower", 0.2),
}

#: name -> (unit, better).  Grouped by the module each one measures.
PER_LAYER = {
    # the workload's own operation kinds, from the untraced half of the run
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "push_p50_ms": ("ms", "lower"),
    "retract_p50_ms": ("ms", "lower"),
    "write_p90_ms": ("ms", "lower"),
    "cold_query_p50_ms": ("ms", "lower"),
    "wide_facts_per_s": ("1/s", "higher"),
    "deep_facts_per_s": ("1/s", "higher"),
    # service.http
    "http.residual_ms": ("ms", "lower"),
    "http.requests": ("count", "higher"),
    "http.failed": ("count", "lower"),
    # sparql.parser
    "sparql.parse_ms": ("ms", "lower"),
    "sparql.parses": ("count", "lower"),
    # translation
    "entailment.view_eval_ms": ("ms", "lower"),
    "entailment.answers": ("count", "higher"),
    "entailment.translate_ms": ("ms", "lower"),
    # service.view
    "view.consistency_ms": ("ms", "lower"),
    "view.consistency_calls": ("count", "lower"),
    # engine.incremental
    "incremental.push_ms": ("ms", "lower"),
    "incremental.retract_ms": ("ms", "lower"),
    "incremental.push_fixpoint_ms": ("ms", "lower"),
    "dred.overdelete_ms": ("ms", "lower"),
    "dred.rederive_ms": ("ms", "lower"),
    "dred.tombstone_ms": ("ms", "lower"),
    "dred.null_gc_ms": ("ms", "lower"),
    "dred.overdeleted": ("count", "lower"),
    "dred.rederived": ("count", "lower"),
    "dred.rederive_ratio": ("ratio", "lower"),
    # engine.index
    "index.compactions": ("count", "lower"),
    "index.tombstone_ratio_max": ("ratio", "lower"),
    # engine.interning
    "interning.terms": ("count", "lower"),
    # datalog.chase
    "chase.rounds": ("count", "lower"),
    "chase.round_ms": ("ms", "lower"),
    # core.warded_engine
    "warded.materialise_ms": ("ms", "lower"),
    "warded.answer_ms": ("ms", "lower"),
    # datalog.seminaive
    "seminaive.wide.evaluate_ms": ("ms", "lower"),
    "seminaive.wide.rounds": ("count", "lower"),
    "seminaive.deep.evaluate_ms": ("ms", "lower"),
    "seminaive.deep.rounds": ("count", "lower"),
    # engine.plan / plancache
    "plan.compile_ms": ("ms", "lower"),
    "plan.compiles": ("count", "lower"),
    # engine.batch / kernels
    "plan.run_batch_ms": ("ms", "lower"),
    "plan.run_batch_calls": ("count", "lower"),
    "batch.probe_groups": ("count", "lower"),
    # firing, dedup and append
    "engine.facts_added": ("count", "lower"),
    "engine.triggers_fired": ("count", "lower"),
    "engine.nulls_invented": ("count", "lower"),
    "engine.dedup_ratio": ("ratio", "higher"),
    "engine.fire_append_ms": ("ms", "lower"),
    # rdf.parser
    "rdf.parse_ms": ("ms", "lower"),
    # the trace itself
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(setups: List[float], peaks: List[float],
               samples: Iterable[Tuple[str, object, float, float]]) -> Dict[str, float]:
    """The end-to-end metrics every workload prints.

    ``samples`` holds one (kind, round, milliseconds, calibration ms) tuple
    per timed operation.  Times are scaled to the reference core speed (see
    :func:`common.calibrate`): an operation that took ``ms`` while the
    calibration loop took ``cal`` counts as ``ms * CALIBRATION_REFERENCE_MS
    / cal``; the median set-up time is scaled by the run's median
    calibration, since no calibration runs during a set-up.  ``ops_per_s`` is operations per scaled busy second, per round,
    median over rounds.  ``op_p50_ms`` is the geometric mean, over the
    workload's operation kinds, of each kind's median, so a change to any
    kind moves it and no kind's count outweighs another's.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    by_round: Dict[object, List[float]] = defaultdict(list)
    calibrations = []
    for kind, round_key, ms, cal in samples:
        scaled = ms * CALIBRATION_REFERENCE_MS / cal
        by_kind[kind].append(scaled)
        by_round[round_key].append(scaled)
        calibrations.append(cal)
    return {
        "setup_s": median(setups) * CALIBRATION_REFERENCE_MS / median(calibrations),
        "peak_rss_mb": median(peaks),
        "ops_per_s": median([1000.0 * len(v) / sum(v) for v in by_round.values()]),
        "op_p50_ms": geometric_mean([median(v) for v in by_kind.values()]),
    }


class LayerTotals:
    """Read access to a merged probe snapshot (see :mod:`probes`)."""

    def __init__(self, totals: dict):
        if totals["dropped"]:
            raise RuntimeError(f"the trace ring dropped {totals['dropped']} events; "
                               "span metrics would be undercounted")
        self.totals = totals

    def calls(self, probe: str) -> int:
        return self.totals["calls"].get(probe, 0)

    def total_ms(self, probe: str) -> float:
        return self.totals["ns"].get(probe, 0) / 1e6

    def per_call_ms(self, probe: str) -> float:
        calls = self.calls(probe)
        return self.total_ms(probe) / calls if calls else 0.0

    def span_count(self, span: str) -> int:
        return self.totals["tracer"].get(span, {}).get("count", 0)

    def span_ms(self, span: str) -> float:
        return self.totals["tracer"].get(span, {}).get("us", 0) / 1000.0

    def span_attr(self, span: str, attr: str) -> int:
        return self.totals["tracer"].get(span, {}).get(attr, 0)

    def stat(self, counter: str) -> int:
        return self.totals["stats"].get(counter, 0)

    def engine_counters(self, ops: int) -> Dict[str, float]:
        """Plan, batch and firing counters, per timed operation."""
        fired = self.stat("triggers_fired")
        return {
            "plan.compile_ms": self.total_ms("plan.compile") / ops,
            "plan.compiles": self.calls("plan.compile") / ops,
            "plan.run_batch_ms": self.total_ms("plan.run_batch") / ops,
            "plan.run_batch_calls": self.calls("plan.run_batch") / ops,
            "batch.probe_groups": self.stat("batch_probe_groups") / ops,
            "engine.facts_added": self.stat("facts_added") / ops,
            "engine.triggers_fired": fired / ops,
            "engine.nulls_invented": self.stat("nulls_invented") / ops,
            "engine.dedup_ratio": self.stat("facts_added") / fired if fired else 0.0,
        }

    def fire_append_ms(self, wall_probe: str, ops: int) -> float:
        """Engine wall minus matching and compiling, per operation."""
        rest = (self.total_ms(wall_probe) - self.total_ms("plan.run_batch")
                - self.total_ms("plan.compile"))
        return rest / ops


def trace_shares(traced_op_ms: float, plain_op_ms: float,
                 attributed_ms: float, wall_ms: float) -> Dict[str, float]:
    """Tracing overhead (traced vs untraced mean op time) and unattributed share."""
    return {
        "trace.overhead_pct": 100.0 * (traced_op_ms / plain_op_ms - 1.0),
        "trace.unattributed_pct": 100.0 * (1.0 - attributed_ms / wall_ms),
    }
