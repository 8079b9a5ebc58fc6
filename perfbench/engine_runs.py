"""The ``cold_triq`` and ``closure_shapes`` workloads, parent side.

Each segment is one :mod:`engine_worker` process: its set-up time is read
from here (process start to ``READY``), its peak memory when it is reaped,
and its outputs are checked here against :mod:`oracle`.
"""

from __future__ import annotations

import json
import subprocess
import threading
import time

import inputs
import metrics
import oracle
import probes as probes_module
from common import SEGMENTS, ProgramProcess, median

_SLACK_S = 150.0


def run_segment(workload, number, seed, budget, traced) -> dict:
    proc = ProgramProcess(
        ["perfbench/engine_worker.py", workload, str(seed), repr(budget), "1" if traced else "0"],
        f"{workload}{number}.log", stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(budget + _SLACK_S, proc.signal_kill)
    watchdog.start()
    try:
        ready = proc.proc.stdout.readline()
        setup_s = time.perf_counter() - proc.started
        tail = proc.proc.stdout.read()
        watchdog.cancel()
        status = proc.reap(_SLACK_S)
        if ready.strip() != b"READY" or status != 0:
            raise RuntimeError(f"{workload} worker failed ({status}):\n" + proc.log_tail())
        document = json.loads(tail.decode().strip().splitlines()[-1])
    finally:
        watchdog.cancel()
        proc.kill()
    document.update(setup_s=setup_s, peak_rss_mb=proc.peak_rss_mb, traced=traced)
    return document


def _ms(segments, shape=None) -> list:
    return [ms for s in segments for key, _, ms, _ in s["samples"]
            if shape is None or key == shape]


def _run(workload, seed, seconds, trace, check, layers) -> dict:
    plan = [False, True] if trace else [False] * SEGMENTS
    budget = seconds / len(plan)
    segments = [run_segment(workload, n, seed, budget, traced) for n, traced in enumerate(plan)]
    problems = [problem for s in segments for problem in check(s["outputs"])]
    result = {
        "errors": [error for s in segments for error in s["errors"]],
        "attempted": sum(s["attempted"] for s in segments),
        "failed": sum(s["failed"] for s in segments),
        "problems": problems,
    }
    if trace:
        result["layers"] = layers(segments)
    else:
        result["metrics"] = metrics.end_to_end(
            [s["setup_s"] for s in segments], [s["peak_rss_mb"] for s in segments],
            [(key, (n, number), ms, cal) for n, s in enumerate(segments)
             for key, number, ms, cal in s["samples"]],
        )
    return result


def _trace_common(segments, wall_probe) -> tuple:
    plain = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]
    timed = probes_module.merge(s["trace"] for s in traced)
    traced_ms, plain_ms = _ms(traced), _ms(plain)
    L = metrics.LayerTotals(timed)
    values = L.engine_counters(len(traced_ms))
    values["engine.fire_append_ms"] = L.fire_append_ms(wall_probe, len(traced_ms))
    values["sparql.parse_ms"] = L.per_call_ms("sparql.parse")
    values["sparql.parses"] = L.calls("sparql.parse") / len(traced_ms)
    chase_rounds = L.span_count("chase.round")
    values["chase.rounds"] = chase_rounds / len(traced_ms)
    values["chase.round_ms"] = L.span_ms("chase.round") / chase_rounds if chase_rounds else 0.0
    values.update(metrics.trace_shares(
        sum(traced_ms) / len(traced_ms), sum(plain_ms) / len(plain_ms),
        timed["top_ns"] / 1e6, sum(traced_ms),
    ))
    return values, plain, traced, L


# ---------------------------------------------------------------------------
# cold_triq
# ---------------------------------------------------------------------------


def check_cold(outputs, base, queries) -> list:
    model = oracle.OwlModel(base)
    problems, first = [], {}
    for key, rows in outputs:
        template, mode = key.split("/")
        query = queries[int(template)]
        if rows == "inconsistent":
            problems.append(f"cold query {key}: answered as inconsistent")
            continue
        got = {tuple(row) for row in rows}
        problems += oracle.check_rows(f"cold query {key}", got, model.answers(query, mode))
        first.setdefault(template, {}).setdefault(mode, got)
    for template, modes in first.items():
        if len(modes) == 2:
            problems += oracle.check_subset(f"cold query {template}", modes["U"], modes["All"])
    return problems


def run_cold(seed: int, seconds: float, trace: bool) -> dict:
    base = inputs.lubm_graph(inputs.COLD_SCALE, seed)
    queries = inputs.lubm_queries(inputs.COLD_SCALE, seed)

    def layers(segments):
        values, plain, _, L = _trace_common(segments, "warded.materialise")
        evaluate_calls = L.calls("warded.evaluate")
        values.update({
            "cold_query_p50_ms": median(_ms(plain)),
            "entailment.translate_ms": L.per_call_ms("entailment.translate"),
            "warded.materialise_ms": L.per_call_ms("warded.materialise"),
            "warded.answer_ms": (L.total_ms("warded.evaluate") - L.total_ms("warded.materialise"))
            / evaluate_calls if evaluate_calls else 0.0,
        })
        return values

    return _run("cold_triq", seed, seconds, trace,
                lambda outputs: check_cold(outputs, base, queries), layers)


# ---------------------------------------------------------------------------
# closure_shapes
# ---------------------------------------------------------------------------


def check_closure(outputs, expected) -> list:
    problems = []
    for shape, output in outputs:
        label = f"closure {shape}"
        if "pairs" in output:
            pairs = [tuple(pair) for pair in output["pairs"]]
            problems += oracle.check_closure(label, pairs, expected[shape])
            count = len(pairs)
        else:
            problems += oracle.check_fingerprint(
                label, output["fingerprint"], oracle.pair_fingerprint(expected[shape])
            )
            count = output["fingerprint"][0]
        if shape == "deep":
            problems += oracle.check_chain_size(label, count, inputs.DEEP_DEPTH)
    return problems


def run_closure(seed: int, seconds: float, trace: bool) -> dict:
    expected = {shape: oracle.closure_pairs(make(seed)) for shape, make in inputs.SHAPES.items()}

    def layers(segments):
        values, plain, traced, _ = _trace_common(segments, "seminaive.evaluate")
        for shape in inputs.SHAPES:
            wall = median(_ms(plain, shape))
            values[f"{shape}_facts_per_s"] = len(expected[shape]) / (wall / 1000.0)
            per_shape = metrics.LayerTotals(probes_module.merge(
                s["trace_by_op"][shape] for s in traced))
            evaluations = per_shape.calls("seminaive.evaluate")
            strata = per_shape.span_count("seminaive.stratum")
            rules_per_stratum = per_shape.span_attr("seminaive.stratum", "rules") / strata
            values[f"seminaive.{shape}.evaluate_ms"] = per_shape.per_call_ms("seminaive.evaluate")
            values[f"seminaive.{shape}.rounds"] = (
                per_shape.span_count("seminaive.rule.delta") / rules_per_stratum / evaluations
            )
        return values

    return _run("closure_shapes", seed, seconds, trace,
                lambda outputs: check_closure(outputs, expected), layers)
