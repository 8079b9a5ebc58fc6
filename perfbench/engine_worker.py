"""Program process of the ``cold_triq`` and ``closure_shapes`` workloads.

Usage: ``python perfbench/engine_worker.py WORKLOAD SEED SECONDS TRACE`` with
``src`` on ``PYTHONPATH``.  Sets up (imports, inputs, one warm-up pass),
prints ``READY``, runs whole rounds of operations until ``SECONDS`` have
passed, then prints one JSON line: per-operation wall times (each with the
calibration time measured just before it), the outputs to
check, and (with ``TRACE`` = 1) the per-layer probe totals of the timed
section.  Checking happens in the parent, so this process's peak memory is
the program's alone.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
from common import calibrate  # noqa: E402
import oracle  # noqa: E402
import probes as probes_module  # noqa: E402

MODES = ("U", "All")


def cold_triq(seed: int):
    """Each op: translate one SPARQL query to P^U_dat / P^All_dat, evaluate cold."""
    from repro.datalog.semantics import INCONSISTENT
    from repro.datalog.terms import Variable
    from repro.rdf.graph import RDFGraph
    from repro.translation.entailment_regime import evaluate_under_entailment

    graph = RDFGraph(inputs.lubm_graph(inputs.COLD_SCALE, seed))
    queries = inputs.lubm_queries(inputs.COLD_SCALE, seed)
    texts = [inputs.query_text(query) for query in queries]
    ops = [(f"{i}/{mode}", i, mode) for i in range(len(queries)) for mode in MODES]

    def run(op):
        return evaluate_under_entailment(texts[op[1]], graph, op[2])

    def output(op, result):
        if result is INCONSISTENT:
            return "inconsistent"
        projection = [Variable(name[1:]) for name in queries[op[1]][0]]
        return sorted(
            [mapping[v].value for v in projection] for mapping in result
        )

    run(ops[0])
    return ops, run, output


def closure_shapes(seed: int):
    """Each op: semi-naive transitive closure of one seeded edge set."""
    from repro.datalog import SemiNaiveEvaluator, parse_program
    from repro.datalog.atoms import Atom
    from repro.datalog.terms import Constant

    evaluator = SemiNaiveEvaluator(parse_program(inputs.CLOSURE_PROGRAM))
    databases = {
        shape: [Atom("e", (Constant(a), Constant(b))) for a, b in make(seed)]
        for shape, make in inputs.SHAPES.items()
    }
    ops = [(shape, shape, None) for shape in databases]
    seen = set()

    def run(op):
        return evaluator.evaluate(databases[op[1]])

    def output(op, instance):
        pairs = [(a.terms[0].value, a.terms[1].value) for a in instance.with_predicate("tc")]
        if op[0] not in seen:
            seen.add(op[0])
            return {"pairs": pairs}
        return {"fingerprint": oracle.pair_fingerprint(pairs)}

    for op in ops:
        run(op)
    return ops, run, output


WORKLOADS = {"cold_triq": cold_triq, "closure_shapes": closure_shapes}


def main(argv) -> int:
    workload, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    probes = probes_module.install() if traced else None
    ops, run, output = WORKLOADS[workload](seed)
    print("READY", flush=True)
    mark = probes.snapshot() if probes else None
    layer_by_op = {}
    samples, outputs, errors = [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds += 1
        for op in ops:
            attempted += 1
            before = probes.snapshot() if probes else None
            calibration = calibrate()
            began = time.perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                failed += 1
                errors.append(f"{op[0]}: {exc!r}")
                continue
            elapsed = time.perf_counter() - began
            samples.append([op[0], rounds, elapsed * 1000.0, calibration])
            if probes:
                part = probes_module.difference(probes.snapshot(), before)
                layer_by_op.setdefault(op[0], []).append(part)
            outputs.append([op[0], output(op, result)])
    document = {
        "samples": samples, "outputs": outputs, "errors": errors[:5],
        "attempted": attempted, "failed": failed,
    }
    if probes:
        document["trace"] = probes_module.difference(probes.snapshot(), mark)
        document["trace_by_op"] = {
            key: probes_module.merge(parts) for key, parts in layer_by_op.items()
        }
    sys.stdout.write(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
