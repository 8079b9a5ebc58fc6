"""The benchmark's own checks: right answers pass, each planted wrong answer fails.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import engine_runs  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import service_mix  # noqa: E402

SMALL = inputs.Scale(1, 2, 8)
SEED = 3


@pytest.fixture(scope="module")
def view_answers():
    """Answers the program's materialized view gives on a small graph."""
    from repro.datalog.terms import Variable
    from repro.rdf.graph import RDFGraph
    from repro.service.view import MaterializedView

    base = inputs.lubm_graph(SMALL, SEED)
    batches = inputs.write_batches(SMALL, SEED, 2)
    queries = inputs.lubm_queries(SMALL, SEED)
    view = MaterializedView(RDFGraph(base))
    for batch in batches:
        view.push(batch)
    answers = {}
    for i, query in enumerate(queries):
        for mode in ("U", "All"):
            result = view.query(inputs.query_text(query), mode)
            answers[(i, mode)] = {
                tuple(m[Variable(name[1:])].value for name in query[0]) for m in result
            }
    view.close()
    model = oracle.OwlModel(base + [t for batch in batches for t in batch])
    return queries, answers, model, base, batches


def test_reference_agrees_with_program(view_answers):
    queries, answers, model, _, _ = view_answers
    for (i, mode), rows in answers.items():
        assert oracle.check_rows("q", rows, model.answers(queries[i], mode)) == []
        assert rows, f"query {i}/{mode} has no answers; it would check nothing"
    # The odd batch's student has no named advisor: only All mode finds one.
    assert answers[(4, "U")] < answers[(4, "All")]


def test_dropped_row_fails(view_answers):
    queries, answers, model, _, _ = view_answers
    for (i, mode), rows in answers.items():
        planted = set(rows)
        planted.pop()
        assert oracle.check_rows("q", planted, model.answers(queries[i], mode))


def test_added_row_fails(view_answers):
    queries, answers, model, _, _ = view_answers
    rows = answers[(0, "U")] | {("u0dept0",)}
    assert oracle.check_rows("q", rows, model.answers(queries[0], "U"))


def test_u_outside_all_fails(view_answers):
    _, answers, _, _, _ = view_answers
    assert oracle.check_subset("q", answers[(4, "U")], answers[(4, "All")]) == []
    planted = set(answers[(4, "All")])
    planted.discard(next(iter(answers[(4, "U")])))
    assert oracle.check_subset("q", answers[(4, "U")], planted)


def _query_record(query_index, mode, rows, query, state=(0, 1)):
    body = {"answers": [dict(zip((n[1:] for n in query[0]), row)) for row in rows],
            "consistent": True}
    return {"kind": "query", "status": 200, "body": json.dumps(body).encode(),
            "state": state, "template": query_index, "mode": mode}


def test_service_check_catches_wrong_answer_and_write_summary(view_answers):
    queries, answers, _, base, batches = view_answers
    records = [_query_record(i, mode, rows, queries[i]) for (i, mode), rows in answers.items()]
    records.append({"kind": "push", "status": 200, "batch": 1, "state": (0, 1),
                    "body": json.dumps({"new_edb": 3, "consistent": True}).encode()})
    assert service_mix.check(records, base, queries, batches) == []

    dropped = sorted(answers[(0, "All")])[1:]
    wrong = records[:-1] + [_query_record(0, "All", dropped, queries[0])]
    assert service_mix.check(wrong, base, queries, batches)

    short_push = records + [{"kind": "push", "status": 200, "batch": 1, "state": (0, 1),
                             "body": json.dumps({"new_edb": 2, "consistent": True}).encode()}]
    assert service_mix.check(short_push, base, queries, batches)
    inconsistent = records + [{"kind": "retract", "status": 200, "batch": 0, "state": (1,),
                               "body": json.dumps({"removed_edb": 3,
                                                   "consistent": False}).encode()}]
    assert service_mix.check(inconsistent, base, queries, batches)


def test_cold_check_catches_dropped_row(view_answers):
    queries, _, _, _, _ = view_answers
    base = inputs.lubm_graph(SMALL, SEED)
    model = oracle.OwlModel(base)
    outputs = [[f"{i}/{mode}", sorted(list(row) for row in model.answers(q, mode))]
               for i, q in enumerate(queries) for mode in ("U", "All")]
    assert engine_runs.check_cold(outputs, base, queries) == []
    outputs[0][1] = outputs[0][1][1:]
    assert engine_runs.check_cold(outputs, base, queries)


def _program_closure(edges):
    from repro.datalog import SemiNaiveEvaluator, parse_program
    from repro.datalog.atoms import Atom
    from repro.datalog.terms import Constant

    evaluator = SemiNaiveEvaluator(parse_program(inputs.CLOSURE_PROGRAM))
    instance = evaluator.evaluate([Atom("e", (Constant(a), Constant(b))) for a, b in edges])
    return {(a.terms[0].value, a.terms[1].value) for a in instance.with_predicate("tc")}


@pytest.mark.parametrize("shape", sorted(inputs.SHAPES))
def test_closure_checks(shape):
    edges = inputs.SHAPES[shape](SEED)
    expected = oracle.closure_pairs(edges)
    got = _program_closure(edges)
    assert oracle.check_closure("c", got, expected) == []
    assert oracle.check_fingerprint("c", oracle.pair_fingerprint(got),
                                    oracle.pair_fingerprint(expected)) == []
    added = got | {("nowhere", "nothing")}
    dropped = set(got)
    dropped.pop()
    for planted in (added, dropped):
        assert oracle.check_closure("c", planted, expected)
        assert oracle.check_fingerprint("c", oracle.pair_fingerprint(planted),
                                        oracle.pair_fingerprint(expected))
    outputs = [[shape, {"pairs": sorted(got)}], [shape, {"fingerprint": list(
        oracle.pair_fingerprint(got))}]]
    expected_by_shape = {shape: expected}
    assert engine_runs.check_closure(outputs, expected_by_shape) == []
    outputs[1][1]["fingerprint"] = list(oracle.pair_fingerprint(added))
    assert engine_runs.check_closure(outputs, expected_by_shape)


def test_chain_size_property():
    depth = inputs.DEEP_DEPTH
    pairs = oracle.closure_pairs(inputs.branched_chain(SEED))
    assert oracle.check_chain_size("c", len(pairs), depth) == []
    assert oracle.check_chain_size("c", len(pairs) + 1, depth)


def test_inputs_depend_only_on_seed():
    assert inputs.lubm_graph(SMALL, 5) == inputs.lubm_graph(SMALL, 5)
    assert inputs.lubm_graph(SMALL, 5) != inputs.lubm_graph(SMALL, 6)
    assert inputs.write_batches(SMALL, 5, 4) == inputs.write_batches(SMALL, 5, 4)
    assert inputs.layered_dag(5) == inputs.layered_dag(5)


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["service_mix", "cold_triq",
                                                      "closure_shapes"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_triq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
