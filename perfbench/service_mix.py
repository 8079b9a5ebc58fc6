"""The ``service_mix`` workload: one closed-loop client against the query service.

The server is ``python -m repro.service --data <graph.nt>`` (or, traced, the
same ``main`` behind :mod:`serve`).  One client drives it over one
keep-alive connection, in whole rounds of:

* three malformed requests (a garbage request line, ``Content-Length: abc``,
  ``Content-Length: -5``), each expecting a 4xx status; the client reconnects
  after each one, and they stay out of every latency metric;
* four write pairs: ``/push`` of a fresh three-triple batch, six queries,
  ``/retract`` of the batch pushed ``WINDOW`` pairs earlier, six queries;
  before each write, the client times the calibration loop
  (:func:`common.calibrate`) that scales the end-to-end times.

Every answer is kept with the set of batches live when it was computed and
checked after the timed section against :class:`oracle.OwlModel`.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import time
from collections import deque
from urllib.parse import urlencode

import inputs
import metrics
import oracle
import probes as probes_module
from common import SEGMENTS, ProgramProcess, calibrate, median, percentile, work_path

WINDOW = 4
PAIRS_PER_ROUND = 4
MODES = ("U", "All")
#: Templates queried after a push, and after a retract.
AFTER_PUSH, AFTER_RETRACT = (0, 1, 2), (3, 4, 5)
MALFORMED = (
    b"GARBAGE\r\n\r\n",
    b"POST /push HTTP/1.1\r\nHost: bench\r\nContent-Length: abc\r\n\r\n",
    b"POST /push HTTP/1.1\r\nHost: bench\r\nContent-Length: -5\r\n\r\n",
)
_LISTENING = re.compile(rb"listening on [^\s:]+:(\d+)")
_BOOT_TIMEOUT = 120.0
_MALFORMED_TIMEOUT = 5.0


class Client:
    """A minimal HTTP/1.1 client on one keep-alive socket."""

    def __init__(self, port: int):
        self.port = port
        self.sock = self.reader = None
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def exchange(self, raw: bytes):
        """Send one request; return (status, body).  Raises on a dropped socket."""
        self.sock.sendall(raw)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("connection closed without a status line")
        status = int(line.split()[1])
        length = 0
        while True:
            header = self.reader.readline()
            if header in (b"\r\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def malformed(self, raw: bytes) -> bool:
        """Send a malformed request; True when it is answered with a 4xx."""
        self.sock.settimeout(_MALFORMED_TIMEOUT)
        try:
            status, _ = self.exchange(raw)
            answered = 400 <= status < 500
        except (OSError, ValueError, IndexError):
            answered = False
        self.connect()
        return answered


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def _post(path: str, triples) -> bytes:
    body = json.dumps({"triples": triples}).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class Session:
    """Drives one server process; records every operation it sends."""

    def __init__(self, client, queries, batches, records):
        self.client = client
        self.query_requests = {
            (i, mode): _get("/query?" + urlencode({"q": inputs.query_text(q), "mode": mode}))
            for i, q in enumerate(queries) for mode in MODES
        }
        self.batches = batches
        self.records = records
        self.live = deque()
        self.next_batch = 0
        self.attempted = self.failed = 0
        self.samples = []
        self.rounds = 0
        self.calibration = calibrate()

    def _send(self, kind, raw, timed, **fields):
        began = time.perf_counter()
        try:
            status, body = self.client.exchange(raw)
        except (OSError, ValueError, IndexError) as exc:
            status, body = None, repr(exc).encode()
            self.client.connect()
        elapsed = (time.perf_counter() - began) * 1000.0
        if timed:
            self.attempted += 1
            if status == 200:
                key = f"q{fields['template']}/{fields['mode']}" if kind == "query" else kind
                self.samples.append((key, self.rounds, elapsed, self.calibration))
            else:
                self.failed += 1
        self.records.append(dict(fields, kind=kind, status=status, body=body,
                                 state=tuple(sorted(self.live))))

    def queries(self, templates, timed):
        for i in templates:
            for mode in MODES:
                self._send("query", self.query_requests[(i, mode)], timed, template=i, mode=mode)

    def push(self, timed):
        index = self.next_batch
        self.next_batch += 1
        self.live.append(index)
        self._send("push", _post("/push", self.batches[index]), timed, batch=index)

    def retract(self, timed):
        index = self.live.popleft()
        self._send("retract", _post("/retract", self.batches[index]), timed, batch=index)

    def warm_up(self):
        for _ in range(WINDOW):
            self.push(False)
        self.queries(AFTER_PUSH + AFTER_RETRACT, False)

    def round(self):
        for raw in MALFORMED:
            self.attempted += 1
            if not self.client.malformed(raw):
                self.failed += 1
        self.rounds += 1
        for _ in range(PAIRS_PER_ROUND):
            for write, templates in ((self.push, AFTER_PUSH), (self.retract, AFTER_RETRACT)):
                self.calibration = calibrate()
                write(True)
                self.queries(templates, True)


def _wait_for_port(proc: ProgramProcess) -> int:
    deadline = time.perf_counter() + _BOOT_TIMEOUT
    while time.perf_counter() < deadline:
        with open(proc.log_path, "rb") as handle:
            found = _LISTENING.search(handle.read())
        if found:
            return int(found.group(1))
        if not proc.alive():
            break
        time.sleep(0.002)
    raise RuntimeError("service did not start:\n" + proc.log_tail())


def _wait_for_file(path: str, proc: ProgramProcess) -> dict:
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        if not proc.alive():
            break
        time.sleep(0.002)
    raise RuntimeError(f"traced service wrote no {os.path.basename(path)}:\n" + proc.log_tail())


def run_segment(number, data_path, budget, traced, queries, batches, records) -> dict:
    """Boot one server, warm it up, run whole rounds for ``budget`` seconds."""
    mark_path, end_path = work_path(f"mark{number}.json"), work_path(f"end{number}.json")
    for path in (mark_path, end_path):
        if os.path.exists(path):
            os.remove(path)
    service_args = ["--data", data_path, "--port", "0"]
    argv = (["perfbench/serve.py", mark_path, end_path, "--", *service_args] if traced
            else ["-m", "repro.service", *service_args])
    proc = ProgramProcess(argv, f"service{number}.log")
    client = None
    try:
        client = Client(_wait_for_port(proc))
        session = Session(client, queries, batches, records)
        session.warm_up()
        setup_s = time.perf_counter() - proc.started
        mark = None
        if traced:
            os.kill(proc.pid, signal.SIGUSR1)
            mark = _wait_for_file(mark_path, proc)
        began = time.perf_counter()
        while time.perf_counter() - began < budget:
            session.round()
        health = None
        if traced:
            status, body = client.exchange(_get("/stats"))
            health = json.loads(body) if status == 200 else None
        client.close()
        client = None
        if proc.interrupt() != 0:
            raise RuntimeError("service exited with an error:\n" + proc.log_tail())
        end = _wait_for_file(end_path, proc) if traced else None
    finally:
        if client is not None:
            client.close()
        proc.kill()
    return {
        "setup_s": setup_s, "peak_rss_mb": proc.peak_rss_mb, "session": session,
        "traced": traced, "mark": mark, "end": end, "health": health,
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check(records, base, queries, batches) -> list:
    """Every recorded answer and write summary against the reference model."""
    problems = []
    models = {}
    by_state = {}
    for record in records:
        label = f"{record['kind']} state={list(record['state'])}"
        if record["status"] != 200:
            continue  # counted as failed where it happened
        document = json.loads(record["body"])
        if record["kind"] in ("push", "retract"):
            size = len(batches[record["batch"]])
            key = "new_edb" if record["kind"] == "push" else "removed_edb"
            if document.get(key) != size or document.get("consistent") is not True:
                problems.append(f"{label} batch {record['batch']}: {key}="
                                f"{document.get(key)} consistent={document.get('consistent')}"
                                f", expected {size} and true")
            continue
        query = queries[record["template"]]
        state = record["state"]
        if state not in models:
            live = [t for index in state for t in batches[index]]
            models[state] = oracle.OwlModel(base + live)
        rows = {tuple(row[name[1:]] for name in query[0]) for row in document["answers"]}
        label = f"query {record['template']}/{record['mode']} {label}"
        if document.get("consistent") is not True:
            problems.append(f"{label}: answered as inconsistent")
        problems += oracle.check_rows(label, rows, models[state].answers(query, record["mode"]))
        by_state.setdefault((state, record["template"]), {})[record["mode"]] = rows
    for (state, template), modes in by_state.items():
        if len(modes) == 2:
            problems += oracle.check_subset(
                f"query {template} state={list(state)}", modes["U"], modes["All"]
            )
    return problems


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> dict:
    scale = inputs.SERVICE_SCALE
    base = inputs.lubm_graph(scale, seed)
    queries = inputs.lubm_queries(scale, seed)
    data_path = work_path(f"service_{seed}.nt")
    with open(data_path, "w", encoding="utf-8") as handle:
        handle.write(inputs.ntriples(base))
    # The traced run alternates an untraced and a traced server, so the
    # tracing overhead is measured against the same code untraced.
    plan = [False, True] if trace else [False] * SEGMENTS
    budget = seconds / len(plan)
    batches = inputs.write_batches(scale, seed, WINDOW + PAIRS_PER_ROUND * int(budget * 20 + 20))
    records = []
    segments = [
        run_segment(n, data_path, budget, traced, queries, batches, records)
        for n, traced in enumerate(plan)
    ]
    problems = check(records, base, queries, batches)
    sessions = [segment["session"] for segment in segments]
    result = {
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "problems": problems,
    }
    if trace:
        result["layers"] = layers(segments, records)
    else:
        result["metrics"] = end_to_end(segments)
    return result


def _latency(segments) -> dict:
    """Unscaled client latencies of the timed operations, by request type."""
    latency = {"query": [], "push": [], "retract": []}
    for segment in segments:
        for key, _, ms, _ in segment["session"].samples:
            latency["query" if key.startswith("q") else key].append(ms)
    return latency


def end_to_end(segments) -> dict:
    return metrics.end_to_end(
        [s["setup_s"] for s in segments],
        [s["peak_rss_mb"] for s in segments],
        [(key, (n, number), ms, cal) for n, s in enumerate(segments)
         for key, number, ms, cal in s["session"].samples],
    )


def kind_metrics(segments) -> dict:
    """The per-kind latencies of the untraced segments."""
    latency = _latency(segments)
    return {
        "query_p50_ms": median(latency["query"]),
        "query_p90_ms": percentile(latency["query"], 90),
        "push_p50_ms": median(latency["push"]),
        "retract_p50_ms": median(latency["retract"]),
        "write_p90_ms": percentile(latency["push"] + latency["retract"], 90),
    }


def layers(segments, records) -> dict:
    """Per-layer metrics from the traced segment, overhead from the untraced one."""
    plain = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]
    timed = probes_module.merge(probes_module.difference(s["end"], s["mark"]) for s in traced)
    boot = probes_module.merge(s["mark"] for s in traced)
    latency = _latency(traced)
    queries = latency["query"]
    pushes, retracts = len(latency["push"]), len(latency["retract"])
    writes, ops = pushes + retracts, len(queries) + pushes + retracts
    wall_ms = sum(sum(v) for v in latency.values())
    L = metrics.LayerTotals(timed)
    answers = [len(json.loads(r["body"])["answers"]) for r in records
               if r["kind"] == "query" and r["status"] == 200]
    healths = [s["health"]["maintenance"] for s in traced if s["health"]]
    tombstones = [p["tombstone_ratio"] for h in healths for p in h["predicates"].values()]
    overdeleted = L.span_attr("delta.retract", "overdeleted")
    rederived = L.span_attr("delta.retract", "rederived")
    sessions = [s["session"] for s in traced]
    values = kind_metrics(plain)
    values.update({
        "http.residual_ms": (sum(queries) - L.total_ms("sparql.parse")
                             - L.total_ms("entailment.view_eval")) / len(queries),
        "http.requests": sum(s.attempted for s in sessions),
        "http.failed": sum(s.failed for s in sessions),
        "sparql.parse_ms": L.per_call_ms("sparql.parse"),
        "sparql.parses": L.calls("sparql.parse") / len(queries),
        "entailment.view_eval_ms": L.per_call_ms("entailment.view_eval"),
        "entailment.answers": sum(answers) / len(answers),
        "view.consistency_ms": L.per_call_ms("view.consistency"),
        "view.consistency_calls": L.calls("view.consistency") / writes,
        "incremental.push_ms": L.per_call_ms("incremental.push"),
        "incremental.retract_ms": L.per_call_ms("incremental.retract"),
        "incremental.push_fixpoint_ms": L.span_ms("delta.push") / pushes,
        "dred.overdelete_ms": L.span_ms("retract.overdelete") / retracts,
        "dred.rederive_ms": L.span_ms("retract.rederive") / retracts,
        "dred.tombstone_ms": L.span_ms("retract.tombstone") / retracts,
        "dred.null_gc_ms": L.span_ms("retract.null_gc") / retracts,
        "dred.overdeleted": overdeleted / retracts,
        "dred.rederived": rederived / retracts,
        "dred.rederive_ratio": rederived / overdeleted if overdeleted else 0.0,
        "index.compactions": L.stat("compactions"),
        "index.tombstone_ratio_max": max(tombstones, default=0.0),
        "interning.terms": median([h["term_table"]["constants"] + h["term_table"]["nulls"]
                                   for h in healths]) if healths else 0,
        "chase.rounds": L.span_count("chase.round") / writes,
        "chase.round_ms": L.span_ms("chase.round") / max(1, L.span_count("chase.round")),
        "rdf.parse_ms": metrics.LayerTotals(boot).per_call_ms("rdf.parse"),
    })
    values.update(L.engine_counters(ops))
    plain_ms = [x for v in _latency(plain).values() for x in v]
    values.update(metrics.trace_shares(wall_ms / ops, sum(plain_ms) / len(plain_ms),
                                       timed["top_ns"] / 1e6, wall_ms))
    return values
