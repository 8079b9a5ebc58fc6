"""End-to-end benchmark of the reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all                 # every workload in turn
    python3 perfbench/run.py --workload cold_triq --trace 1 # per-layer metrics
    python3 perfbench/run.py --workload closure_shapes --repeat 5  # quartiles over 5 seeds

Each run prints every metric as ``name value unit`` and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("service_mix", "cold_triq", "closure_shapes")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "service_mix":
        import service_mix

        return service_mix.run(seed, seconds, trace)
    import engine_runs

    runner = engine_runs.run_cold if name == "cold_triq" else engine_runs.run_closure
    return runner(seed, seconds, trace)


def _report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's metrics; return them as the JSON ``metrics`` map."""
    for problem in result["problems"]:
        print(f"CHECK FAILED [{name}] {problem}", file=sys.stderr)
    for error in result.get("errors", []):
        print(f"operation failed [{name}] {error}", file=sys.stderr)
    if trace:
        values = {key: result["layers"].get(key, 0) for key in metrics.PER_LAYER}
        units = {key: unit for key, (unit, _) in metrics.PER_LAYER.items()}
    else:
        values = result["metrics"]
        units = {key: unit for key, (unit, _, _) in metrics.END_TO_END.items()}
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"checks {'passed' if not result['problems'] else 'FAILED'}")
    for key, value in values.items():
        print(f"  {key} {value:.6g} {units[key]}")
    return {key: {"value": value, "unit": units[key]} for key, value in values.items()}


def repeat(args) -> int:
    """Run ``--repeat`` seeds one after another; print each metric's quartiles."""
    runs = []
    for offset in range(args.repeat):
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        runs.append(json.loads(lines[-1]))
        print(f"seed {args.seed + offset}: " + " ".join(
            f"{key}={entry['value']:.5g}" for key, entry in runs[-1]["metrics"].items()),
            flush=True)
    print(f"{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for key, entry in runs[0]["metrics"].items():
        values = [run["metrics"][key]["value"] for run in runs]
        q1, mid, q3 = common.quartiles(values) if len(values) > 1 else values * 3
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{key:34} {q1:12.5g} {mid:12.5g} {q3:12.5g} {spread:8.3f}  {entry['unit']}")
    correct = all(run["correct"] for run in runs)
    print(json.dumps({"correct": correct, "runs": len(runs),
                      "failed_share": sorted({run["failed"] / run["attempted"] for run in runs})}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds (seed, seed+1, ...) and print quartiles")
    args = parser.parse_args(argv)
    if not common.program_available():
        print(f"error: the program's sources are not at {common.SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    common.pin_to_one_core()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    correct, attempted, failed, reported = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        values = _report(name, result, trace)
        if len(names) > 1:
            values = {f"{name}.{key}": entry for key, entry in values.items()}
        reported.update(values)
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != common.HASH_SEED:
        # The client's own hashing then matches from run to run as well.
        os.environ["PYTHONHASHSEED"] = common.HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
