"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates the inputs, runs workload ``W`` for about ``S`` seconds of
measurement, checks every answer against the brute-force oracle's
stored digests, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it carries the details (tail
percentiles and sample counts, set-up samples, operation counts, the
environment and the input digests).

Exit codes: 0 when every answer was right, 1 when an answer was wrong
(the result line is still printed), 2 when no result could be made.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common

CLOSED = ("anchored", "unanchored", "routed-mix")


def run_closed(args) -> tuple:
    """Run a closed-loop workload in a child process; its peak memory
    is the kernel's record, read here when the child is reaped."""
    cmd = [sys.executable, str(common.BENCH_DIR / "closed.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise common.BenchError(f"{args.workload} exited with "
                                f"{proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = common.metric(
            usage.ru_maxrss * 1024 / 1e6, "MB")
    return (result["attempted"], result["failed"], result["metrics"],
            result["detail"])


def run_served(args) -> tuple:
    import served

    inputs = common.make_inputs(args.size)
    checker = common.AnswerChecker(common.load_reference(inputs),
                                   args.plant_wrong)
    attempted, failed, metrics, detail = served.run(args, inputs, checker)
    detail["mismatches"] = checker.mismatches[:10]
    detail["environment"] = common.environment(args, inputs)
    return attempted, failed, metrics, detail


def select(metrics: dict, spec: list, required: bool) -> dict:
    """The metrics ``spec`` names, in its order.  A per-layer metric of a
    layer the workload does not cross is reported as 0."""
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in metrics:
            out[name] = metrics[name]
        elif required:
            raise common.BenchError(f"end-to-end metric {name} not measured")
        else:
            out[name] = common.metric(0.0, entry["unit"])
        if out[name]["unit"] != entry["unit"]:
            raise common.BenchError(f"{name} measured in {out[name]['unit']}"
                                    f", BENCHMARK.json says {entry['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the benchmark.")
    parser.add_argument("--workload", choices=common.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(common.SIZES),
                        default="pinned",
                        help="input size (tiny: for the benchmark's tests)")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one answer before it is checked")
    args = parser.parse_args(argv)

    common.require_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    if args.workload in CLOSED:
        attempted, failed, metrics, detail = run_closed(args)
    else:
        attempted, failed, metrics, detail = run_served(args)
    metrics = select(metrics, spec["per_layer" if args.trace
                                    else "end_to_end"],
                     required=not args.trace)
    correct = not detail["mismatches"] and attempted > 0
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
