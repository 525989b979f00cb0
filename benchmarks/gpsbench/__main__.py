"""gpsbench command line.

    python -m benchmarks.gpsbench run --seed S [--workload W ...] [--trace]
        [--seconds T] [--out DIR]
    python -m benchmarks.gpsbench compare --parent DIR --change DIR
        [--claim WORKLOAD:METRIC ...]

``run`` starts each workload in its own fresh subprocess, one after
another, prints every metric as ``workload metric value unit``, and
exits nonzero if any correctness check fails.  Result files go under
``--out`` (default ``.gpsbench/results``, ignored by git).  ``compare``
reads result files from both sides and checks every end-to-end metric
against the ``BENCHMARK.json`` bounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.gpsbench import ROOT, WORK
from benchmarks.gpsbench.compare import (
    claim_holds,
    compare,
    load_results,
    render,
)

RUN = Path(__file__).resolve().parent / "run.py"
#: A workload run's own limit (set-up, measurement, checks).
RUN_TIMEOUT_S = 180


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_run(args: argparse.Namespace) -> int:
    names = args.workload or [w["name"] for w in _bench()["workloads"]]
    status = 0
    for name in names:
        proc = subprocess.run(
            [
                sys.executable,
                str(RUN),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                "1" if args.trace else "0",
                "--out",
                str(args.out),
            ],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            status = 1
            continue
        print(
            f"{name} attempted={result['attempted']} failed={result['failed']} "
            f"correct={result['correct']}"
        )
        if proc.returncode or not result["correct"]:
            status = 1
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    rows = compare(load_results(args.parent), load_results(args.change), _bench())
    print(render(rows))
    status = 1 if any(row.verdict == "regression" for row in rows) else 0
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        match = [r for r in rows if r.workload == workload and r.metric == metric]
        held = bool(match) and claim_holds(match[0])
        print(f"claim {claim}: {'holds' if held else 'not met'}")
        status = status or (0 if held else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.gpsbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--seconds", type=float, default=_bench()["run_seconds"])
    run.add_argument("--out", type=Path, default=WORK / "results")
    run.set_defaults(handler=cmd_run)
    cmp = commands.add_parser("compare", help="parent vs change result files")
    cmp.add_argument("--parent", type=Path, nargs="+", required=True)
    cmp.add_argument("--change", type=Path, nargs="+", required=True)
    cmp.add_argument("--claim", action="append", default=[])
    cmp.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
