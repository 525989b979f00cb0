"""Run one gpsbench workload in this process and print its metrics.

    python3 benchmarks/gpsbench/run.py --workload serve-durable --seed 1 \\
        --seconds 12 --trace 0

Prints ``workload metric value unit`` per metric and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  The result file (and, traced, the span file) goes
under ``--out``.  Exits 1 when a correctness check fails and 2 when the
checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a script: import the package from the repository root, and
    # keep this directory off the path so trace.py cannot shadow the
    # standard library's trace module.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.gpsbench import WORK, MissingSource, use_source_tree


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out: Path
) -> dict:
    """Run one workload; write its result file; return the result."""
    from benchmarks.gpsbench.measure import environment
    from benchmarks.gpsbench.trace import EXTRA_METRICS
    from benchmarks.gpsbench.workloads import E2E_UNITS, WORKLOADS

    scratch = WORK / "tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        env = environment(scratch)
        outcome = WORKLOADS[name](seed, seconds, scratch, trace=trace)
        env["loadavg_end"] = list(os.getloadavg())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def unit(metric: str) -> str:
        if metric in E2E_UNITS:
            return E2E_UNITS[metric]
        if metric in EXTRA_METRICS:
            return EXTRA_METRICS[metric]
        suffix = metric.rsplit(".", 1)[1]
        return {"calls": "count", "self_s": "s", "share": "ratio"}[suffix]

    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": value, "unit": unit(metric)}
            for metric, value in outcome.metrics.items()
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}" + ("-trace" if trace else "")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **result,
        "failures": outcome.failures,
        "env": env,
        "config": outcome.config,
        "windows": outcome.windows,
        **outcome.extra,
    }
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.trace is not None:
        (out / f"trace-{name}.json").write_text(json.dumps(outcome.trace) + "\n")
    return {**result, "failures": outcome.failures}


def _child_pids() -> list[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # The comm field may hold spaces; ppid follows its ')'.
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers are joined by their executor, but the first shared-memory
    block starts multiprocessing's resource tracker, which would otherwise
    outlive this process.  It is stopped the way multiprocessing stops it
    (close its pipe, wait), so it still unlinks any block left behind;
    whatever else remains a child is killed and reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "results")
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except (MissingSource, ImportError) as exc:
        print(f"gpsbench: {exc}", file=sys.stderr)
        return 2
    from benchmarks.gpsbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
    finally:
        stop_children()
    for failure in result.pop("failures"):
        print(f"gpsbench: {args.workload}: check failed: {failure}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
