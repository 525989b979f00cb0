#!/usr/bin/env python3
"""Benchmark the batched fluid GPS engine against the scalar server.

Measures three throughputs on the same workload (a heterogeneous
on-off / Bernoulli / CBR session mix sampled from one ``Scenario``):

* **scalar** — ``FluidGPSServer.run`` once per trial; the baseline
  slot rate (trial-slots per second).  That call is the ``B = 1`` run
  of ``BatchFluidGPSServer`` (same slot loop, same kernel), so the
  speedup is what stacking ``B`` trials into one loop buys;
* **batched** — ``BatchFluidGPSServer.run`` over the whole ``(B, N,
  T)`` stack; the tentpole speedup this PR exists to demonstrate;
* **supervised** — ``SupervisedRunner`` trial throughput under each
  dispatch backend: ``serial`` (the reference), ``process`` (the
  legacy per-trial pickle fan-out) and ``shared-memory`` (chunked
  ``(B, N, T)`` blocks through the batch engine) — the manifest of
  the shared-memory run is asserted bit-identical to the serial one.

Writes ``BENCH_engine.json`` (see ``--out``) with raw timings and the
derived speedups; the CI bench job runs the ``--quick`` variant as a
regression gate (shared-memory must beat serial by >= 2x at 4
workers — see ci.yml).

Run:  PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.markov.onoff import OnOffSource
from repro.scenario import Scenario
from repro.traffic.sources import (
    BernoulliBurstTraffic,
    ConstantBitRateTraffic,
    OnOffTraffic,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def build_scenario(num_slots: int) -> Scenario:
    """The benchmark workload: 8 heterogeneous sessions at ~72% load."""
    sources = (
        OnOffTraffic(OnOffSource(p=0.2, q=0.4, peak_rate=0.30)),
        OnOffTraffic(OnOffSource(p=0.3, q=0.5, peak_rate=0.25)),
        OnOffTraffic(OnOffSource(p=0.1, q=0.6, peak_rate=0.40)),
        BernoulliBurstTraffic(burst_probability=0.25, burst_size=0.30),
        BernoulliBurstTraffic(burst_probability=0.40, burst_size=0.20),
        ConstantBitRateTraffic(rate=0.05),
        OnOffTraffic(OnOffSource(p=0.25, q=0.35, peak_rate=0.20)),
        BernoulliBurstTraffic(burst_probability=0.30, burst_size=0.25),
    )
    return Scenario(
        rate=1.0,
        phis=(2.0, 2.0, 1.5, 1.0, 1.0, 0.5, 1.0, 1.0),
        sources=sources,
        horizon=num_slots,
        seed=42,
    )


def _best_of(repeats: int, fn) -> float:
    """Best wall-clock seconds over ``repeats`` runs (min is the
    standard low-noise estimator for single-process benchmarks)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_fluid(
    scenario: Scenario, num_trials: int, repeats: int
) -> dict:
    """Scalar-vs-batched slot throughput on identical sample paths."""
    batch_arrivals = scenario.sample_arrival_batch(num_trials)
    per_trial = [batch_arrivals[b] for b in range(num_trials)]
    trial_slots = num_trials * scenario.horizon

    def run_scalar() -> None:
        for arrivals in per_trial:
            scenario.server().run(arrivals)

    def run_batched() -> None:
        scenario.batch_server().run(batch_arrivals)

    # One warm-up apiece, then timed repeats.
    run_scalar()
    run_batched()
    scalar_s = _best_of(repeats, run_scalar)
    batched_s = _best_of(repeats, run_batched)
    return {
        "num_trials": num_trials,
        "num_sessions": scenario.num_sessions,
        "num_slots": scenario.horizon,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "scalar_slots_per_sec": trial_slots / scalar_s,
        "batched_slots_per_sec": trial_slots / batched_s,
        "speedup": scalar_s / batched_s,
    }


def bench_supervised(
    scenario: Scenario, num_trials: int, workers: int
) -> dict:
    """Trial throughput of SupervisedRunner under each dispatch backend."""
    from repro.experiments.supervisor import SupervisedRunner

    def timed(dispatch: str, max_workers: int | None):
        runner = SupervisedRunner(
            scenario=scenario,
            num_trials=num_trials,
            max_workers=max_workers,
            dispatch=dispatch,
        )
        start = time.perf_counter()
        manifest = runner.run()
        elapsed = time.perf_counter() - start
        assert manifest.num_completed == num_trials
        return elapsed, manifest

    serial_s, serial_manifest = timed("serial", None)
    process_s, _ = timed("process", workers)
    shm_s, shm_manifest = timed("shared-memory", workers)
    # The headline guarantee: the shared-memory fast path is
    # bit-for-bit the serial reference.
    assert shm_manifest.completed == serial_manifest.completed
    return {
        "num_trials": num_trials,
        "num_slots": scenario.horizon,
        "workers": workers,
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "shared_memory_seconds": shm_s,
        "serial_trials_per_sec": num_trials / serial_s,
        "process_trials_per_sec": num_trials / process_s,
        "shared_memory_trials_per_sec": num_trials / shm_s,
        "process_speedup": serial_s / process_s,
        "shared_memory_speedup": serial_s / shm_s,
        "bit_identical": True,
        # Back-compat aliases (pre-dispatch schema).
        "parallel_seconds": process_s,
        "parallel_trials_per_sec": num_trials / process_s,
        "speedup": serial_s / process_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--slots", type=int, default=2_000, help="slots per trial"
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=[16, 64, 256],
        help="batch sizes to sweep for the fluid engine",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats (best-of)"
    )
    parser.add_argument(
        "--supervised-trials",
        type=int,
        default=32,
        help="trials for the supervised-runner comparison",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="process-pool size for the supervised comparison",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for CI (<60s total, same comparisons)",
    )
    args = parser.parse_args()
    if args.quick:
        # Shrinks the fluid sweep but keeps the supervised trial count:
        # the shared-memory speedup the CI gate checks needs enough
        # trials per worker for chunked batching to amortize.
        args.slots = min(args.slots, 1_000)
        args.batch_sizes = [16, 64]
        args.repeats = 1

    scenario = build_scenario(args.slots)
    fluid_rows = []
    for num_trials in args.batch_sizes:
        row = bench_fluid(scenario, num_trials, args.repeats)
        fluid_rows.append(row)
        print(
            f"fluid  B={num_trials:4d}: scalar "
            f"{row['scalar_slots_per_sec']:,.0f} slots/s, batched "
            f"{row['batched_slots_per_sec']:,.0f} slots/s "
            f"({row['speedup']:.1f}x)"
        )

    # Fan-out only pays once a trial outweighs process startup, so the
    # supervised comparison runs a longer horizon per trial.
    supervised_scenario = build_scenario(args.slots * 8)
    supervised = bench_supervised(
        supervised_scenario, args.supervised_trials, args.workers
    )
    print(
        f"supervised n={supervised['num_trials']} "
        f"({supervised['workers']} workers): serial "
        f"{supervised['serial_trials_per_sec']:.2f} trials/s, process "
        f"{supervised['process_trials_per_sec']:.2f} trials/s "
        f"({supervised['process_speedup']:.1f}x), shared-memory "
        f"{supervised['shared_memory_trials_per_sec']:.2f} trials/s "
        f"({supervised['shared_memory_speedup']:.1f}x)"
    )

    payload = {
        "benchmark": "batched fluid GPS engine",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": bool(args.quick),
        "fluid": fluid_rows,
        "supervised": supervised,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
