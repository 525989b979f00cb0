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
* **supervised** — ``SupervisedRunner`` trial throughput under the
  ``serial`` (reference) and ``process`` dispatch backends, for two
  campaign shapes: a scenario campaign (``scenario=``; the process
  backend runs chunked ``(B, N, T)`` blocks through the batch engine)
  and a ``trial_fn`` campaign shaped like ``repro simulate`` (a
  ``functools.partial`` of a module-level trial; one trial per pool
  task).  Every manifest is asserted bit-identical to the serial one;
* **network** — the Section 6.3 campaign's trial throughput, serial
  (``B = 1``) against ``process`` chunks on the batched network
  stepper, with the water-fill kernel's share of each.

The campaign rows are the median of ``CAMPAIGN_REPEATS`` runs.

Writes ``BENCH_engine.json`` (see ``--out``) with raw timings and the
derived speedups; the CI bench job runs the ``--quick`` variant as a
regression gate (the scenario campaign's ``process`` run must beat
serial by >= 2x at 4 workers — see ci.yml).

Run:  PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import argparse
import functools
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

#: Campaigns timed per supervised and network row (median and spread).
CAMPAIGN_REPEATS = 3

#: Trials of the Section 6.3 network campaign comparison.
NETWORK_TRIALS = 16


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


def scenario_trial(scenario: Scenario, trial: int, seed: int) -> dict:
    """One trial; bound with ``functools.partial`` into a picklable
    ``trial_fn``."""
    return scenario.trial_result(trial, seed)


def _timed_runs(fn) -> tuple[float, float, object]:
    """Median and spread ((max - min) / median) of the wall-clock
    seconds of ``CAMPAIGN_REPEATS`` calls of ``fn``, plus the last
    return."""
    times = []
    for _ in range(CAMPAIGN_REPEATS):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    median = float(np.median(times))
    return median, (max(times) - min(times)) / median, out


def bench_supervised(
    scenario: Scenario, num_trials: int, workers: int
) -> dict:
    """Trial throughput of SupervisedRunner under each dispatch backend,
    for a scenario campaign and a ``trial_fn`` campaign.  Each row is
    the median of ``CAMPAIGN_REPEATS`` campaigns; ``*_spread`` is that
    row's (max - min) / median."""
    from repro.experiments.supervisor import SupervisedRunner

    trial_fn = functools.partial(scenario_trial, scenario)

    def timed(dispatch: str, max_workers: int | None, **campaign):
        def run():
            manifest = SupervisedRunner(
                num_trials=num_trials,
                max_workers=max_workers,
                dispatch=dispatch,
                **campaign,
            ).run()
            assert manifest.num_completed == num_trials
            return manifest

        return _timed_runs(run)

    serial_s, serial_spread, serial_manifest = timed(
        "serial", None, scenario=scenario
    )
    process_s, process_spread, process_manifest = timed(
        "process", workers, scenario=scenario
    )
    fn_serial_s, fn_serial_spread, fn_serial_manifest = timed(
        "serial", None, trial_fn=trial_fn
    )
    fn_process_s, fn_process_spread, fn_process_manifest = timed(
        "process", workers, trial_fn=trial_fn
    )
    # The headline guarantee: every run is bit-for-bit the scenario
    # campaign's serial reference.
    for manifest in (
        process_manifest,
        fn_serial_manifest,
        fn_process_manifest,
    ):
        assert manifest.completed == serial_manifest.completed
    return {
        "num_trials": num_trials,
        "num_slots": scenario.horizon,
        "workers": workers,
        "repeats": CAMPAIGN_REPEATS,
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "serial_spread": serial_spread,
        "process_spread": process_spread,
        "serial_trials_per_sec": num_trials / serial_s,
        "process_trials_per_sec": num_trials / process_s,
        "process_speedup": serial_s / process_s,
        "trial_fn_serial_seconds": fn_serial_s,
        "trial_fn_process_seconds": fn_process_s,
        "trial_fn_serial_spread": fn_serial_spread,
        "trial_fn_process_spread": fn_process_spread,
        "trial_fn_serial_trials_per_sec": num_trials / fn_serial_s,
        "trial_fn_process_trials_per_sec": num_trials / fn_process_s,
        "trial_fn_process_speedup": fn_serial_s / fn_process_s,
        "bit_identical": True,
    }


def _kernel_share(campaign, num_trials: int) -> dict:
    """Wall seconds of one in-process ``run_chunk`` over ``num_trials``
    trials, and the share spent in the water-fill kernel."""
    import repro.sim.batch as batch_module

    kernel = batch_module._batch_water_fill
    spent = [0.0]

    def timed_kernel(*args):
        start = time.perf_counter()
        out = kernel(*args)
        spent[0] += time.perf_counter() - start
        return out

    batch_module._batch_water_fill = timed_kernel
    try:
        start = time.perf_counter()
        campaign.run_chunk(list(range(num_trials)), list(range(num_trials)))
        total = time.perf_counter() - start
    finally:
        batch_module._batch_water_fill = kernel
    return {
        "batch": num_trials,
        "seconds": total,
        "kernel_seconds": spent[0],
        "kernel_share": spent[0] / total,
    }


def bench_network(num_slots: int, workers: int) -> dict:
    """Section 6.3 campaign throughput: serial ``B = 1`` trials against
    ``process`` chunks on the batched network stepper, plus the
    water-fill kernel's share of a ``B = 1`` and a chunk-sized run."""
    from repro.experiments.runner import ExampleNetworkCampaign
    from repro.experiments.supervisor import SupervisedRunner

    campaign = ExampleNetworkCampaign(num_slots)

    def timed(dispatch: str, max_workers: int | None):
        return _timed_runs(
            lambda: SupervisedRunner(
                scenario=campaign,
                num_trials=NETWORK_TRIALS,
                dispatch=dispatch,
                max_workers=max_workers,
            ).run(),
        )

    serial_s, serial_spread, serial_manifest = timed("serial", None)
    process_s, process_spread, process_manifest = timed("process", workers)
    assert process_manifest.completed == serial_manifest.completed
    assert serial_manifest.num_completed == NETWORK_TRIALS
    chunk = -(-NETWORK_TRIALS // workers)
    return {
        "num_trials": NETWORK_TRIALS,
        "num_slots": num_slots,
        "workers": workers,
        "repeats": CAMPAIGN_REPEATS,
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "serial_spread": serial_spread,
        "process_spread": process_spread,
        "serial_trials_per_sec": NETWORK_TRIALS / serial_s,
        "process_trials_per_sec": NETWORK_TRIALS / process_s,
        "process_speedup": serial_s / process_s,
        "kernel_split": [
            _kernel_share(campaign, 1),
            _kernel_share(campaign, chunk),
        ],
        "bit_identical": True,
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
        "--repeats",
        type=int,
        default=3,
        help="timed repeats (best-of) for the fluid sweep",
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
        help="small sweep for CI (about 2.5 minutes on 2 CPUs, same "
        "comparisons)",
    )
    args = parser.parse_args()
    if args.quick:
        # Shrinks the fluid sweep but keeps the supervised trial count:
        # the process speedup the CI gate checks needs enough trials
        # per worker for chunked batching to amortize.
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
        f"({supervised['workers']} workers): scenario serial "
        f"{supervised['serial_trials_per_sec']:.2f} trials/s, process "
        f"{supervised['process_trials_per_sec']:.2f} trials/s "
        f"({supervised['process_speedup']:.1f}x); trial_fn serial "
        f"{supervised['trial_fn_serial_trials_per_sec']:.2f} trials/s, "
        f"process {supervised['trial_fn_process_trials_per_sec']:.2f} "
        f"trials/s ({supervised['trial_fn_process_speedup']:.1f}x)"
    )

    network = bench_network(args.slots * 2, args.workers)
    split = ", ".join(
        f"B={row['batch']} kernel {row['kernel_share']:.0%}"
        for row in network["kernel_split"]
    )
    print(
        f"network n={network['num_trials']} x {network['num_slots']} slots "
        f"({network['workers']} workers): serial "
        f"{network['serial_trials_per_sec']:.2f} trials/s, process "
        f"{network['process_trials_per_sec']:.2f} trials/s "
        f"({network['process_speedup']:.1f}x); {split}"
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
        "network": network,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
