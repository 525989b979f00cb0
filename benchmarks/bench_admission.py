#!/usr/bin/env python3
"""Benchmark the admission gate under session churn.

Measures sustained membership-event throughput (events per second) of
:class:`repro.analysis.context.AnalysisContext` as the admitted
population grows from one hundred to ten thousand sessions:

* **gate only** — each event patches the sorted ``rho_i/phi_i`` order
  and the exact aggregate-rate accumulator in ``O(log N)``, and the
  gate compares the common RPPS share multiplier against cached
  per-session critical rates;
* **diagnostics** — the same gate plus the feasible-ordering,
  feasible-partition and Theorem 11 details an
  ``AdmissionController(diagnostics=True)`` (the serving default)
  attaches to every decision.

Each row reports two machine-independent views of the diagnostics
cost:

* ``diagnostics_ratio`` — diagnostics-on over gate-only throughput.  A
  change that speeds up (or slows down) both alike leaves it where it
  was;
* ``diagnostics_vs_reference_loop`` — diagnostics-on throughput over
  the rate of a fixed pure-Python loop timed in the same process
  (``reference_loop_per_sec``, iterations per second).  The loop never
  changes, so this moves with the diagnostics alone while still
  cancelling most of the difference between machines.

The event mix is the controller's worst realistic churn: leave + join
pairs (the joining declaration jittered ±5% in rate, so admission
thresholds cannot be reused) interleaved with weight-only
renegotiations.  Decisions are byte-identical to a from-scratch
reference (``tests/analysis/test_parity.py``).  Writes
``BENCH_admission.json`` (see ``--out``); the CI bench job uploads it
as a non-gating artifact and warns on both diagnostics views at 1,000
sessions, so regressions are visible without blocking merges.

Run:  PYTHONPATH=src python benchmarks/bench_admission.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis.admission import QoSTarget
from repro.analysis.context import AnalysisContext
from repro.core.ebb import EBB

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_admission.json"

_RATE = 1.0
_LOAD = 0.5  # aggregate rho stays at half the server rate
_ALPHA = 2.0
_EPSILON = 1e-3


def _declaration(num_sessions: int) -> tuple[EBB, QoSTarget]:
    """A session contract whose critical guaranteed rate sits at
    ~1.5x its upper rate — comfortably below the 2x RPPS share the
    50%-loaded population grants, so churn keeps every join admissible
    while the delay targets stay binding enough to exercise the gate.
    """
    rho = _LOAD * _RATE / num_sessions
    g_crit = 1.5 * rho
    # discrete Theorem 15 tail at rate g: Lambda/(1-e^{-alpha(g-rho)})
    # * e^{-alpha g d}; solve bound(d_max) == epsilon at g == g_crit
    prefactor = 1.0 / -math.expm1(-_ALPHA * (g_crit - rho))
    d_max = math.log(prefactor / _EPSILON) / (_ALPHA * g_crit)
    ebb = EBB(rho=rho, prefactor=1.0, decay_rate=_ALPHA)
    return ebb, QoSTarget(d_max=d_max, epsilon=_EPSILON)


def _build(num_sessions: int) -> AnalysisContext:
    context = AnalysisContext(_RATE)
    ebb, target = _declaration(num_sessions)
    for k in range(num_sessions):
        context.add(f"s{k}", ebb, 1.0, target)
    return context


def churn(
    context: AnalysisContext,
    num_events: int,
    seed: int = 0,
    *,
    diagnostics: bool = False,
) -> tuple[int, float]:
    """Drive leave+join pairs and weight renegotiations; returns
    ``(events, seconds)``.  Every decision must accept — the population
    is sized so churn never tips a target — keeping both modes on
    identical state trajectories.
    """
    rng = np.random.default_rng(seed)
    names = list(context.names)
    ebb, target = _declaration(len(names))
    jitters = rng.uniform(0.95, 1.05, size=num_events)
    picks = rng.integers(0, len(names), size=num_events)
    phis = rng.uniform(0.5, 2.0, size=num_events)
    next_id = len(names)
    events = 0
    start = time.perf_counter()
    for k in range(num_events):
        if k % 3 == 0:
            # weight-only renegotiation: hits the Lemma 9 reorder path
            decision = context.decide_update(
                names[picks[k]], phi=float(phis[k]), diagnostics=diagnostics
            )
            events += 1
        else:
            # leave + join pair with a jittered declaration
            gone = names[picks[k]]
            context.remove(gone)
            events += 1
            name = f"s{next_id}"
            next_id += 1
            jittered = EBB(
                rho=ebb.rho * float(jitters[k]),
                prefactor=ebb.prefactor,
                decay_rate=ebb.decay_rate,
            )
            decision = context.decide_join(
                name, jittered, 1.0, target, diagnostics=diagnostics
            )
            events += 1
            names[picks[k]] = name
        assert decision.accepted, decision.reason
    return events, time.perf_counter() - start


def reference_loop_rate(
    iterations: int = 100_000, repeats: int = 5
) -> float:
    """Iterations per second of a fixed pure-Python loop (float
    arithmetic, a list append and a dict store per iteration), best of
    ``repeats``: the interpreter speed of this process, which the
    diagnostics rate is divided by.  Never change this loop — that
    would move every ``diagnostics_vs_reference_loop`` reading."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        values: list[float] = []
        table: dict[int, float] = {}
        for k in range(iterations):
            acc = acc * 0.5 + k / (k + 1.0)
            values.append(acc)
            table[k & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return iterations / best


def bench_population(
    num_sessions: int, num_events: int, diagnostics_events: int
) -> dict:
    """Churn throughput at one population size, gate only and with
    diagnostics, and the reference loop's rate beside them."""
    gated = _build(num_sessions)
    events, seconds = churn(gated, num_events)
    gate_eps = events / seconds

    reference = reference_loop_rate()
    diagnosed = _build(num_sessions)
    events, seconds = churn(diagnosed, diagnostics_events, diagnostics=True)
    diagnostics_eps = events / seconds

    return {
        "num_sessions": num_sessions,
        "num_churn_events": num_events,
        "num_diagnostics_events": diagnostics_events,
        "incremental_events_per_sec": gate_eps,
        "diagnostics_events_per_sec": diagnostics_eps,
        "reference_loop_per_sec": reference,
        "diagnostics_ratio": diagnostics_eps / gate_eps,
        "diagnostics_vs_reference_loop": diagnostics_eps / reference,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--session-counts",
        type=int,
        nargs="+",
        default=[100, 1_000, 10_000],
        help="admitted-population sizes to sweep",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=1_500,
        help="gate-only churn events per sweep point",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args()

    rows = []
    for num_sessions in args.session_counts:
        # diagnostics are O(N) per event; cap their share of the run
        # so the sweep stays fast at 10k
        diagnosed = max(30, min(args.events, 300_000 // num_sessions))
        row = bench_population(num_sessions, args.events, diagnosed)
        rows.append(row)
        print(
            f"admission N={num_sessions:6,d}: "
            f"{row['incremental_events_per_sec']:,.0f} events/s "
            f"gate only, "
            f"{row['diagnostics_events_per_sec']:,.0f} events/s with "
            f"diagnostics ({row['diagnostics_ratio']:.3f}x gate-only, "
            f"{row['diagnostics_vs_reference_loop']:.2e}x the reference "
            f"loop's {row['reference_loop_per_sec']:,.0f}/s)"
        )

    payload = {
        "benchmark": "admission gate under churn",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
