#!/usr/bin/env python3
"""Benchmark the streaming PGPS/WFQ packet engine.

:class:`repro.packet.engine.PacketEngine` keeps the busy weight sum as
an exact incremental Shewchuk accumulator, the next-finish lookup as a
lazy-deletion heap, and the fluid inversion as a pending-heap resolved
while breakpoints are appended — O(log busy) per packet and
O(in-system packets) memory.

The sweep crosses trace length with busy-session count.  The workload
runs at a slight overload (``--load 1.05`` on a rate-1 server): every
session's arrival rate exceeds its GPS share, so after a short ramp
the *entire* population is busy and stays busy — the busy-set size is
the session count, the axis an O(log busy) engine must stay flat on
(at sub-critical load the stationary busy set collapses to
~``rho / (1 - rho)`` sessions regardless of population).  Per point
the sweep reports sustained ``engine_packets_per_sec``.

Writes ``BENCH_packet.json``; the CI bench job uploads it as a
non-gating artifact and warns when the million-packet engine rate
drops below half the small-trace rate (a streaming engine must not
slow down as the trace grows).

Run:  PYTHONPATH=src python benchmarks/bench_packet.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.packet.engine import PacketEngine

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_packet.json"


def build_workload(
    num_packets: int, num_sessions: int, load: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A saturating Poisson packet stream.

    Arrivals are exponential inter-arrival times at ``load`` offered
    load on a rate-1 server; sizes are uniform on ``[0.5, 1.5]`` with
    mean 1; sessions are uniform over the population.  ``load`` just
    above 1 keeps every session's arrival rate above its GPS share, so
    the busy set fills to the whole population — the regime the
    busy-set data structures are sized for.  Continuous arrival times
    make ties impossible, so the stream is already in canonical
    ``(arrival_time, session)`` order.
    """
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / load, size=num_packets))
    sizes = rng.uniform(0.5, 1.5, size=num_packets)
    sessions = rng.integers(0, num_sessions, size=num_packets)
    return times, sessions, sizes


def bench_engine(
    times: np.ndarray,
    sessions: np.ndarray,
    sizes: np.ndarray,
    num_sessions: int,
) -> tuple[float, "PacketEngine"]:
    """Sustained engine throughput (push + finish) in packets/s."""
    phis = [1.0 / num_sessions] * num_sessions
    engine = PacketEngine(1.0, phis)
    push = engine.push
    start = time.perf_counter()
    for t, s, z in zip(
        times.tolist(), sessions.tolist(), sizes.tolist()
    ):
        push(s, z, t)
    engine.finish()
    elapsed = time.perf_counter() - start
    return len(times) / elapsed, engine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--packet-counts",
        type=int,
        nargs="+",
        default=[20_000, 200_000, 1_000_000],
        help="trace lengths to sweep",
    )
    parser.add_argument(
        "--session-counts",
        type=int,
        nargs="+",
        default=[100, 1_000],
        help="session-population sizes to sweep",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=1.05,
        help="offered load; slightly above 1 saturates the busy set",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args()

    rows = []
    for num_sessions in args.session_counts:
        for num_packets in args.packet_counts:
            times, sessions, sizes = build_workload(
                num_packets, num_sessions, args.load
            )
            engine_rate, engine = bench_engine(
                times, sessions, sizes, num_sessions
            )
            rows.append(
                {
                    "num_packets": num_packets,
                    "num_sessions": num_sessions,
                    "engine_packets_per_sec": engine_rate,
                    "max_gap": engine.gap_report().max_gap,
                    "gap_violations": engine.gap_report().violations,
                }
            )
            print(
                f"packet N={num_packets:9,d} sessions="
                f"{num_sessions:5,d}: {engine_rate:,.0f} packets/s"
            )

    payload = {
        "benchmark": "streaming PGPS/WFQ packet engine",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "load": args.load,
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
