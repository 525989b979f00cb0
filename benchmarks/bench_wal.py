#!/usr/bin/env python3
"""Benchmark the durability tax of the write-ahead log.

Measures sustained ingest throughput (events per second) of the online
service over one JSONL arrival stream under every durability policy:

* **off** — the plain :class:`repro.online.service.OnlineService`
  baseline, no durability at all;
* **never** — WAL appends but no fsync (process-crash safe: the frames
  are in the page cache);
* **batch** — fsync every ``--batch-events`` appends and on
  rotation/close (bounded buffering; at most one batch exposed to
  power loss);
* **group** — group commit: fsync after ``--batch-events`` appends or
  once a 2 ms window has passed, whichever comes first;
* **budget:5ms** — latency budget: fsync once the oldest unsynced
  append is 5 ms old, with no count bound;
* **always** — fsync per append (classic power-loss-safe WAL
  semantics; the upper bound on the tax).

Snapshots are disabled so the numbers isolate pure logging cost.
Writes ``BENCH_wal.json`` (see ``--out``); the CI bench job runs the
``--quick`` variant as a regression gate (group commit must stay
within 3x of ``always``'s throughput advantage — see ci.yml).

Run:  PYTHONPATH=src python benchmarks/bench_wal.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.online.durability import DurableOnlineService
from repro.online.engine import StreamingGPSServer
from repro.online.events import ArrivalEvent, SessionJoin, event_to_record
from repro.online.service import OnlineService

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_wal.json"


def build_lines(
    num_sessions: int, num_arrivals: int, num_slots: int, seed: int = 0
) -> list[str]:
    """A join burst plus a slot-ordered arrival stream, as JSONL."""
    names = [f"s{k}" for k in range(num_sessions)]
    events = [
        SessionJoin(time=0.0, name=name, phi=1.0) for name in names
    ]
    rng = np.random.default_rng(seed)
    per_slot = max(1, num_arrivals // num_slots)
    mean_amount = 0.8 / per_slot
    sessions = rng.integers(0, num_sessions, size=num_arrivals)
    amounts = rng.uniform(0.5, 1.5, size=num_arrivals) * mean_amount
    events.extend(
        ArrivalEvent(
            time=float(i // per_slot),
            session=names[sessions[i]],
            amount=float(amounts[i]),
        )
        for i in range(num_arrivals)
    )
    return [json.dumps(event_to_record(e)) for e in events]


def bench_config(
    lines: list[str], fsync: str | None, batch_events: int
) -> dict:
    """Ingest throughput for one durability configuration."""
    workdir = Path(tempfile.mkdtemp(prefix="bench_wal_"))
    try:
        if fsync is None:
            service = OnlineService(StreamingGPSServer(rate=1.0))
        else:
            service, _ = DurableOnlineService.open(
                workdir / "wal",
                mode="create",
                rate=1.0,
                snapshot_every=0,  # isolate pure logging cost
                fsync=fsync,
                batch_events=batch_events,
            )
        start = time.perf_counter()
        service.ingest(iter(lines))
        if fsync is not None:
            service.wal.close()  # final sync counts as logging cost
        elapsed = time.perf_counter() - start
        wal_bytes = sum(
            p.stat().st_size for p in (workdir / "wal").glob("wal-*.log")
        ) if fsync is not None else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "wal": "off" if fsync is None else fsync,
        "num_events": len(lines),
        "seconds": elapsed,
        "events_per_sec": len(lines) / elapsed,
        "wal_bytes": wal_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sessions",
        type=int,
        default=1_000,
        help="active sessions in the stream",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=50_000,
        help="arrival events in the stream",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=200,
        help="slots the arrival stream spans",
    )
    parser.add_argument(
        "--batch-events",
        type=int,
        default=256,
        help="fsync batch size for the 'batch' policy",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small stream for CI (<60s total, same policy sweep)",
    )
    args = parser.parse_args()
    if args.quick:
        args.sessions = min(args.sessions, 100)
        args.arrivals = min(args.arrivals, 8_000)
        args.slots = min(args.slots, 80)

    lines = build_lines(args.sessions, args.arrivals, args.slots)
    rows = []
    baseline = None
    for fsync in (
        None,
        "never",
        "batch",
        "group",
        "budget:5ms",
        "always",
    ):
        row = bench_config(lines, fsync, args.batch_events)
        if baseline is None:
            baseline = row["events_per_sec"]
        row["relative_throughput"] = row["events_per_sec"] / baseline
        rows.append(row)
        print(
            f"wal={row['wal']:>6}: {row['events_per_sec']:,.0f} "
            f"events/s ({row['relative_throughput']:.1%} of baseline)"
        )

    payload = {
        "benchmark": "write-ahead log durability tax",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": bool(args.quick),
        "batch_events": args.batch_events,
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
