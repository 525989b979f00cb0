"""Process-mode shard worker: ``python -m repro.online.cluster.worker``.

Runs one durable shard in its own OS process.  The worker opens (or
recovers) the WAL directory, emits the recovery report as its first
output record, then ingests JSONL lines from stdin one at a time —
flushing the output file after every line, so the file's mtime is the
shard's **heartbeat**: a supervisor that sees the mtime go stale while
traffic is flowing knows the worker is hung, not merely idle.  On
stdin EOF the worker drains gracefully and emits the final summary.

The ``--hang-after N`` flag is the chaos harness's hung-shard hook:
after ingesting N lines the worker stops reading and sleeps forever
(heartbeat frozen, process alive) — exactly the failure mode that
liveness checks exist to catch, since ``wait()``/``poll()`` style
deadness checks never fire for it.

Exit codes: ``0`` clean drain, ``2`` usage error, ``3`` recovery
failure.  A SIGKILL mid-ingest needs no cooperation from this code at
all — that is the point of the WAL.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.online.durability.scrub import scrub_directory
from repro.online.durability.service import DurableOnlineService

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="run one durable GPS shard over stdin JSONL",
    )
    parser.add_argument(
        "--dir", required=True, help="shard WAL directory"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="server rate (required when creating a fresh directory)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output record file (default: stdout); its mtime is the "
        "worker heartbeat",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="snapshot cadence override for fresh directories",
    )
    parser.add_argument(
        "--fsync",
        default=None,
        help="WAL fsync policy override for fresh directories "
        "(always/batch/never/group[:Nms]/budget[:Nms]); "
        "recovery always follows the directory's recorded policy",
    )
    parser.add_argument(
        "--hang-after",
        type=int,
        default=None,
        help="test hook: stop reading and sleep forever after N lines",
    )
    parser.add_argument(
        "--scrub",
        action="store_true",
        help="verify and repair WAL/snapshot integrity before "
        "attaching; unrecoverable corruption refuses to start",
    )
    args = parser.parse_args(argv)

    if args.out is not None:
        sink = open(args.out, "a", encoding="utf-8")
    else:
        sink = sys.stdout

    if args.scrub:
        try:
            scrubbed = scrub_directory(Path(args.dir), repair=True)
            scrubbed.raise_if_unrecoverable()
        except ReproError as exc:
            print(f"shard worker: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"shard worker: scrub failed: {exc}", file=sys.stderr)
            return 3
        if not scrubbed.clean:
            sink.write(json.dumps(scrubbed.to_record()) + "\n")
            sink.flush()

    overrides = {}
    if args.snapshot_every is not None:
        overrides["snapshot_every"] = args.snapshot_every
    if args.fsync is not None:
        overrides["fsync"] = args.fsync
    try:
        service, report = DurableOnlineService.open(
            Path(args.dir),
            mode="attach",
            rate=args.rate,
            sink=sink,
            **overrides,
        )
    except ReproError as exc:
        print(f"shard worker: {exc}", file=sys.stderr)
        return 3
    sink.write(json.dumps(report.to_record()) + "\n")
    sink.flush()

    ingested = 0
    for line in sys.stdin:
        service.ingest([line.rstrip("\n")])
        sink.flush()
        ingested += 1
        if args.hang_after is not None and ingested >= args.hang_after:
            # Simulated hang: alive but frozen — the heartbeat (out
            # file mtime) stops advancing and never recovers.
            while True:
                time.sleep(3600)
    service.shutdown()
    sink.flush()
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
