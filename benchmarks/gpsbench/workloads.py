"""The five gpsbench workloads.

Each workload generates its inputs from ``seed``, times its set-up
several times (the last instance is the measured one), feeds the program
from one closed-loop feeder for ``seconds`` of wall time cut into short
windows, checks the program's outputs, and returns an :class:`Outcome`.
Every timing is scaled to the nominal host by the reference loop of
:mod:`benchmarks.gpsbench.measure`, run next to it.
The feeder hands one unit (line, packet, campaign) at a time and
timestamps it; the only other processes are the Monte-Carlo pool
workers.  Input is generated in chunks with the window clock held, so
its cost stays out of every measured number.

With ``trace=True`` odd windows run with the layer wrappers of
:mod:`benchmarks.gpsbench.trace` installed and even windows without, and
the outcome carries the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics
from array import array
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from benchmarks.gpsbench.measure import (
    Windows,
    now_ns,
    peak_rss_mb,
    reference_s,
    scaled_time,
    time_calls,
)
from benchmarks.gpsbench.trace import (
    RECOVERY_SPANS,
    Interleave,
    Tracer,
    common_extras,
    installed,
    layer_metrics,
    overhead_and_coverage,
)

#: End-to-end metrics every workload reports from an untraced run.
E2E_UNITS: dict[str, str] = {
    "events_per_s": "events/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    windows: dict[str, Any]
    config: dict[str, Any]
    trace: dict[str, Any] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _join_line(name: str) -> str:
    return '{"kind":"join","time":0.0,"name":"%s","phi":1.0}' % name


def _arrival_chunks(
    rng: np.random.Generator,
    names: list[str],
    pool: np.ndarray,
    per_slot: int,
    *,
    load: float = 0.8,
    shard_of: np.ndarray | None = None,
    amounts: list[np.ndarray] | None = None,
) -> Iterator[list[tuple[str, int]]]:
    """Endless slot-ordered arrival lines over ``pool`` sessions.

    ``per_slot`` arrivals per slot, amounts U[0.5, 1.5] scaled so the
    rate-1 server runs at ``load``.  Yields chunks of about 4,096
    ``(line, shard)`` pairs; the shard comes from ``shard_of`` (0
    without it).
    """
    slots = max(1, 4096 // per_slot)
    size = slots * per_slot
    scale = load / per_slot
    slot = 1
    while True:
        picks = pool[rng.integers(0, len(pool), size=size)]
        amount = rng.uniform(0.5, 1.5, size=size) * scale
        if amounts is not None:
            amounts.append(amount)
        shards = (
            shard_of[picks].tolist() if shard_of is not None else [0] * size
        )
        picked = picks.tolist()
        values = amount.tolist()
        yield [
            (
                '{"kind":"arrival","time":%r,"session":"%s","amount":%r}'
                % (float(slot + k // per_slot), names[picked[k]], values[k]),
                shards[k],
            )
            for k in range(size)
        ]
        slot += slots


class _AckQueue:
    """Lines handed to one durable service, awaiting their covering fsync."""

    __slots__ = ("pending", "acked", "latency")

    def __init__(self, latency: list, acked: int) -> None:
        self.pending: deque[tuple[int, int]] = deque()
        self.acked = acked
        self.latency = latency

    def covered(self, durable: int, t_ns: int) -> None:
        """Acknowledge every pending line up to sequence ``durable``."""
        pending, latency = self.pending, self.latency
        for _ in range(min(durable - self.acked, len(pending))):
            sent, window = pending.popleft()
            if window >= 0:
                latency[window].append(t_ns - sent)
        self.acked = durable

    def shift(self, ns: int) -> None:
        """Move every pending send time ``ns`` later (the clock was held)."""
        self.pending = deque((sent + ns, window) for sent, window in self.pending)


def _pull(
    windows: Windows, chunks: Iterator[list], queues: Sequence[_AckQueue] = ()
) -> list:
    """The next input chunk, generated with the window clock held.

    Formatting input is the feeder's work, not the program's: it is kept
    out of the window's wall time and out of the wait of every line
    still pending its fsync.
    """
    start = now_ns()
    chunk = next(chunks)
    held = now_ns() - start
    windows.hold(held)
    for queue in queues:
        queue.shift(held)
    return chunk


def _feed_durable(
    windows: Windows,
    chunks: Iterator[list[tuple[str, int]]],
    target: Any,
    services: list[Any],
    queues: list[_AckQueue],
    period: int = 1,
) -> list[tuple[str, int]]:
    """Hand lines one at a time; a line is acked once fsync covers it.

    A window closes only after a multiple of ``period`` lines, so every
    window holds whole snapshot cycles and the same share of snapshot
    work.  Returns the lines of the current chunk not yet fed when the
    last window closed.
    """
    units = windows.units
    index = windows.begin()
    ingest = target.ingest
    fed = 0
    while True:
        chunk = _pull(windows, chunks, queues)
        end = windows.end_ns
        for position, (line, shard) in enumerate(chunk):
            t0 = now_ns()
            if t0 >= end and fed % period == 0:
                index = windows.advance(t0)
                for queue in queues:
                    queue.shift(windows.paused_ns)
                if index < 0:
                    return chunk[position:]
                end = windows.end_ns
                ingest = target.ingest  # re-bind: tracing patches the class
                t0 = now_ns()
            ingest((line,))
            t1 = now_ns()
            fed += 1
            units[index] += 1
            queue = queues[shard]
            queue.pending.append((t0, index))
            durable = services[shard].durable_seq
            if durable > queue.acked:
                queue.covered(durable, t1)


def _drain_acks(
    rest: list[tuple[str, int]],
    chunks: Iterator[list[tuple[str, int]]],
    target: Any,
    services: list[Any],
    queues: list[_AckQueue],
    until: Callable[[], bool] = lambda: True,
) -> int:
    """Keep feeding (untimed) until every measured line is acked and
    ``until()`` holds; returns the number of lines fed."""
    goals = [q.acked + len(q.pending) for q in queues]
    fed = 0
    for line, shard in chain(rest, chain.from_iterable(chunks)):
        t0 = now_ns()
        target.ingest((line,))
        t1 = now_ns()
        fed += 1
        queue = queues[shard]
        queue.pending.append((t0, -1))
        durable = services[shard].durable_seq
        if durable > queue.acked:
            queue.covered(durable, t1)
        done = all(q.acked >= goal for q, goal in zip(queues, goals))
        if done and until():
            return fed
    raise RuntimeError("input stream ended")


def _feed_immediate(
    windows: Windows, chunks: Iterator[list[str]], target: Any
) -> list[str]:
    """Hand lines one at a time; a line is acked when ``ingest`` returns.

    Returns the lines of the current chunk not yet fed when the last
    window closed.
    """
    units, latency = windows.units, windows.latency
    index = windows.begin()
    ingest = target.ingest
    while True:
        chunk = _pull(windows, chunks)
        end = windows.end_ns
        for position, line in enumerate(chunk):
            t0 = now_ns()
            if t0 >= end:
                index = windows.advance(t0)
                if index < 0:
                    return chunk[position:]
                end = windows.end_ns
                ingest = target.ingest
                t0 = now_ns()
            ingest((line,))
            latency[index].append(now_ns() - t0)
            units[index] += 1


def _repeat_setup(
    setup: Callable[[int], Any], teardown: Callable[[Any], None], repeats: int
) -> tuple[float, Any]:
    """Median scaled set-up seconds over ``repeats`` fresh instances;
    every instance but the last is torn down (untimed) and freed before
    the next is built, so two never hold memory at once."""
    times = []
    instance = None
    for k in range(repeats):
        if instance is not None:
            teardown(instance)
            instance = None
            gc.collect()
        elapsed, instance = scaled_time(lambda: setup(k))
        times.append(elapsed)
    return statistics.median(times), instance


def _wal_bytes_per_line(directories: list[Path]) -> float:
    """Bytes per frame over the WAL segments on disk (one frame a line)."""
    size = frames = 0
    for directory in directories:
        for segment in directory.glob("wal-*.log"):
            data = segment.read_bytes()
            size += len(data)
            frames += data.count(b"\n")
    return size / frames if frames else 0.0


def _traced_phase(
    interleave: Interleave, windows: Windows
) -> tuple[float, dict[str, float]]:
    """Traced wall seconds and the overhead/coverage of a windowed run."""
    traced = interleave.traced_windows
    wall_ns = sum(windows.wall_ns[i] for i in traced)
    extras = overhead_and_coverage(
        windows.rates(),
        traced,
        sum(interleave.window_root_ns.values()),
        wall_ns,
    )
    return wall_ns / 1e9, extras


def _e2e(windows: Windows, setup_s: float, rss_mb: float) -> dict[str, float]:
    metrics = windows.summary()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = rss_mb
    return metrics


# ----------------------------------------------------------------------
# correctness checks (pure, so a test can feed them corrupted inputs)
# ----------------------------------------------------------------------
def check_recovery(
    live_state: str, recovered_state: str, applied_seq: int, ingested: int
) -> list[str]:
    """A recovery must rebuild the crashed engine exactly."""
    failures = []
    if live_state != recovered_state:
        failures.append("recovered engine state differs from the live one")
    if applied_seq != ingested:
        failures.append(
            f"recovered applied_seq {applied_seq} != {ingested} lines ingested"
        )
    return failures


def check_admission(
    accepted: int, rejected: int, errors: int, expected: dict[str, int]
) -> list[str]:
    """Decisions must match the ones the generator built in."""
    failures = []
    if accepted != expected["accepted"]:
        failures.append(
            f"accepted {accepted} != {expected['accepted']} generated"
        )
    if rejected != expected["rejected"]:
        failures.append(
            f"rejected {rejected} != {expected['rejected']} generated"
        )
    if errors:
        failures.append(f"{errors} error records")
    return failures


def check_sharded(
    summary: dict[str, Any], sent: int, arrived: float, expected: float
) -> list[str]:
    """Every line processed once, nothing crashed or shed, no work lost."""
    failures = []
    if summary["events_processed"] != sent:
        failures.append(
            f"events_processed {summary['events_processed']} != {sent} sent"
        )
    if summary["crashes"] or summary["shed"]:
        failures.append(
            f"crashes={summary['crashes']} shed={summary['shed']}"
        )
    if abs(arrived - expected) > 1e-9 * abs(expected):
        failures.append(f"total_arrived {arrived!r} != {expected!r} generated")
    return failures


def check_packet(violations: int, emitted: int, pushed: int) -> list[str]:
    """PGPS stays within L_max/r of GPS and every packet departs."""
    failures = []
    if violations:
        failures.append(f"{violations} gap violations")
    if emitted != pushed:
        failures.append(f"emitted {emitted} != pushed {pushed}")
    return failures


def check_mc(
    manifests: list[Any],
    trials: int,
    parallel: dict[int, Any],
    serial: dict[int, Any],
) -> list[str]:
    """Campaigns complete; shared-memory trials equal the serial ones."""
    failures = []
    for index, manifest in enumerate(manifests):
        if (
            manifest.num_completed != trials
            or manifest.failed
            or manifest.skipped
        ):
            failures.append(f"campaign {index}: {manifest.summary()}")
    for trial, payload in serial.items():
        if parallel.get(trial) != payload:
            failures.append(f"trial {trial} differs from the serial run")
    return failures


# ----------------------------------------------------------------------
# serve-durable
# ----------------------------------------------------------------------
def serve_durable(
    seed: int,
    seconds: float,
    scratch: Path,
    *,
    trace: bool = False,
    sessions: int = 10_000,
    pool: int = 1_000,
    per_slot: int = 50,
    snapshot_every: int = 1_000,
    past_snapshot: int = 500,
    recoveries: int = 10,
    setup_repeats: int = 3,
) -> Outcome:
    """``repro serve --wal`` at its defaults, then crash and recover.

    Set-up opens a fresh WAL directory (batch fsync, a snapshot every
    ``snapshot_every`` lines) and joins ``sessions`` sessions.  The
    measured lines are arrivals at ``per_slot`` per slot from a fixed
    pool of ``pool`` busy sessions spread over the index range, at 80%
    load; a line is acked once fsync covers it.  Afterwards the feeder
    ingests until ``past_snapshot`` lines sit past the last snapshot,
    drops the service without shutdown, and recovers ``recoveries``
    times, each from a fresh copy of the crashed directory.
    """
    from repro.online.durability import DurableOnlineService
    from repro.online.records import JsonlSink

    rng = np.random.default_rng(seed)
    names = [f"s{k}" for k in range(sessions)]
    joins = [_join_line(name) for name in names]
    busy = rng.choice(sessions, size=min(pool, sessions), replace=False)
    chunks = _arrival_chunks(rng, names, busy, per_slot)

    def setup(k: int) -> tuple[Any, Any, Path]:
        directory = scratch / f"wal-{k}"
        records = open(scratch / f"records-{k}.jsonl", "w")
        service, _ = DurableOnlineService.open(
            directory,
            mode="create",
            rate=1.0,
            sink=JsonlSink(records),
            fsync="batch",
            snapshot_every=snapshot_every,
            segment_events=10_000,
        )
        service.ingest(joins)
        return service, records, directory

    def teardown(instance: tuple[Any, Any, Path]) -> None:
        service, records, directory = instance
        service.wal.close()
        records.close()
        shutil.rmtree(directory)

    setup_s, (service, records, directory) = _repeat_setup(
        setup, teardown, setup_repeats
    )
    tracer = Tracer()
    interleave = Interleave(tracer)
    # A window closes on the first snapshot boundary past its width, so
    # with a width below one cycle every window is one snapshot cycle.
    windows = Windows(
        seconds, width_s=0.05, on_start=interleave.switch if trace else None
    )
    queue = _AckQueue(windows.latency, service.applied_seq)
    try:
        rest = _feed_durable(
            windows, chunks, service, [service], [queue], snapshot_every
        )
    finally:
        interleave.close()
    tail = _drain_acks(
        rest,
        chunks,
        service,
        [service],
        [queue],
        until=lambda: service.applied_seq % snapshot_every == past_snapshot,
    )
    measured = sum(windows.units)
    ingested = service.applied_seq
    failed = service.errors + service.shed + service.disk_dropped
    live_state = json.dumps(service.engine.export_state(), sort_keys=True)
    records.close()
    emitted_bytes = (scratch / f"records-{setup_repeats - 1}.jsonl").stat().st_size
    del service  # the crash: no shutdown, no final WAL sync

    failures = [f"{failed} error, shed or disk-pressure records"] if failed else []
    recovery = Tracer()
    untraced_s: list[float] = []
    traced_s = 0.0
    for k in range(recoveries):
        copy = scratch / f"recover-{k}"
        shutil.copytree(directory, copy)
        traced = trace and k % 2 == 1
        start = now_ns()
        with installed(recovery, RECOVERY_SPANS) if traced else nullcontext():
            recovered, _ = DurableOnlineService.open(copy, mode="recover")
        elapsed = (now_ns() - start) / 1e9
        if traced:
            traced_s += elapsed
        else:
            untraced_s.append(elapsed)
        state = json.dumps(recovered.engine.export_state(), sort_keys=True)
        failures += check_recovery(
            live_state, state, recovered.applied_seq, ingested
        )
        recovered.wal.close()
        shutil.rmtree(copy)
    rss = peak_rss_mb()

    config = {
        "sessions": sessions,
        "pool": pool,
        "per_slot": per_slot,
        "snapshot_every": snapshot_every,
        "recoveries": recoveries,
        "setup_repeats": setup_repeats,
        "measured_lines": measured,
        "tail_lines": tail,
    }
    outcome = Outcome(
        metrics={},
        attempted=ingested,
        failed=failed,
        failures=failures,
        windows=windows.record(),
        config=config,
        extra={"recover_s": untraced_s},
    )
    if not trace:
        outcome.metrics = _e2e(windows, setup_s, rss)
        return outcome
    wall, extras = _traced_phase(interleave, windows)
    extras.update(common_extras(tracer))
    extras["wal.bytes_per_line"] = _wal_bytes_per_line([directory])
    extras["emit.bytes_per_line"] = emitted_bytes / ingested
    traced_recoveries = recoveries // 2
    if traced_recoveries:
        extras["recover.replayed_lines"] = (
            recovery.counts.get("recover.replayed_lines", 0) / traced_recoveries
        )
    if untraced_s:
        extras["recover.wall_s"] = statistics.median(untraced_s)
    outcome.metrics = layer_metrics(tracer, wall, recovery, traced_s, extras)
    outcome.trace = {"windows": tracer.dump(), "recovery": recovery.dump()}
    return outcome


# ----------------------------------------------------------------------
# serve-admission
# ----------------------------------------------------------------------
def _declaration(sessions: int) -> tuple[Any, Any, Any]:
    """The admission bench's session contract at 50% aggregate load.

    The critical guaranteed rate sits at 1.5x the upper rate, below the
    2x RPPS share the population grants, so churn keeps every plain
    join admissible.  Returns ``(ebb, target, tight)``, where ``tight``
    asks for 5% of the feasible delay and is always refused.
    """
    from repro.analysis.admission import QoSTarget
    from repro.core.ebb import EBB

    alpha, epsilon = 2.0, 1e-3
    rho = 0.5 / sessions
    g_crit = 1.5 * rho
    prefactor = 1.0 / -math.expm1(-alpha * (g_crit - rho))
    d_max = math.log(prefactor / epsilon) / (alpha * g_crit)
    ebb = EBB(rho=rho, prefactor=1.0, decay_rate=alpha)
    return (
        ebb,
        QoSTarget(d_max=d_max, epsilon=epsilon),
        QoSTarget(d_max=0.05 * d_max, epsilon=epsilon),
    )


def _admission_chunks(
    rng: np.random.Generator,
    names: list[str],
    arrivals: int,
    pairs: int,
    tight_share: float,
    expected: dict[str, int],
) -> Iterator[list[str]]:
    """Endless churn, one chunk of lines per slot: one weight
    renegotiation, ``pairs`` leave+join pairs (rate jittered ±5%; a
    ``tight_share`` of the joins ask for an infeasible delay and are
    refused, and the departed session re-joins), then ``arrivals``
    arrivals at 50% load.  ``expected`` counts the decisions built into
    every chunk yielded so far.
    """
    from repro.core.ebb import EBB
    from repro.online.events import (
        ArrivalEvent,
        Renegotiate,
        SessionJoin,
        SessionLeave,
        event_to_record,
    )

    ebb, target, tight = _declaration(len(names))
    names = list(names)
    declared = {name: ebb for name in names}
    next_id = len(names)
    scale = 0.5 / arrivals
    slot = 1

    def line(event: Any) -> str:
        return json.dumps(event_to_record(event))

    while True:
        time = float(slot)
        pick = int(rng.integers(len(names)))
        expected["accepted"] += 1
        chunk = [
            line(
                Renegotiate(
                    time=time, name=names[pick], phi=float(rng.uniform(0.5, 2.0))
                )
            )
        ]
        for _ in range(pairs):
            pick = int(rng.integers(len(names)))
            gone = names[pick]
            chunk.append(line(SessionLeave(time=time, name=gone)))
            new = f"s{next_id}"
            next_id += 1
            jittered = EBB(
                rho=ebb.rho * float(rng.uniform(0.95, 1.05)),
                prefactor=ebb.prefactor,
                decay_rate=ebb.decay_rate,
            )
            if rng.random() < tight_share:
                expected["rejected"] += 1
                chunk.append(
                    line(
                        SessionJoin(
                            time=time, name=new, phi=1.0, ebb=jittered, target=tight
                        )
                    )
                )
                expected["accepted"] += 1
                chunk.append(
                    line(
                        SessionJoin(
                            time=time,
                            name=gone,
                            phi=1.0,
                            ebb=declared[gone],
                            target=target,
                        )
                    )
                )
            else:
                expected["accepted"] += 1
                chunk.append(
                    line(
                        SessionJoin(
                            time=time, name=new, phi=1.0, ebb=jittered, target=target
                        )
                    )
                )
                del declared[gone]
                declared[new] = jittered
                names[pick] = new
        picks = rng.integers(len(names), size=arrivals).tolist()
        amounts = (rng.uniform(0.5, 1.5, size=arrivals) * scale).tolist()
        chunk.extend(
            line(ArrivalEvent(time=time, session=names[picks[k]], amount=amounts[k]))
            for k in range(arrivals)
        )
        yield chunk
        slot += 1


def serve_admission(
    seed: int,
    seconds: float,
    scratch: Path,
    *,
    trace: bool = False,
    sessions: int = 1_000,
    arrivals: int = 20,
    pairs: int = 2,
    tight_share: float = 0.2,
    setup_repeats: int = 3,
) -> Outcome:
    """``repro serve --admission`` at its defaults, no WAL.

    Set-up admits ``sessions`` E.B.B.-declared joins at 50% aggregate
    load through an ``AdmissionController(rate=1.0)`` (diagnostics on,
    incremental gate).  The measured lines are the churn of
    :func:`_admission_chunks`; a line is acked when ``ingest`` returns,
    i.e. once its record is emitted.
    """
    from repro.online.admission import AdmissionController
    from repro.online.engine import StreamingGPSServer
    from repro.online.events import SessionJoin, event_to_record
    from repro.online.records import JsonlSink
    from repro.online.service import OnlineService

    rng = np.random.default_rng(seed)
    names = [f"s{k}" for k in range(sessions)]
    ebb, target, _ = _declaration(sessions)
    joins = [
        json.dumps(
            event_to_record(
                SessionJoin(time=0.0, name=name, phi=1.0, ebb=ebb, target=target)
            )
        )
        for name in names
    ]
    expected = {"accepted": sessions, "rejected": 0}
    chunks = _admission_chunks(rng, names, arrivals, pairs, tight_share, expected)

    def setup(k: int) -> tuple[Any, Any]:
        records = open(scratch / f"records-{k}.jsonl", "w")
        engine = StreamingGPSServer(
            rate=1.0, admission=AdmissionController(rate=1.0)
        )
        service = OnlineService(engine, sink=JsonlSink(records))
        service.ingest(joins)
        return service, records

    def teardown(instance: tuple[Any, Any]) -> None:
        instance[1].close()

    setup_s, (service, records) = _repeat_setup(setup, teardown, setup_repeats)
    tracer = Tracer()
    interleave = Interleave(tracer)
    windows = Windows(seconds, on_start=interleave.switch if trace else None)
    try:
        rest = _feed_immediate(windows, chunks, service)
    finally:
        interleave.close()
    service.ingest(rest)  # every generated line is fed
    lines = service.lineno
    rss = peak_rss_mb()
    records.close()
    result = service.engine.result()
    failures = check_admission(
        result.accepted, result.rejected, service.errors, expected
    )
    outcome = Outcome(
        metrics={},
        attempted=lines,
        failed=service.errors + service.shed,
        failures=failures,
        windows=windows.record(),
        config={
            "sessions": sessions,
            "arrivals": arrivals,
            "pairs": pairs,
            "tight_share": tight_share,
            "setup_repeats": setup_repeats,
            "accepted": result.accepted,
            "rejected": result.rejected,
        },
    )
    if not trace:
        outcome.metrics = _e2e(windows, setup_s, rss)
        return outcome
    wall, extras = _traced_phase(interleave, windows)
    extras.update(common_extras(tracer))
    extras["emit.bytes_per_line"] = (
        (scratch / f"records-{setup_repeats - 1}.jsonl").stat().st_size / lines
    )
    outcome.metrics = layer_metrics(tracer, wall, extras=extras)
    outcome.trace = {"windows": tracer.dump()}
    return outcome


# ----------------------------------------------------------------------
# serve-sharded
# ----------------------------------------------------------------------
def serve_sharded(
    seed: int,
    seconds: float,
    scratch: Path,
    *,
    trace: bool = False,
    sessions: int = 100_000,
    shards: int = 4,
    per_slot: int = 500,
    setup_repeats: int = 3,
) -> Outcome:
    """``repro serve --shards 4`` in-process, batch fsync, no snapshots.

    Set-up opens the cluster and joins ``sessions`` sessions.  The
    measured lines are arrivals at ``per_slot`` per slot, uniform over
    every session, at 80% load.  A line is acked once its shard's fsync
    covers it: the shard comes from ``ShardRouter.route`` (resolved
    while generating input) and the local sequence from the shard's
    ``applied_seq``.
    """
    from repro.online.cluster import ShardedOnlineCluster
    from repro.online.cluster.routing import ShardRouter
    from repro.online.records import JsonlSink

    rng = np.random.default_rng(seed)
    names = [f"s{k}" for k in range(sessions)]
    joins = [_join_line(name) for name in names]
    router = ShardRouter(shards)
    shard_of = np.array([router.route(line)[0] for line in joins])
    amounts: list[np.ndarray] = []
    chunks = _arrival_chunks(
        rng,
        names,
        np.arange(sessions),
        per_slot,
        shard_of=shard_of,
        amounts=amounts,
    )

    def setup(k: int) -> tuple[Any, Any, Path]:
        root = scratch / f"cluster-{k}"
        records = open(scratch / f"records-{k}.jsonl", "w")
        cluster, _ = ShardedOnlineCluster.open(
            root,
            mode="create",
            num_shards=shards,
            rate=1.0,
            sink=JsonlSink(records),
            fsync="batch",
            snapshot_every=0,
        )
        cluster.ingest(joins)
        return cluster, records, root

    def teardown(instance: tuple[Any, Any, Path]) -> None:
        cluster, records, root = instance
        cluster.shutdown()
        records.close()
        shutil.rmtree(root)

    setup_s, (cluster, records, root) = _repeat_setup(
        setup, teardown, setup_repeats
    )
    services = [handle.service for handle in cluster.handles]
    base = [service.applied_seq for service in services]
    tracer = Tracer()
    interleave = Interleave(tracer)
    windows = Windows(seconds, on_start=interleave.switch if trace else None)
    queues = [_AckQueue(windows.latency, seq) for seq in base]
    try:
        rest = _feed_durable(windows, chunks, cluster, services, queues)
    finally:
        interleave.close()
    tail = _drain_acks(rest, chunks, cluster, services, queues)
    routed = [s.applied_seq - b for s, b in zip(services, base)]
    arrivals = sum(windows.units) + tail
    result = cluster.shutdown()
    rss = peak_rss_mb()
    records.close()
    summary = result.summary()
    arrived = math.fsum(r.total_arrived for r in result.results)
    generated = math.fsum(np.concatenate(amounts)[:arrivals].tolist())
    failures = check_sharded(summary, sessions + arrivals, arrived, generated)
    outcome = Outcome(
        metrics={},
        attempted=sessions + arrivals,
        failed=summary["shed"] + sum(s.errors for s in services),
        failures=failures,
        windows=windows.record(),
        config={
            "sessions": sessions,
            "shards": shards,
            "per_slot": per_slot,
            "setup_repeats": setup_repeats,
            "tail_lines": tail,
            "lines_per_shard": routed,
        },
    )
    if not trace:
        outcome.metrics = _e2e(windows, setup_s, rss)
        return outcome
    wall, extras = _traced_phase(interleave, windows)
    extras.update(common_extras(tracer))
    extras["wal.bytes_per_line"] = _wal_bytes_per_line(
        [handle.directory for handle in cluster.handles]
    )
    extras["emit.bytes_per_line"] = (
        (scratch / f"records-{setup_repeats - 1}.jsonl").stat().st_size
        / (sessions + arrivals)
    )
    extras["cluster.shard_skew"] = max(routed) / (sum(routed) / len(routed))
    outcome.metrics = layer_metrics(tracer, wall, extras=extras)
    outcome.trace = {"windows": tracer.dump()}
    return outcome


# ----------------------------------------------------------------------
# packet-saturated
# ----------------------------------------------------------------------
def _packet_trace(
    rng: np.random.Generator, sessions: int, load: float, size: int
) -> tuple[list[float], list[int], list[float]]:
    """A Poisson packet trace at ``load`` on a rate-1 server: sizes
    U[0.5, 1.5], sessions uniform, as ``(times, sessions, sizes)``."""
    return (
        np.cumsum(rng.exponential(1.0 / load, size=size)).tolist(),
        rng.integers(0, sessions, size=size).tolist(),
        rng.uniform(0.5, 1.5, size=size).tolist(),
    )


def packet_saturated(
    seed: int,
    seconds: float,
    scratch: Path,
    *,
    trace: bool = False,
    sessions: int = 1_000,
    load: float = 1.05,
    packets: int = 200_000,
    setup_repeats: int = 50,
) -> Outcome:
    """``PacketEngine.push`` over saturating Poisson traces, then finish.

    At load 1.05 every session outruns its GPS share, so the whole
    population stays busy and the backlog grows along a trace.  Each
    round is one fresh engine fed a ``packets``-packet trace, traces
    run back to back until ``seconds`` have passed: one trace spanning
    the run made every window see a larger backlog than the last (the
    rate fell by a third), so no two windows measured the same work.
    Each tenth of a trace is a window, bracketed by the reference loop;
    the first trace is warm-up.  A packet is acked when ``push``
    returns; ``finish`` runs untimed after each trace.  Set-up is the
    engine construction, timed ``setup_repeats`` times before every
    trace.
    """
    from repro.packet.engine import PacketEngine

    rng = np.random.default_rng(seed)
    phis = [1.0 / sessions] * sessions
    setup_times: list[float] = []
    tracer = Tracer()
    tenth = max(1, packets // 10)
    walls: list[int] = []
    # One entry per tenth of a trace: the windows.
    units: list[int] = []
    part_ns: list[int] = []
    part_ref: list[float] = []
    latencies: list[array] = []
    traced: list[int] = []
    traced_parts: list[int] = []
    decay: dict[int, float] = {}
    in_flight: list[int] = []
    busy_max = pushed = push_root_ns = 0
    failures: list[str] = []
    finish_s = 0.0
    start = now_ns()
    while len(walls) < 3 or now_ns() - start < seconds * 1e9:
        index = len(walls)
        first_part = len(units)
        times, who, sizes = _packet_trace(rng, sessions, load, packets)
        time_calls(lambda: PacketEngine(1.0, phis), setup_repeats, setup_times)
        engine = PacketEngine(1.0, phis)
        is_traced = trace and index % 2 == 1
        with installed(tracer) if is_traced else nullcontext():
            push = engine.push
            root_ns_before = tracer.root_ns
            ref = reference_s()
            for base in range(0, packets, tenth):
                stop = base + tenth
                batch = zip(who[base:stop], sizes[base:stop], times[base:stop])
                lat = array("q")
                t_part = now_ns()
                if trace:
                    # No per-packet timestamps: the traced run reports no
                    # latency, and they would sit outside every span.
                    for session, size, at in batch:
                        push(session, size, at)
                else:
                    for session, size, at in batch:
                        t0 = now_ns()
                        push(session, size, at)
                        lat.append(now_ns() - t0)
                part_ns.append(now_ns() - t_part)
                ref_next = reference_s()
                part_ref.append((ref + ref_next) / 2)
                ref = ref_next
                units.append(min(stop, packets) - base)
                latencies.append(lat)
            push_root_ns += tracer.root_ns - root_ns_before
            in_flight.append(engine.in_flight)
            clock = tracer.objects.get("vclock")
            if is_traced and clock is not None:
                busy_max = max(busy_max, clock.busy_count)
            f0 = now_ns()
            engine.finish()
            if is_traced:
                finish_s += (now_ns() - f0) / 1e9
        report = engine.gap_report()
        failures += check_packet(
            report.violations, engine.packets_emitted, engine.packets_pushed
        )
        pushed += engine.packets_pushed
        parts = range(first_part, len(units))
        if is_traced:
            traced.append(index)
            traced_parts.extend(parts)
        elif len(parts) > 1:
            # Last tenth's rate over the first's, each scaled to the
            # nominal host.
            first, last = parts[0], parts[-1]
            decay[index] = (part_ns[first] / part_ref[first]) / (
                part_ns[last] / part_ref[last]
            )
        walls.append(sum(part_ns[i] for i in parts))
    rss = peak_rss_mb()
    windows = Windows.of_rounds(
        seconds,
        units,
        part_ns,
        latencies,
        part_ref,
        warmup=len(units) // len(walls),
    )
    outcome = Outcome(
        metrics={},
        attempted=pushed,
        failed=0,
        failures=failures,
        windows=windows.record(),
        config={
            "sessions": sessions,
            "load": load,
            "packets": packets,
            "setup_repeats": setup_repeats,
            "traces": len(walls),
            "in_flight": in_flight,
        },
    )
    if not trace:
        outcome.metrics = _e2e(windows, statistics.median(setup_times), rss)
        return outcome
    traced_wall = sum(walls[i] for i in traced)
    extras = common_extras(tracer)
    extras.update(
        overhead_and_coverage(
            windows.rates(), traced_parts, push_root_ns, traced_wall
        )
    )
    extras["packet.in_flight_max"] = max(in_flight)
    extras["vclock.busy_max"] = busy_max
    counted = [decay[i] for i in decay if i > 0]
    if counted:
        extras["packet.rate_decay"] = statistics.median(counted)
    outcome.metrics = layer_metrics(
        tracer, traced_wall / 1e9 + finish_s, extras=extras
    )
    outcome.trace = {"windows": tracer.dump()}
    return outcome



# ----------------------------------------------------------------------
# mc-batch
# ----------------------------------------------------------------------
def _mc_scenario(horizon: int, seed: int) -> Any:
    """Eight heterogeneous sessions at ~72% load.

    The mix of ``benchmarks/bench_engine.py``'s ``build_scenario``, seeded
    from ``--seed``.  It is written out here rather than imported so the
    benchmark depends on nothing outside its own directory: editing or
    retiring the older bench scripts cannot change what it measures.
    """
    from repro.markov.onoff import OnOffSource
    from repro.scenario import Scenario
    from repro.traffic.sources import (
        BernoulliBurstTraffic,
        ConstantBitRateTraffic,
        OnOffTraffic,
    )

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
        horizon=horizon,
        seed=seed,
    )


def mc_batch(
    seed: int,
    seconds: float,
    scratch: Path,
    *,
    trace: bool = False,
    trials: int = 96,
    horizon: int = 16_000,
    workers: int = 2,
    campaigns: int = 4,
    check_trials: int = 2,
    setup_repeats: int = 300,
) -> Outcome:
    """Back-to-back shared-memory Monte-Carlo campaigns.

    Each campaign is ``SupervisedRunner(scenario, num_trials=trials,
    dispatch="shared-memory", max_workers=workers)`` with a base seed
    derived from ``seed``; at least ``campaigns`` run, and more while
    ``seconds`` have not passed.  Each campaign is a window, and every
    one counts.  The manifest is the only output, so every trial of a
    campaign is acked when ``run`` returns.  Set-up is building the
    scenario and the runner, timed ``setup_repeats`` times before every
    campaign.
    """
    from repro.experiments.supervisor import SupervisedRunner

    def base_seed(campaign: int) -> int:
        child = np.random.SeedSequence(seed, spawn_key=(campaign,))
        return int(child.generate_state(1, dtype=np.uint32)[0])

    def runner(campaign: int, scenario: Any) -> Any:
        return SupervisedRunner(
            scenario=scenario,
            num_trials=trials,
            dispatch="shared-memory",
            max_workers=workers,
            base_seed=base_seed(campaign),
        )

    setup_times: list[float] = []
    scenario = _mc_scenario(horizon, seed)
    spool = scratch / "spool"
    spool.mkdir()
    tracer = Tracer(spool=spool)
    units: list[int] = []
    walls: list[int] = []
    refs: list[float] = []
    traced: list[int] = []
    kernel_ns = shm_bytes = 0
    manifests = []
    start = now_ns()
    while len(walls) < campaigns or now_ns() - start < seconds * 1e9:
        campaign = len(walls)
        is_traced = trace and campaign % 2 == 1
        time_calls(
            lambda: runner(campaign, _mc_scenario(horizon, seed)),
            setup_repeats,
            setup_times,
        )
        supervised = runner(campaign, scenario)
        ref = reference_s()
        with installed(tracer) if is_traced else nullcontext():
            t0 = now_ns()
            manifest = supervised.run()
            t1 = now_ns()
        refs.append((ref + reference_s()) / 2)
        if is_traced:
            traced.append(campaign)
            for _, begin, end, size in tracer.merge_spool():
                kernel_ns += end - begin
                shm_bytes += size
        units.append(trials * horizon)
        walls.append(t1 - t0)
        manifests.append(manifest)
    rss = peak_rss_mb(children=True)
    serial = SupervisedRunner(
        scenario=scenario, num_trials=check_trials, base_seed=base_seed(1)
    ).run()
    failures = check_mc(
        manifests, trials, manifests[1].completed, serial.completed
    )
    # No campaign is warm-up: the set-up loop before the first already
    # warms every code path, and over 20 runs on a 2-vCPU x86_64 VM
    # (the baseline host) the first campaign's scaled
    # wall time sat at a median 0.985 of the others'.  Counting it gives
    # the median four campaigns instead of three.
    windows = Windows.of_rounds(
        seconds,
        units,
        walls,
        [array("q", [wall]) for wall in walls],
        refs,
        warmup=0,
    )
    outcome = Outcome(
        metrics={},
        attempted=trials * len(walls),
        failed=sum(len(m.failed) for m in manifests),
        failures=failures,
        windows=windows.record(),
        config={
            "trials": trials,
            "horizon": horizon,
            "workers": workers,
            "campaigns": len(walls),
            "check_trials": check_trials,
            "setup_repeats": setup_repeats,
        },
    )
    if not trace:
        outcome.metrics = _e2e(windows, statistics.median(setup_times), rss)
        return outcome
    traced_wall = sum(walls[i] for i in traced)
    extras = common_extras(tracer)
    extras.update(
        overhead_and_coverage(
            windows.rates(), traced, tracer.root_ns, traced_wall
        )
    )
    extras["mc.worker_util"] = kernel_ns / (traced_wall * workers)
    extras["mc.shm_bytes"] = shm_bytes / len(traced)
    outcome.metrics = layer_metrics(tracer, traced_wall / 1e9, extras=extras)
    outcome.trace = {"windows": tracer.dump()}
    return outcome


#: Workload name -> function, in run order.
WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "serve-durable": serve_durable,
    "serve-admission": serve_admission,
    "serve-sharded": serve_sharded,
    "packet-saturated": packet_saturated,
    "mc-batch": mc_batch,
}
