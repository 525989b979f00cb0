"""Disk-fault chaos: errno injection over the durable serving stack.

The invariant mirrors the crash-chaos harness, one layer down: under
every seeded :class:`repro.faults.FaultyFS` schedule — ``EIO`` on
fsync, ``ENOSPC`` on append, a lying fsync followed by power loss, a
bit flip in a cold segment — recovery either reproduces the
uninterrupted run (``np.array_equal`` on the backlog trajectory) or
fails with a typed error naming the exact unrecoverable sequence
range.  No acknowledged event is ever silently lost, under every WAL
writer policy.
"""

import json

import pytest

from repro.errors import RecoveryError
from repro.faults import DiskFault, FaultyFS
from repro.online import OnlineService, StreamingGPSServer
from repro.online.durability import DurableOnlineService, scrub_directory
from repro.online.events import (
    ArrivalEvent,
    SessionJoin,
    event_to_record,
)

from tests.online.test_recovery_chaos import (
    RATE,
    _assert_equivalent,
    _baseline,
    _stream,
)

#: Every WAL writer the fault schedules must hold for.
POLICIES = ["always", "batch", "group:1ms", "budget:1ms", "async"]


class _ListSink:
    """Capture records as dicts (no serialization round trip)."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))

    def flush(self):
        pass


def _create(tmp_path, io, **overrides):
    overrides.setdefault("rate", RATE)
    overrides.setdefault("admission", True)
    overrides.setdefault("snapshot_every", 25)
    overrides.setdefault("record_traces", True)
    service, _ = DurableOnlineService.open(
        tmp_path, mode="create", io=io, **overrides
    )
    return service


def _recover(tmp_path, io=None, **kwargs):
    return DurableOnlineService.open(
        tmp_path, mode="recover", io=io, **kwargs
    )


class TestFsyncEio:
    @pytest.mark.parametrize("fsync", POLICIES)
    def test_eio_repair_loses_nothing(self, tmp_path, fsync):
        """A failed fsync seals/rewrites; every line stays durable."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        io = FaultyFS(
            (DiskFault(kind="eio", op="fsync", start=1),), seed=7
        )
        svc = _create(
            tmp_path, io, fsync=fsync, segment_events=20
        )
        svc.ingest(iter(lines))
        assert svc.applied_seq == len(lines)
        svc.wal.close()
        recovered, report = _recover(tmp_path, io)
        assert recovered.applied_seq == len(lines)
        result = recovered.shutdown()
        _assert_equivalent(base_svc, base, recovered, result)

    @pytest.mark.parametrize("fsync", POLICIES)
    def test_eio_repair_survives_power_loss(self, tmp_path, fsync):
        """After the repair's re-sync, the log is power-loss durable."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        io = FaultyFS(
            (DiskFault(kind="eio", op="fsync", start=1),), seed=7
        )
        svc = _create(
            tmp_path, io, fsync=fsync, segment_events=20
        )
        svc.ingest(iter(lines))
        durable = svc.wal.durable_seq
        svc.wal.sync()
        assert svc.wal.durable_seq == len(lines) >= durable
        # Power cut without a clean close: only honestly fsynced
        # bytes survive.  The explicit sync covered everything.
        io.lose_power()
        recovered, report = _recover(tmp_path, io)
        assert recovered.applied_seq == len(lines)
        result = recovered.shutdown()
        _assert_equivalent(base_svc, base, recovered, result)


class TestLyingFsync:
    @pytest.mark.parametrize("fsync", POLICIES)
    def test_power_loss_after_lying_fsync_resumes_to_baseline(
        self, tmp_path, fsync
    ):
        """Firmware that lies about fsync loses the acked tail on
        power loss; recovery still yields a clean prefix and resuming
        the stream converges to the uninterrupted run."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        # Every fsync after the second lies: durable_seq keeps
        # advancing but the disk's true durable prefix is frozen.
        io = FaultyFS(
            (
                DiskFault(
                    kind="lying-fsync",
                    op="fsync",
                    start=2,
                    count=10**9,
                ),
            ),
            seed=11,
        )
        svc = _create(
            tmp_path,
            io,
            fsync=fsync,
            snapshot_every=10**9,  # all state lives in the WAL
            segment_events=10**9,  # single segment: torn tail only
        )
        svc.ingest(iter(lines))
        lost = io.lose_power()
        assert lost, "the lying fsync must have stranded bytes"
        recovered, report = _recover(tmp_path, FaultyFS(seed=11))
        applied = recovered.applied_seq
        assert 0 <= applied < len(lines)
        recovered.ingest(iter(lines[applied:]))
        result = recovered.shutdown()
        _assert_equivalent(base_svc, base, recovered, result)


class TestDiskPressure:
    def test_enospc_append_rolls_back_and_retries(self, tmp_path):
        """A transient ENOSPC on one append never drops the line."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        io = FaultyFS(
            (DiskFault(kind="enospc", op="write", start=40),), seed=3
        )
        svc = _create(
            tmp_path, io, fsync="always", segment_events=20
        )
        svc.ingest(iter(lines))
        assert svc.applied_seq == len(lines)
        assert svc.disk_dropped == 0
        svc.wal.close()
        recovered, report = _recover(tmp_path, io)
        result = recovered.shutdown()
        _assert_equivalent(base_svc, base, recovered, result)

    def test_byte_budget_degrades_without_losing_acked_lines(
        self, tmp_path
    ):
        """A full disk sheds with typed records instead of crashing,
        and recovery reproduces exactly the applied prefix."""
        lines = _stream()
        sink = _ListSink()
        io = FaultyFS(byte_budget=4000)
        svc = _create(
            tmp_path,
            io,
            fsync="always",
            sink=sink,
            snapshot_every=10**9,  # no snapshots: nothing prunable
            segment_events=10**9,
        )
        svc.ingest(iter(lines))
        pressure = [
            r for r in sink.records if r.get("kind") == "disk-pressure"
        ]
        assert pressure, "the byte budget must have been exhausted"
        dropped = [r for r in pressure if r["resumed"] is False]
        assert dropped, "some lines must actually have been dropped"
        assert svc.disk_dropped == len(dropped)
        assert svc.disk_dropped + svc.applied_seq == len(lines)
        applied = svc.applied_seq
        # Every applied (acked) line survives; none were reordered or
        # renumbered around the dropped ones.
        recovered, report = _recover(tmp_path, FaultyFS())
        assert recovered.applied_seq == applied

    def test_disk_pressure_resume_record_after_freeing_space(
        self, tmp_path
    ):
        """Bytes freed mid-stream end a pressure episode: the next
        append that fits is logged, and the service says so with one
        ``resumed`` record.

        The bytes are freed by deleting an unrelated file on the same
        disk.  Snapshot-covered pruning cannot end an episode: no line
        is applied under pressure, so no snapshot is taken and the
        prune horizon stays where the first drop's prune left it.
        """
        lines = _stream()
        half = len(lines) // 2
        sink = _ListSink()
        ballast = tmp_path / "ballast.bin"
        ballast_bytes = 1 << 16
        io = FaultyFS(byte_budget=ballast_bytes + 2000)
        with io.open(ballast, "wb") as handle:
            handle.write(b"\0" * ballast_bytes)
        state = tmp_path / "state"
        svc = _create(
            state,
            io,
            fsync="always",
            sink=sink,
            snapshot_every=10**9,
            segment_events=10**9,
        )
        svc.ingest(iter(lines[:half]))
        dropped = [
            r for r in sink.records if r.get("kind") == "disk-pressure"
        ]
        assert dropped, "the byte budget must have been exhausted"
        assert not any(r["resumed"] for r in dropped)
        assert svc.disk_pressure
        assert svc.disk_dropped == len(dropped)
        applied = svc.applied_seq

        io.unlink(ballast)
        first_after = len(sink.records)
        svc.ingest(iter(lines[half:]))
        pressure = [
            r
            for r in sink.records[first_after:]
            if r.get("kind") == "disk-pressure"
        ]
        assert len(pressure) == 1
        assert pressure[0]["resumed"] is True
        # The resumed line takes the sequence number after the last
        # applied one: dropped lines never consumed one.
        assert pressure[0]["line"] == applied + 1
        assert pressure[0]["dropped"] == len(dropped)
        assert not svc.disk_pressure
        assert svc.disk_dropped == len(dropped)
        assert svc.applied_seq + svc.disk_dropped == len(lines)
        svc.wal.close()
        recovered, report = _recover(state, FaultyFS())
        assert recovered.applied_seq == svc.applied_seq


def _small_lines(n=21):
    """A fixed 1-join + arrivals stream with exact segment geometry."""
    events = [SessionJoin(time=0.0, name="s", phi=1.0)]
    for t in range(1, n):
        events.append(
            ArrivalEvent(time=float(t), session="s", amount=1.0)
        )
    return [json.dumps(event_to_record(e)) + "\n" for e in events]


class TestBitFlip:
    def test_flip_in_covered_cold_segment_scrub_repairs(self, tmp_path):
        """Strict recovery refuses the flipped segment; the scrubber
        quarantines it (snapshot-covered) and recovery then
        reproduces the uninterrupted run."""
        lines = _small_lines()
        base_svc = OnlineService(
            StreamingGPSServer(rate=RATE, record_traces=True)
        )
        base = base_svc.serve(iter(lines))
        # With segment_events=5 / snapshot_every=10 over 21 lines the
        # segments are wal-01/06/11/16/21; snapshot 20 prunes the
        # first two, so close #2 (wal-11, entries 11..15, covered by
        # snapshot 20) is a cold segment that stays on disk.
        io = FaultyFS(
            (DiskFault(kind="bit-flip", op="close", start=2),),
            seed=13,
        )
        svc = _create(
            tmp_path,
            io,
            admission=False,
            fsync="always",
            snapshot_every=10,
            segment_events=5,
        )
        svc.ingest(iter(lines))
        assert svc.applied_seq == len(lines)
        svc.wal.close()
        flips = [e for e in io.events if e["kind"] == "bit-flip"]
        assert [e["path"] for e in flips] == ["wal-0000000000000011.log"]
        with pytest.raises(RecoveryError):
            _recover(tmp_path, io)
        report = scrub_directory(tmp_path, repair=True, io=io)
        assert not report.clean
        assert report.repaired
        assert report.unrecoverable == ()
        assert "wal-0000000000000011.log" in report.quarantined
        recovered, rec_report = _recover(tmp_path, io)
        assert recovered.applied_seq == len(lines)
        result = recovered.shutdown()
        _assert_equivalent(base_svc, base, recovered, result)

    def test_flip_past_coverage_names_exact_range(self, tmp_path):
        """A flip in a segment no snapshot covers is reported as a
        precise unrecoverable range, and nothing is touched."""
        lines = _stream()
        io = FaultyFS(
            (DiskFault(kind="bit-flip", op="close", start=0),),
            seed=13,
        )
        svc = _create(
            tmp_path,
            io,
            fsync="always",
            snapshot_every=10**9,  # no snapshots: no coverage at all
            segment_events=5,
        )
        svc.ingest(iter(lines))
        svc.wal.close()
        before = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        report = scrub_directory(tmp_path, repair=True, io=io)
        assert report.unrecoverable
        (first, last) = report.unrecoverable[0]
        assert (first, last) == (1, 5)  # the flipped first segment
        assert not report.repaired
        assert sorted(
            p.name for p in tmp_path.glob("wal-*.log")
        ) == before, "unrecoverable corruption must be left untouched"
