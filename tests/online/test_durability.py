"""WAL framing, snapshot atomicity, and serving-state round trips."""

import io
import json
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import (
    RecoveryError,
    ReproError,
    UnrecoverableRangeError,
    ValidationError,
)
from repro.online.admission import AdmissionController
from repro.online.durability import (
    DurableOnlineService,
    SnapshotStore,
    WalEntry,
    WriteAheadLog,
)
from repro.online.durability.wal import _frame, _parse_frame
from repro.online.engine import StreamingGPSServer
from repro.online.service import OnlineService
from repro.online.session import SessionRegistry
from repro.online.events import (
    ArrivalEvent,
    SessionJoin,
    SessionLeave,
    event_to_record,
)


def create_durable_service(directory, **kwargs):
    service, _ = DurableOnlineService.open(
        directory, mode="create", **kwargs
    )
    return service


def recover_durable_service(directory, *, expected_rate=None, **kwargs):
    return DurableOnlineService.open(
        directory, mode="recover", rate=expected_rate, **kwargs
    )


def open_durable_service(directory, **kwargs):
    return DurableOnlineService.open(directory, mode="attach", **kwargs)


def _lines(events):
    return [json.dumps(event_to_record(e)) + "\n" for e in events]


def _stream(n_slots=40, with_qos=False):
    qos = (
        dict(
            ebb=EBB(rho=0.4, prefactor=2.0, decay_rate=0.5),
            target=QoSTarget(d_max=30.0, epsilon=1e-4),
        )
        if with_qos
        else {}
    )
    events = [
        SessionJoin(time=0.0, name="a", phi=2.0, **qos),
        SessionJoin(time=0.0, name="b", phi=1.0, **qos),
    ]
    rng = np.random.default_rng(3)
    for t in range(1, n_slots):
        for name in ("a", "b"):
            if rng.random() < 0.8:
                events.append(
                    ArrivalEvent(
                        time=float(t),
                        session=name,
                        amount=float(rng.exponential(0.4)),
                    )
                )
    events.append(SessionLeave(time=float(n_slots), name="b"))
    return _lines(events)


def _reference_frame(seq, line):
    """The frame as ``json.dumps`` builds it (the original encoder)."""
    payload = json.dumps({"seq": seq, "line": line}, separators=(",", ":"))
    data = payload.encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + data + b"\n"


class TestWalFraming:
    @given(
        st.integers(min_value=1, max_value=2**63),
        st.text(
            # st.characters() leaves surrogates out; mix them back in.
            alphabet=st.one_of(
                st.characters(), st.characters(categories=["Cs"])
            ),
            max_size=60,
        ),
    )
    @example(1, "")
    @example(9, '"quoted" \\ back\\slash')
    @example(10**18, "\x00\x1f\x7f control")
    @example(2, "caf\u00e9 \u4f1a\u8bdd \U0001f600")
    @example(3, "\ud800 lone high, \udfff lone low")
    @example(4, "\udbff\udfff paired by hand")
    def test_frame_matches_json_dumps_and_round_trips(self, seq, line):
        """``_frame`` equals the ``json.dumps`` frame, parses back to the
        line JSON round-trips it to, and re-frames to the same bytes.

        The parsed line equals ``line`` itself unless ``line`` holds a
        high surrogate directly followed by a low one: JSON escapes both
        and ``json.loads`` joins them into one non-BMP character.
        """
        frame = _frame(seq, line)
        assert frame == _reference_frame(seq, line)
        assert frame.endswith(b"\n") and frame.isascii()
        entry = _parse_frame(frame[:-1])
        assert entry == WalEntry(seq=seq, line=json.loads(json.dumps(line)))
        assert _frame(entry.seq, entry.line) == frame

    def test_append_then_recover_round_trips(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        wal.append(1, '{"kind": "x"}')
        wal.append(2, "raw bytes, not even json")
        wal.close()
        fresh = WriteAheadLog(tmp_path)
        assert fresh.recover() == [
            WalEntry(seq=1, line='{"kind": "x"}'),
            WalEntry(seq=2, line="raw bytes, not even json"),
        ]
        assert fresh.last_seq == 2

    def test_append_requires_recover_first(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ValidationError, match="recover"):
            wal.append(1, "x")

    def test_out_of_order_append_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        wal.append(1, "x")
        with pytest.raises(ValidationError, match="out of order"):
            wal.append(3, "y")

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValidationError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_torn_tail_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        for seq in range(1, 4):
            wal.append(seq, f"line {seq}")
        wal.close()
        segment = next(tmp_path.glob("wal-*.log"))
        whole = segment.read_bytes()
        # Cut the final frame short, as a crash mid-write would.
        segment.write_bytes(whole[:-5])
        fresh = WriteAheadLog(tmp_path)
        entries = fresh.recover()
        assert [e.seq for e in entries] == [1, 2]
        assert fresh.truncated_bytes > 0
        # The torn bytes are gone from disk: a re-recover is clean.
        again = WriteAheadLog(tmp_path)
        again.recover()
        assert again.truncated_bytes == 0

    def test_corrupt_frame_midlog_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        for seq in range(1, 4):
            wal.append(seq, f"line {seq}")
        wal.close()
        segment = next(tmp_path.glob("wal-*.log"))
        frames = segment.read_bytes().splitlines(keepends=True)
        frames[1] = b"deadbeef corrupted frame\n"
        segment.write_bytes(b"".join(frames))
        with pytest.raises(RecoveryError, match="mid-log"):
            WriteAheadLog(tmp_path).recover()

    def test_corruption_in_nonfinal_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_events=2)
        wal.recover()
        for seq in range(1, 6):
            wal.append(seq, f"line {seq}")
        wal.close()
        first = sorted(tmp_path.glob("wal-*.log"))[0]
        first.write_bytes(first.read_bytes()[:-5])
        with pytest.raises(RecoveryError, match="not the final segment"):
            WriteAheadLog(tmp_path).recover()

    def test_sequence_gap_raises(self, tmp_path):
        segment = tmp_path / f"wal-{1:016d}.log"
        segment.write_bytes(_frame(1, "a") + _frame(3, "c"))
        with pytest.raises(RecoveryError, match="discontinuity"):
            WriteAheadLog(tmp_path).recover()

    def test_rotation_and_prune(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_events=3)
        wal.recover()
        for seq in range(1, 10):
            wal.append(seq, f"line {seq}")
        assert len(list(tmp_path.glob("wal-*.log"))) == 3
        # Nothing covered: segment 2 starts at 4 > 2+1.
        assert wal.prune(2) == 0
        assert wal.prune(3) == 1
        assert wal.prune(9) == 1  # active segment survives
        assert [e.seq for e in WriteAheadLog(tmp_path).recover()] == [
            7,
            8,
            9,
        ]
        wal.close()

    def test_orphaned_tmp_files_swept_on_recover(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        wal.append(1, "line 1")
        wal.close()
        # A crash mid-snapshot (or mid-anything) can strand *.tmp
        # files; recovery removes them instead of letting them pile up.
        (tmp_path / "snapshot-0000000000000001.json.tmp").write_bytes(
            b"partial"
        )
        (tmp_path / "stray.tmp").write_bytes(b"junk")
        fresh = WriteAheadLog(tmp_path)
        entries = fresh.recover()
        assert [e.seq for e in entries] == [1]
        assert list(tmp_path.glob("*.tmp")) == []
        fresh.close()

    def test_zero_length_trailing_segment_is_clean_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_events=2)
        wal.recover()
        for seq in range(1, 5):
            wal.append(seq, f"line {seq}")
        wal.close()
        # A crash between creating a fresh segment and writing its
        # first frame leaves a zero-byte trailing file: a torn tail,
        # not corruption.
        (tmp_path / f"wal-{5:016d}.log").write_bytes(b"")
        fresh = WriteAheadLog(tmp_path)
        entries = fresh.recover()
        assert [e.seq for e in entries] == [1, 2, 3, 4]
        # The empty tail is gone; appends continue contiguously.
        fresh.append(5, "line 5")
        fresh.close()
        assert [
            e.seq for e in WriteAheadLog(tmp_path).recover()
        ] == [1, 2, 3, 4, 5]

    def test_zero_length_nonfinal_segment_names_lost_range(
        self, tmp_path
    ):
        wal = WriteAheadLog(tmp_path, segment_events=2)
        wal.recover()
        for seq in range(1, 7):
            wal.append(seq, f"line {seq}")
        wal.close()
        middle = sorted(tmp_path.glob("wal-*.log"))[1]
        middle.write_bytes(b"")
        with pytest.raises(
            UnrecoverableRangeError, match="3..4"
        ) as excinfo:
            WriteAheadLog(tmp_path).recover()
        assert excinfo.value.ranges == ((3, 4),)

    def test_position_never_moves_backwards(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.recover()
        wal.position(5)
        assert wal.last_seq == 5
        wal.position(2)
        assert wal.last_seq == 5
        wal.append(6, "resumes after snapshot-only recovery")
        wal.close()


class TestSnapshotStore:
    def _engine_state(self, n=30):
        engine = StreamingGPSServer(rate=2.0)
        service = OnlineService(engine)
        service.ingest(_stream(n))
        return engine

    def test_write_load_round_trip(self, tmp_path):
        engine = self._engine_state()
        store = SnapshotStore(tmp_path)
        store.write(30, engine.export_state(), {"errors": 0})
        doc = store.load_newest()
        assert doc is not None and doc["applied_seq"] == 30
        restored = StreamingGPSServer.from_state(doc["engine"])
        assert restored.export_state() == json.loads(
            json.dumps(engine.export_state())
        )

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        engine = self._engine_state()
        store = SnapshotStore(tmp_path, keep=2)
        store.write(10, engine.export_state(), {})
        newest = store.write(20, engine.export_state(), {})
        newest.write_bytes(b"00000000 {\"torn\":")
        doc = store.load_newest()
        assert doc is not None and doc["applied_seq"] == 10

    def test_directory_fsync_failure_is_logged_once(
        self, tmp_path, monkeypatch, caplog
    ):
        import logging
        import os
        import stat

        from repro.online.durability import wal as wal_module

        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(5, "injected EIO")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        wal_module._FSYNC_DIR_WARNED.discard(str(tmp_path))
        engine = self._engine_state()
        store = SnapshotStore(tmp_path)
        with caplog.at_level(
            logging.WARNING, logger="repro.online.durability"
        ):
            store.write(10, engine.export_state(), {})
            store.write(20, engine.export_state(), {})
        hits = [
            r for r in caplog.records if str(tmp_path) in r.getMessage()
        ]
        assert len(hits) == 1
        assert "not power-loss durable" in hits[0].getMessage()
        assert store.load_newest()["applied_seq"] == 20

    def test_keep_prunes_and_clears_tmp(self, tmp_path):
        engine = self._engine_state()
        store = SnapshotStore(tmp_path, keep=1)
        (tmp_path / "snap-0000000000000001.json.tmp").write_text("x")
        store.write(10, engine.export_state(), {})
        store.write(20, engine.export_state(), {})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["snap-0000000000000020.json"]
        assert store.oldest_seq() == 20

    def test_roundtrip_gate_rejects_lossy_state(self, tmp_path):
        engine = self._engine_state()
        state = engine.export_state()
        # float('nan') != float('nan'): re-export cannot byte-match.
        state["clock"] = float("nan")
        with pytest.raises((RecoveryError, ReproError, ValueError)):
            SnapshotStore(tmp_path).write(30, state, {})


class TestStateExportImport:
    def test_registry_round_trip(self):
        engine = StreamingGPSServer(rate=2.0)
        OnlineService(engine).ingest(_stream(25))
        registry = engine._registry
        clone = SessionRegistry.from_state(
            json.loads(json.dumps(registry.export_state()))
        )
        assert clone.export_state() == json.loads(
            json.dumps(registry.export_state())
        )

    def test_admission_context_round_trip_is_exact(self):
        controller = AdmissionController(rate=3.0)
        engine = StreamingGPSServer(rate=3.0, admission=controller)
        OnlineService(engine).ingest(_stream(25, with_qos=True))
        state = json.loads(json.dumps(controller.export_state()))
        clone = AdmissionController.from_state(state)
        assert clone.export_state() == state
        # Shewchuk partials restored exactly, not just approximately.
        assert (
            clone._context._total.partials
            == controller._context._total.partials
        )

    def test_restored_engine_continues_identically(self):
        lines = _stream(60, with_qos=True)
        base_engine = StreamingGPSServer(
            rate=3.0,
            admission=AdmissionController(rate=3.0),
            record_traces=True,
        )
        base = OnlineService(base_engine)
        base.ingest(lines)
        half_engine = StreamingGPSServer(
            rate=3.0,
            admission=AdmissionController(rate=3.0),
            record_traces=True,
        )
        half = OnlineService(half_engine)
        half.ingest(lines[:40])
        resumed_engine = StreamingGPSServer.from_state(
            json.loads(json.dumps(half_engine.export_state()))
        )
        resumed = OnlineService(resumed_engine)
        resumed.ingest(lines[40:])
        a = base.shutdown()
        b = resumed.shutdown()
        assert a.total_backlog_trace is not None
        assert np.array_equal(
            a.total_backlog_trace, b.total_backlog_trace
        )
        assert a.summary() == b.summary()


class TestDurableServiceLifecycle:
    def test_create_refuses_existing_session(self, tmp_path):
        create_durable_service(tmp_path, rate=1.0)
        with pytest.raises(RecoveryError, match="already contains"):
            create_durable_service(tmp_path, rate=1.0)

    def test_create_rejects_unknown_config(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown"):
            create_durable_service(tmp_path, rate=1.0, snapshots_every=5)

    def test_open_requires_rate_for_fresh_directory(self, tmp_path):
        with pytest.raises(RecoveryError, match="no rate"):
            open_durable_service(tmp_path)

    def test_recover_rejects_contradictory_rate(self, tmp_path):
        svc = create_durable_service(tmp_path, rate=2.0)
        svc.ingest(_stream(10))
        svc.wal.close()
        with pytest.raises(RecoveryError, match="contradicts"):
            recover_durable_service(tmp_path, expected_rate=3.0)

    def test_corrupt_meta_raises(self, tmp_path):
        svc = create_durable_service(tmp_path, rate=2.0)
        svc.wal.close()
        (tmp_path / "meta.json").write_bytes(b"garbage")
        with pytest.raises(RecoveryError, match="metadata"):
            recover_durable_service(tmp_path)

    def test_reopen_continues_sequence_numbers(self, tmp_path):
        lines = _stream(30)
        svc = create_durable_service(
            tmp_path, rate=2.0, snapshot_every=10
        )
        svc.ingest(lines[:20])
        svc.wal.close()
        svc2, report = open_durable_service(tmp_path, rate=2.0)
        assert report.fresh is False
        assert report.applied_seq == 20
        svc2.ingest(lines[20:])
        assert svc2.applied_seq == len(lines)
        svc2.shutdown()

    def test_snapshot_prunes_covered_wal_segments(self, tmp_path):
        svc = create_durable_service(
            tmp_path,
            rate=2.0,
            snapshot_every=10,
            segment_events=5,
        )
        svc.ingest(_stream(30))
        segments = sorted(tmp_path.glob("wal-*.log"))
        # Everything below the oldest retained snapshot is gone.
        oldest = svc._snapshots.oldest_seq()
        assert oldest is not None
        first_kept = int(segments[0].name[4:-4])
        assert first_kept >= oldest - 5 + 1
        svc.wal.close()

    def test_durable_sink_records_match_plain_service(self, tmp_path):
        lines = _stream(20)
        plain_sink = io.StringIO()
        plain = OnlineService(
            StreamingGPSServer(rate=2.0), sink=plain_sink
        )
        plain.serve(iter(lines))
        durable_sink = io.StringIO()
        svc = create_durable_service(
            tmp_path, rate=2.0, sink=durable_sink
        )
        svc.serve(iter(lines))
        assert durable_sink.getvalue() == plain_sink.getvalue()


class TestDurableCli:
    def _write_stream(self, tmp_path, lines, name="trace.jsonl"):
        path = tmp_path / name
        path.write_text("".join(lines), encoding="utf-8")
        return str(path)

    def test_serve_wal_then_recover_resume(self, tmp_path):
        from repro.cli import main

        lines = _stream(30)
        head = self._write_stream(tmp_path, lines[:40], "head.jsonl")
        tail = self._write_stream(tmp_path, lines[40:], "tail.jsonl")
        wal = str(tmp_path / "wal")
        out1 = str(tmp_path / "out1.jsonl")
        # --wal without draining the stream fully: simulate by serving
        # only the head (the service drains at stream end, which is
        # fine — recovery resurrects the pre-drain state).
        code = main(
            [
                "serve",
                head,
                "--rate",
                "2.0",
                "--wal",
                wal,
                "--snapshot-every",
                "10",
                "--out",
                out1,
            ]
        )
        assert code == 0
        first = json.loads(
            (tmp_path / "out1.jsonl").read_text().splitlines()[0]
        )
        assert first == {
            "kind": "recovery",
            "fresh": True,
            "applied_seq": 0,
            "snapshot_seq": None,
            "replayed": 0,
            "truncated_bytes": 0,
        }
        out2 = str(tmp_path / "out2.jsonl")
        code = main(["recover", wal, "--resume", tail, "--out", out2])
        assert code == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "out2.jsonl").read_text().splitlines()
        ]
        assert records[0]["kind"] == "recovery"
        assert records[0]["applied_seq"] == 40
        assert records[-1]["kind"] == "summary"
        assert (
            records[-1]["summary"]["events_processed"] == len(lines)
        )

    def test_recover_report_only_snapshots_state(self, tmp_path):
        from repro.cli import main

        lines = _stream(20)
        stream = self._write_stream(tmp_path, lines)
        wal = str(tmp_path / "wal")
        assert (
            main(
                [
                    "serve",
                    stream,
                    "--rate",
                    "2.0",
                    "--wal",
                    wal,
                    "--out",
                    str(tmp_path / "o1.jsonl"),
                ]
            )
            == 0
        )
        out = str(tmp_path / "rec.jsonl")
        assert main(["recover", wal, "--out", out]) == 0
        report = json.loads(
            (tmp_path / "rec.jsonl").read_text().splitlines()[-1]
        )
        assert report["kind"] == "recovery"
        assert report["applied_seq"] == len(lines)
        # Report-only recovery durably snapshots what it replayed.
        snaps = sorted((tmp_path / "wal").glob("snap-*.json"))
        assert int(snaps[-1].name[5:-5]) == len(lines)

    def test_recover_missing_directory_fails_cleanly(self, tmp_path):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nope")]) == 1


class TestPruneRotationBoundary:
    """Pin the prune boundary: tail == horizon goes, tail + 1 stays."""

    def _filled(self, tmp_path, n=9, segment_events=3):
        wal = WriteAheadLog(tmp_path, segment_events=segment_events)
        wal.recover()
        for seq in range(1, n + 1):
            wal.append(seq, f"line {seq}")
        return wal

    def test_tail_exactly_at_horizon_is_removed(self, tmp_path):
        # Segments [1..3][4..6][7..9]; a snapshot at 3 lands exactly on
        # the first segment's tail — rotation on the snapshot cadence.
        wal = self._filled(tmp_path)
        assert wal.prune(3) == 1
        wal.close()
        assert [e.seq for e in WriteAheadLog(tmp_path).recover()] == list(
            range(4, 10)
        )

    def test_tail_one_past_horizon_survives(self, tmp_path):
        # Horizon 5 falls inside [4..6]: that segment holds entry 6,
        # which no snapshot covers, so it must survive — dropping it
        # would leave recovery from the snapshot with a sequence gap.
        wal = self._filled(tmp_path)
        assert wal.prune(5) == 1  # only [1..3] is fully covered
        wal.close()
        assert [e.seq for e in WriteAheadLog(tmp_path).recover()] == list(
            range(4, 10)
        )

    def test_active_segment_survives_any_horizon(self, tmp_path):
        wal = self._filled(tmp_path)
        assert wal.prune(10_000) == 2
        wal.close()
        assert [e.seq for e in WriteAheadLog(tmp_path).recover()] == [
            7,
            8,
            9,
        ]

    def test_prune_is_idempotent(self, tmp_path):
        wal = self._filled(tmp_path)
        assert wal.prune(6) == 2
        assert wal.prune(6) == 0
        wal.close()

    def test_snapshot_cadence_on_segment_boundary_recovers(
        self, tmp_path
    ):
        # snapshot_every == segment_events: every automatic prune lands
        # exactly on a segment tail, the sharpest boundary case.  The
        # pruned directory must still recover to the identical state.
        lines = _stream(30)
        svc = create_durable_service(
            tmp_path, rate=2.0, snapshot_every=5, segment_events=5
        )
        svc.ingest(lines)
        expected = json.loads(json.dumps(svc.engine.export_state()))
        applied = svc.applied_seq
        svc.wal.close()
        recovered, report = recover_durable_service(tmp_path)
        assert report.applied_seq == applied
        assert (
            json.loads(json.dumps(recovered.engine.export_state()))
            == expected
        )
        recovered.wal.close()


class TestRecoverErrorPaths:
    """`repro recover` fails loudly and precisely, never half-recovers."""

    def _session(self, tmp_path, n=30, **overrides):
        svc = create_durable_service(tmp_path, rate=2.0, **overrides)
        svc.ingest(_stream(n))
        svc.wal.close()
        return svc

    def test_corrupt_meta_checksum_is_refused(self, tmp_path):
        self._session(tmp_path)
        meta = tmp_path / "meta.json"
        raw = meta.read_bytes()
        # Flip the stored checksum: the payload is intact but no longer
        # provably so, which must read as corruption, not as config.
        meta.write_bytes(b"00000000" + raw[8:])
        with pytest.raises(RecoveryError, match="corrupt"):
            recover_durable_service(tmp_path)

    def test_corrupt_meta_fails_cli_with_exit_1(self, tmp_path):
        from repro.cli import main

        self._session(tmp_path)
        meta = tmp_path / "meta.json"
        meta.write_bytes(b"00000000" + meta.read_bytes()[8:])
        assert (
            main(
                [
                    "recover",
                    str(tmp_path),
                    "--out",
                    str(tmp_path / "out.jsonl"),
                ]
            )
            == 1
        )

    def test_missing_snapshot_with_pruned_wal_is_a_gap(self, tmp_path):
        # Snapshots pruned the early segments; deleting the snapshots
        # then leaves a log that visibly starts past seq 1.  Recovery
        # must refuse — replaying the remainder from scratch would
        # silently drop acknowledged events.
        self._session(
            tmp_path, snapshot_every=5, segment_events=5
        )
        pruned = [p for p in tmp_path.glob("snap-*.json")]
        assert pruned, "the session should have snapshots to delete"
        for path in pruned:
            path.unlink()
        with pytest.raises(
            RecoveryError, match="are missing"
        ) as excinfo:
            recover_durable_service(tmp_path)
        assert "entries 1.." in str(excinfo.value)

    def test_wal_gap_message_names_the_missing_range(self, tmp_path):
        segment_a = tmp_path / f"wal-{1:016d}.log"
        segment_a.write_bytes(_frame(1, "a") + _frame(2, "b"))
        segment_b = tmp_path / f"wal-{5:016d}.log"
        segment_b.write_bytes(_frame(5, "e") + _frame(6, "f"))
        with pytest.raises(
            RecoveryError, match=r"entries 3\.\.4 are missing"
        ):
            WriteAheadLog(tmp_path).recover()

    def test_recover_surfaces_wal_discontinuity_range(self, tmp_path):
        svc = self._session(tmp_path, n=10)
        applied = svc.applied_seq
        # Append a frame two past the end of the log: the recovery
        # scan sees applied..applied+2 with applied+1 missing, and the
        # error carries the exact missing range.
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        gap_seq = applied + 2
        with open(segment, "ab") as handle:
            handle.write(_frame(gap_seq, "past the gap"))
        with pytest.raises(
            RecoveryError,
            match=rf"entries {applied + 1}\.\.{gap_seq - 1} are missing",
        ):
            recover_durable_service(tmp_path)
