"""Unit and chaos tests for the WAL's one fsync writer.

Two layers of coverage:

* writer-level unit tests with an injectable clock and a counting
  fsync, pinning the count-or-age commit points of every policy spec
  (``always``/``batch``/``group``/``budget``/``never``/``async``) and
  the exposure left open between appends;
* the chaos harness from ``test_recovery_chaos`` re-run over the
  windowed policies — kills at group-commit window boundaries, and a
  directory recorded as ``async`` — asserting ``np.array_equal``
  recovery equivalence and that no acknowledged append is ever lost.
"""

import json
import logging

import pytest

from repro.errors import ValidationError
from repro.faults import (
    CrashFault,
    CrashInjector,
    FaultSchedule,
    SimulatedCrash,
)
from repro.online.durability import wal as wal_module
from repro.online.durability.wal import WriteAheadLog
from repro.online.durability.writers import (
    DEFAULT_GROUP_WINDOW,
    SyncWalWriter,
    parse_fsync_policy,
)
from tests.online.test_recovery_chaos import (
    RATE,
    _assert_equivalent,
    _baseline,
    _stream,
    create_durable_service,
    recover_durable_service,
)


class FakeClock:
    """Deterministic monotonic clock for window/budget tests."""

    def __init__(self):
        self.now = 100.0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now

    def advance(self, dt):
        self.now += dt


class CountingHandle:
    """A real temp-file handle plus an fsync call counter."""

    def __init__(self, tmp_path):
        self.handle = open(tmp_path / "wal-test.log", "ab")
        self.syncs = 0

    def sync_fn(self, fd):
        assert fd == self.handle.fileno()
        self.syncs += 1

    def close(self):
        self.handle.close()


@pytest.fixture
def counting(tmp_path):
    h = CountingHandle(tmp_path)
    yield h
    h.close()


def _counted(writer, counting, monkeypatch):
    """Attach ``writer`` to the counting handle with fsync intercepted."""
    monkeypatch.setattr(
        SyncWalWriter, "_sync_fn", staticmethod(counting.sync_fn)
    )
    writer.attach(counting.handle)
    return writer


class TestPolicyGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("always", ("always", None)),
            ("batch", ("batch", None)),
            ("never", ("never", None)),
            ("group", ("group", None)),
            ("group:4ms", ("group", 0.004)),
            ("group:10", ("group", 0.010)),
            ("budget:5ms", ("budget", 0.005)),
            ("budget:0.25s", ("budget", 0.25)),
            ("async", ("async", None)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        base, seconds = parse_fsync_policy(spec)
        assert base == expected[0]
        if expected[1] is None:
            assert seconds is None
        else:
            assert seconds == pytest.approx(expected[1])

    @pytest.mark.parametrize(
        "spec",
        [
            "sometimes",
            "",
            "group:",
            "budget:",
            "always:5ms",
            "never:1ms",
            "batch:5ms",
            "budget:-1ms",
            "group:-2ms",
            "budget:0",
            "budget:xms",
            "group:5min",
            "budget:2h",
            "async:5ms",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValidationError):
            parse_fsync_policy(spec)

    @pytest.mark.parametrize("spec", [None, 5, 0.005, ["always"]])
    def test_non_string_specs_raise(self, spec):
        with pytest.raises(ValidationError, match="must be a string"):
            parse_fsync_policy(spec)

    def test_factory_policies(self):
        """The writer parses its own spec; a bad one never builds."""
        assert SyncWalWriter().spec == "batch"
        assert SyncWalWriter("always").policy == "always"
        assert SyncWalWriter("group:7ms").max_age == pytest.approx(0.007)
        assert SyncWalWriter("budget:3ms").max_age == pytest.approx(0.003)
        assert SyncWalWriter("async").policy == "async"
        with pytest.raises(ValidationError):
            SyncWalWriter("bogus")


#: ``(spec, max_count, max_age, fsync points)`` with ``batch_events=4``
#: and ten appends 1.5 ms apart: the seqs whose append ran the fsync.
COMMIT_TABLE = [
    ("always", 1, None, list(range(1, 11))),
    ("batch", 4, None, [4, 8]),
    ("group", 4, DEFAULT_GROUP_WINDOW, [3, 6, 9]),  # age bound
    ("group:7ms", 4, 0.007, [4, 8]),  # count bound inside the window
    ("budget", None, 0.005, [5, 10]),
    ("budget:4ms", None, 0.004, [4, 8]),
    ("never", None, None, []),
    ("async", 4, DEFAULT_GROUP_WINDOW, [3, 6, 9]),  # the group rule
]


class TestSyncWalWriter:
    @pytest.mark.parametrize(
        "spec,max_count,max_age,fsync_points",
        COMMIT_TABLE,
        ids=[row[0] for row in COMMIT_TABLE],
    )
    def test_bounds_and_commit_points(
        self, counting, monkeypatch, spec, max_count, max_age, fsync_points
    ):
        clock = FakeClock()
        w = _counted(
            SyncWalWriter(spec, batch_events=4, clock=clock),
            counting,
            monkeypatch,
        )
        assert w.max_count == max_count
        if max_age is None:
            assert w.max_age is None
        else:
            assert w.max_age == pytest.approx(max_age)
        synced_at = []
        for seq in range(1, 11):
            before = counting.syncs
            w.on_append(seq)
            if counting.syncs > before:
                synced_at.append(seq)
                assert w.durable_seq == seq, "an fsync covers its append"
            clock.advance(0.0015)
        assert synced_at == fsync_points
        assert w.durable_seq == (fsync_points[-1] if fsync_points else 0)
        if max_age is None:
            assert clock.reads == 0, "a count-only rule reads no clock"

    def test_always_syncs_every_append(self, counting, monkeypatch):
        w = _counted(SyncWalWriter("always"), counting, monkeypatch)
        for seq in range(1, 6):
            w.on_append(seq)
        assert counting.syncs == 5
        assert w.durable_seq == 5

    def test_batch_syncs_at_threshold(self, counting, monkeypatch):
        w = _counted(
            SyncWalWriter("batch", batch_events=4), counting, monkeypatch
        )
        for seq in range(1, 4):
            w.on_append(seq)
        assert counting.syncs == 0
        assert w.durable_seq == 0
        w.on_append(4)
        assert counting.syncs == 1
        assert w.durable_seq == 4

    def test_never_syncs_nothing(self, counting, monkeypatch):
        w = _counted(SyncWalWriter("never"), counting, monkeypatch)
        for seq in range(1, 10):
            w.on_append(seq)
        w.sync()
        assert counting.syncs == 0
        assert w.durable_seq == 0
        assert not w.wait_durable(1)

    @pytest.mark.parametrize("spec", ["group:2ms", "budget:5ms"])
    def test_idle_window_stays_unsynced_until_next_append(
        self, counting, monkeypatch, spec
    ):
        """The age bound is checked on append, not by a timer.

        After a burst, the open window outlives ``max_age`` for as long
        as no append arrives: ``durable_seq`` lags every acked frame.
        The next append finds the window expired and one fsync covers
        the whole burst plus itself.
        """
        clock = FakeClock()
        w = _counted(
            SyncWalWriter(spec, clock=clock), counting, monkeypatch
        )
        for seq in range(1, 4):
            w.on_append(seq)
        clock.advance(3600.0)  # an hour idle, far past max_age
        assert counting.syncs == 0
        assert w.durable_seq == 0
        w.on_append(4)
        assert counting.syncs == 1
        assert w.durable_seq == 4


class TestGroupCommitWriter:
    """The ``group`` rule: count bound plus window age bound."""

    def test_window_expiry_triggers_single_fsync(
        self, counting, monkeypatch
    ):
        clock = FakeClock()
        w = _counted(
            SyncWalWriter("group:2ms", clock=clock),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        clock.advance(0.001)
        w.on_append(2)
        assert counting.syncs == 0, "inside the window: no fsync yet"
        clock.advance(0.0015)  # 2.5ms since the window opened
        w.on_append(3)
        assert counting.syncs == 1, "window expiry commits the group"
        assert w.durable_seq == 3

    def test_count_boundary_triggers_fsync(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            SyncWalWriter("group:10s", batch_events=3, clock=clock),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        w.on_append(2)
        assert counting.syncs == 0
        w.on_append(3)
        assert counting.syncs == 1
        assert w.durable_seq == 3

    def test_explicit_sync_closes_window(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            SyncWalWriter("group:10s", clock=clock),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        w.sync()
        assert counting.syncs == 1
        assert w.durable_seq == 1
        # The next append opens a fresh window rather than finding the
        # closed one expired.
        clock.advance(20.0)
        w.on_append(2)
        assert counting.syncs == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            SyncWalWriter("group:0ms")
        with pytest.raises(ValidationError):
            SyncWalWriter("group", batch_events=0)


class TestLatencyBudgetWriter:
    """The ``budget`` rule: age bound only, no count cap."""

    def test_oldest_pending_age_bounds_fsync(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            SyncWalWriter("budget:5ms", batch_events=1, clock=clock),
            counting,
            monkeypatch,
        )
        w.on_append(1)  # opens the budget window
        clock.advance(0.004)
        w.on_append(2)  # oldest pending is 4ms old: inside budget
        assert counting.syncs == 0, "batch_events caps no budget window"
        clock.advance(0.0015)
        w.on_append(3)  # oldest pending is 5.5ms old: commit
        assert counting.syncs == 1
        assert w.durable_seq == 3
        # A fresh window starts from the next append.
        w.on_append(4)
        assert counting.syncs == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValidationError):
            SyncWalWriter("budget:0ms")


class TestWalIntegration:
    """WriteAheadLog wired to each policy: rotation, recovery, acks."""

    @pytest.mark.parametrize(
        "fsync", ["always", "batch", "never", "group", "budget:5ms", "async"]
    )
    def test_roundtrip_and_recovery(self, tmp_path, fsync):
        wal = WriteAheadLog(tmp_path, fsync=fsync, segment_events=16)
        wal.recover()
        for i in range(1, 41):
            wal.append(i, json.dumps({"i": i}))
        wal.sync()
        if fsync != "never":
            assert wal.durable_seq == 40
        wal.close()
        assert len(list(tmp_path.glob("wal-*.log"))) > 1, "must rotate"
        entries = WriteAheadLog(tmp_path, fsync="never").recover()
        assert [e.seq for e in entries] == list(range(1, 41))
        assert json.loads(entries[-1].line) == {"i": 40}

    def test_writer_instance_accepted_directly(self, tmp_path):
        clock = FakeClock()
        writer = SyncWalWriter("group:4ms", clock=clock)
        wal = WriteAheadLog(tmp_path, fsync=writer)
        wal.recover()
        assert wal.writer is writer
        assert wal.fsync_policy == "group:4ms"
        wal.append(1, "x")
        clock.advance(0.005)
        wal.append(2, "y")
        assert wal.durable_seq == 2
        wal.close()

    def test_wait_durable_through_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="async")
        wal.recover()
        for i in range(1, 11):
            wal.append(i, str(i))
        assert wal.wait_durable(10)
        assert wal.durable_seq == 10
        wal.close()

    def test_bad_policy_rejected_eagerly(self, tmp_path):
        with pytest.raises(ValidationError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_dir_failure_logged_once(
        self, tmp_path, monkeypatch, caplog
    ):
        def broken(fd):
            raise OSError(13, "injected EACCES")

        monkeypatch.setattr(wal_module.os, "fsync", broken)
        wal_module._FSYNC_DIR_WARNED.discard(str(tmp_path))
        with caplog.at_level(
            logging.WARNING, logger="repro.online.durability"
        ):
            wal_module._fsync_dir(tmp_path)
            wal_module._fsync_dir(tmp_path)
        hits = [
            r
            for r in caplog.records
            if str(tmp_path) in r.getMessage()
        ]
        assert len(hits) == 1, "directory fsync failure must log once"
        assert "not power-loss durable" in hits[0].getMessage()


class TestWriterChaos:
    """The recovery-equivalence chaos harness over the windowed rules."""

    @pytest.mark.parametrize("fsync", ["group", "budget:5ms"])
    def test_post_append_kills_recover_equivalently(
        self, tmp_path, fsync
    ):
        lines = _stream()
        base_svc, base = _baseline(lines)
        schedule = FaultSchedule(
            (
                CrashFault(seq=20, point="post-append"),
                CrashFault(seq=60, point="post-append"),
            )
        )
        svc, result, restarts = self._run(
            tmp_path, lines, schedule, fsync
        )
        assert restarts == 2
        _assert_equivalent(base_svc, base, svc, result)

    def test_kill_at_group_commit_window_boundary(self, tmp_path):
        """Kills on either side of the count boundary (batch_events=8).

        seq=16 dies immediately after the append that commits a full
        group; seq=17 dies with exactly one acked-but-unsynced frame
        pending in a freshly opened window.
        """
        lines = _stream()
        base_svc, base = _baseline(lines)
        schedule = FaultSchedule(
            (
                CrashFault(seq=16, point="post-append"),
                CrashFault(seq=17, point="post-append"),
            )
        )
        svc, result, restarts = self._run(
            tmp_path, lines, schedule, "group", batch_events=8
        )
        assert restarts == 2
        _assert_equivalent(base_svc, base, svc, result)

    def test_recovery_is_policy_agnostic(self, tmp_path):
        """meta.json records the policy; recovery follows it without
        the caller restating ``fsync``."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        service = create_durable_service(
            tmp_path,
            rate=RATE,
            admission=True,
            snapshot_every=25,
            fsync="group:4ms",
        )
        service.ingest(iter(lines[:50]))
        service.wal.close()
        service, report = recover_durable_service(tmp_path)
        assert service.wal.fsync_policy == "group:4ms"
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        _assert_equivalent(base_svc, base, service, result)

    def test_async_directory_recovers_under_group_rule(self, tmp_path):
        """A directory whose meta.json records ``async`` still opens:
        the spec is kept verbatim and runs the ``group`` bounds."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        service = create_durable_service(
            tmp_path,
            rate=RATE,
            admission=True,
            snapshot_every=25,
            fsync="async",
        )
        service.ingest(iter(lines[:50]))
        service.wal.close()
        service, report = recover_durable_service(tmp_path)
        assert service.wal.fsync_policy == "async"
        writer = service.wal.writer
        assert writer.max_count == 256
        assert writer.max_age == DEFAULT_GROUP_WINDOW
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        _assert_equivalent(base_svc, base, service, result)

    @staticmethod
    def _run(tmp_path, lines, schedule, fsync, **kwargs):
        crash = CrashInjector(schedule)
        service = create_durable_service(
            tmp_path,
            rate=RATE,
            admission=True,
            snapshot_every=25,
            crash=crash,
            fsync=fsync,
            **kwargs,
        )
        restarts = 0
        while True:
            try:
                service.ingest(iter(lines[service.applied_seq :]))
                break
            except SimulatedCrash:
                restarts += 1
                assert restarts < 50, "crash loop did not converge"
                service, _ = recover_durable_service(
                    tmp_path, crash=crash
                )
        return service, service.shutdown(), restarts
