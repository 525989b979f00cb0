"""Chaos recovery harness: kill the durable service, restart, compare.

The invariant under test is the tentpole guarantee: a serving process
killed at *any* of the instrumented crash points — before the WAL
append, after the append but before the apply, or mid-snapshot — and
then recovered produces a final :class:`repro.online.engine.OnlineResult`
(backlog trajectory included, compared with ``np.array_equal``) equal
to an uninterrupted run over the same stream.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.faults import (
    CRASH_POINTS,
    CrashFault,
    CrashInjector,
    FaultSchedule,
    SimulatedCrash,
)
from repro.online import (
    DurableOnlineService,
    OnlineService,
    StreamingGPSServer,
)
from repro.online.admission import AdmissionController
from repro.online.events import (
    ArrivalEvent,
    SessionJoin,
    SessionLeave,
    event_to_record,
)

RATE = 3.0


def create_durable_service(directory, **kwargs):
    # A recording engine keeps the per-slot total backlog that
    # _assert_equivalent compares.
    kwargs.setdefault("record_traces", True)
    service, _ = DurableOnlineService.open(
        directory, mode="create", **kwargs
    )
    return service


def recover_durable_service(directory, **kwargs):
    return DurableOnlineService.open(directory, mode="recover", **kwargs)


def _stream(n_slots=50, seed=3):
    events = [
        SessionJoin(
            time=0.0,
            name=name,
            phi=phi,
            ebb=EBB(rho=0.4, prefactor=2.0, decay_rate=0.5),
            target=QoSTarget(d_max=30.0, epsilon=1e-4),
        )
        for name, phi in (("a", 2.0), ("b", 1.0), ("c", 1.5))
    ]
    rng = np.random.default_rng(seed)
    for t in range(1, n_slots):
        for name in ("a", "b", "c"):
            if rng.random() < 0.7:
                events.append(
                    ArrivalEvent(
                        time=float(t),
                        session=name,
                        amount=float(rng.exponential(0.5)),
                    )
                )
    events.append(SessionLeave(time=float(n_slots), name="c"))
    lines = [json.dumps(event_to_record(e)) + "\n" for e in events]
    lines.insert(len(lines) // 2, "this line is not json\n")
    return lines


def _baseline(lines):
    service = OnlineService(
        StreamingGPSServer(
            rate=RATE,
            admission=AdmissionController(rate=RATE),
            record_traces=True,
        )
    )
    result = service.serve(iter(lines))
    return service, result


def _run_with_crashes(tmp_path, lines, schedule):
    """Feed ``lines`` through a durable service, restarting on kills."""
    crash = CrashInjector(schedule)
    service = create_durable_service(
        tmp_path,
        rate=RATE,
        admission=True,
        snapshot_every=25,
        crash=crash,
    )
    restarts = 0
    while True:
        try:
            service.ingest(iter(lines[service.applied_seq :]))
            break
        except SimulatedCrash:
            restarts += 1
            assert restarts < 50, "crash loop did not converge"
            service, _ = recover_durable_service(tmp_path, crash=crash)
    return service, service.shutdown(), restarts


def _assert_equivalent(base_svc, base, svc, result):
    assert base.total_backlog_trace is not None
    assert np.array_equal(
        base.total_backlog_trace, result.total_backlog_trace
    )
    assert base.summary() == result.summary()
    assert svc.errors == base_svc.errors


class TestCrashPoints:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_single_kill_recovers_equivalently(self, tmp_path, point):
        lines = _stream()
        base_svc, base = _baseline(lines)
        # Snapshots land on multiples of snapshot_every; a
        # mid-snapshot kill must be scheduled on one.
        seq = 75 if point == "mid-snapshot" else 40
        svc, result, restarts = _run_with_crashes(
            tmp_path, lines, FaultSchedule((CrashFault(seq=seq, point=point),))
        )
        assert restarts == 1
        _assert_equivalent(base_svc, base, svc, result)

    def test_kills_at_every_point_in_one_run(self, tmp_path):
        lines = _stream()
        base_svc, base = _baseline(lines)
        schedule = FaultSchedule(
            (
                CrashFault(seq=20, point="pre-append"),
                CrashFault(seq=21, point="post-append"),
                CrashFault(seq=50, point="mid-snapshot"),
                CrashFault(seq=90, point="post-append"),
            )
        )
        svc, result, restarts = _run_with_crashes(
            tmp_path, lines, schedule
        )
        assert restarts == 4
        _assert_equivalent(base_svc, base, svc, result)

    def test_mid_snapshot_kill_leaves_tmp_and_recovers(self, tmp_path):
        lines = _stream()
        crash = CrashInjector(
            FaultSchedule((CrashFault(seq=25, point="mid-snapshot"),))
        )
        service = create_durable_service(
            tmp_path,
            rate=RATE,
            admission=True,
            snapshot_every=25,
            crash=crash,
        )
        with pytest.raises(SimulatedCrash):
            service.ingest(iter(lines))
        leftovers = list(tmp_path.glob("snap-*.tmp"))
        assert leftovers, "kill mid-snapshot must leave the tmp file"
        service, report = recover_durable_service(tmp_path, crash=crash)
        assert report.applied_seq == 25
        # The half-written snapshot is never loaded as state.
        assert report.snapshot_seq is None or report.snapshot_seq < 25


class TestCrashFuzz:
    @pytest.mark.parametrize("fuzz_seed", [0, 1])
    def test_seeded_random_kill_restart_converges(
        self, tmp_path, fuzz_seed
    ):
        lines = _stream()
        base_svc, base = _baseline(lines)
        seed = int(os.environ.get("CHAOS_SEED", fuzz_seed))
        rng = np.random.default_rng(seed)
        n_kills = 6
        seqs = sorted(
            rng.choice(
                np.arange(1, len(lines) + 1), size=n_kills, replace=False
            ).tolist()
        )
        faults = tuple(
            CrashFault(
                seq=int(seq),
                point=str(rng.choice(CRASH_POINTS)),
            )
            for seq in seqs
        )
        svc, result, restarts = _run_with_crashes(
            tmp_path, lines, FaultSchedule(faults)
        )
        # A mid-snapshot fault off the snapshot cadence never fires.
        assert 1 <= restarts <= n_kills
        _assert_equivalent(base_svc, base, svc, result)


class TestTornTailRecovery:
    def test_torn_tail_is_truncated_not_applied(self, tmp_path):
        lines = _stream()
        service = create_durable_service(
            tmp_path, rate=RATE, admission=True, snapshot_every=25
        )
        service.ingest(iter(lines[:60]))
        service.wal.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        segment.write_bytes(segment.read_bytes()[:-7])
        service, report = recover_durable_service(tmp_path)
        assert report.truncated_bytes > 0
        assert report.applied_seq == 59
        # The lost line is simply re-ingested by the upstream feeder.
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        base_svc, base = _baseline(lines)
        _assert_equivalent(base_svc, base, service, result)
