"""The streaming engine's correctness contract.

Three layers, in order of strength:

1. **Bit-identity** with the short reference schedule in
   :mod:`tests.packet.oracle`: every stamp column compared with
   ``np.array_equal`` on hypothesis-generated traces (the engine is
   not an approximation).
2. The **Parekh–Gallager coupling invariant** ``pgps_finish <=
   gps_finish + L_max / r`` on every packet, and the gap report's own
   violation counter staying at zero.
3. **Snapshot round-trips**: exporting mid-stream through JSON and
   resuming yields the uninterrupted run's exact result.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.packet.engine import PacketEngine
from repro.packet.gap import GapAccumulator
from repro.sim.packet import Packet
from tests.packet.oracle import wfq_schedule

STAMP_FIELDS = (
    "virtual_start",
    "virtual_finish",
    "pgps_start",
    "pgps_finish",
    "gps_finish",
)


@st.composite
def traces(draw, max_sessions=4, max_packets=25):
    """A weight vector plus packets in canonical admission order."""
    num_sessions = draw(st.integers(1, max_sessions))
    phis = [
        draw(st.floats(0.05, 1.0, allow_nan=False))
        for _ in range(num_sessions)
    ]
    rate = draw(st.floats(0.2, 5.0, allow_nan=False))
    num_packets = draw(st.integers(0, max_packets))
    raw = [
        (
            draw(st.floats(0.0, 20.0, allow_nan=False)),
            draw(st.integers(0, num_sessions - 1)),
            draw(st.floats(0.01, 3.0, allow_nan=False)),
        )
        for _ in range(num_packets)
    ]
    raw.sort()
    packets = [
        Packet(session=s, size=z, arrival_time=t) for t, s, z in raw
    ]
    return rate, phis, packets


def stamps(scheduled, field):
    return np.array([getattr(p, field) for p in scheduled])


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_engine_matches_oracle_exactly(self, trace):
        rate, phis, packets = trace
        oracle = wfq_schedule(rate, phis, packets)
        result = PacketEngine(rate, phis, collect=True).run(packets)
        assert result.num_packets == len(oracle)
        assert [p.packet for p in result.packets] == [
            p.packet for p in oracle
        ]
        for field in STAMP_FIELDS:
            assert np.array_equal(
                stamps(oracle, field),
                stamps(result.packets, field),
            ), field

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_gap_report_matches_oracle_accumulation(self, trace):
        rate, phis, packets = trace
        accumulator = GapAccumulator(rate)
        for p in wfq_schedule(rate, phis, packets):
            accumulator.observe(
                p.packet.session,
                p.packet.size,
                p.packet.arrival_time,
                p.pgps_finish,
                p.gps_finish,
            )
        result = PacketEngine(rate, phis).run(packets)
        assert accumulator.report() == result.gap_report

    def test_incremental_pushes_equal_run(self):
        rng = np.random.default_rng(0)
        phis = [0.5, 0.3, 0.2]
        packets = sorted(
            (
                Packet(
                    session=int(rng.integers(0, 3)),
                    size=float(rng.uniform(0.1, 2.0)),
                    arrival_time=float(t),
                )
                for t in np.sort(rng.uniform(0, 10, 50))
            ),
            key=lambda p: (p.arrival_time, p.session),
        )
        whole = PacketEngine(2.0, phis, collect=True).run(packets)
        engine = PacketEngine(2.0, phis, collect=True)
        for p in packets:
            engine.push(p.session, p.size, p.arrival_time)
        piecewise = engine.finish()
        assert whole.packets == piecewise.packets
        assert whole.gap_report == piecewise.gap_report


class TestParekhGallagerInvariant:
    @settings(max_examples=100, deadline=None)
    @given(traces(max_packets=40))
    def test_gap_bounded_by_lmax_over_r(self, trace):
        rate, phis, packets = trace
        result = PacketEngine(rate, phis, collect=True).run(packets)
        if not packets:
            assert result.gap_report.bound == 0.0
            return
        l_max = max(p.size for p in packets)
        for p in result.packets:
            assert (
                p.pgps_finish <= p.gps_finish + l_max / rate + 1e-9
            )
        assert result.gap_report.violations == 0
        assert result.gap_report.satisfied
        assert (
            result.gap_report.max_gap
            <= result.gap_report.bound + 1e-9
        )

    def test_report_names_the_observed_lmax(self):
        phis = [0.5, 0.5]
        packets = [
            Packet(session=0, size=0.5, arrival_time=0.0),
            Packet(session=1, size=2.0, arrival_time=0.0),
            Packet(session=0, size=1.0, arrival_time=1.0),
        ]
        report = PacketEngine(4.0, phis).run(packets).gap_report
        assert report.max_size == 2.0
        assert report.bound == 2.0 / 4.0
        assert report.num_packets == 3
        assert len(report.sessions) == 2
        assert report.sessions[0].packets == 2


class TestStreamingDiscipline:
    def test_out_of_order_push_raises(self):
        engine = PacketEngine(1.0, [1.0])
        engine.push(0, 1.0, 5.0)
        with pytest.raises(ValidationError, match="out-of-order"):
            engine.push(0, 1.0, 4.0)

    def test_push_after_finish_raises(self):
        engine = PacketEngine(1.0, [1.0])
        engine.finish()
        with pytest.raises(ValidationError, match="sealed"):
            engine.push(0, 1.0, 0.0)

    def test_bad_packets_rejected(self):
        engine = PacketEngine(1.0, [1.0, 1.0])
        with pytest.raises(ValidationError, match="session"):
            engine.push(2, 1.0, 0.0)
        with pytest.raises(ValidationError, match="size"):
            engine.push(0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="arrival_time"):
            engine.push(0, 1.0, float("nan"))

    def test_memory_stays_bounded_by_in_system(self):
        # Spaced-out arrivals depart before the next one arrives: the
        # in-flight table must not accumulate the whole trace.
        engine = PacketEngine(1.0, [1.0])
        for k in range(200):
            engine.push(0, 0.5, k * 10.0)
            assert engine.in_flight <= 2
        result = engine.finish()
        assert result.num_packets == 200
        assert engine.in_flight == 0

    def test_finish_is_idempotent(self):
        engine = PacketEngine(1.0, [1.0])
        engine.push(0, 1.0, 0.0)
        first = engine.finish()
        second = engine.finish()
        assert first == second

    def test_emitted_records_flow_through_sink(self):
        records = []

        class ListSink:
            def emit(self, record):
                records.append(record)

            def flush(self):
                pass

        engine = PacketEngine(
            2.0, [0.5, 0.5], sink=ListSink()
        )
        engine.push(0, 1.0, 0.0)
        engine.push(1, 1.0, 0.0)
        engine.finish()
        assert [r["kind"] for r in records] == [
            "packet-served",
            "packet-served",
        ]
        served = records[0]
        assert served["pgps_finish"] == served["pgps_start"] + 0.5
        assert served["gap"] == pytest.approx(
            served["pgps_finish"] - served["gps_finish"]
        )


class TestSnapshotRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(traces(max_packets=30), st.integers(0, 30))
    def test_json_round_trip_resumes_exactly(self, trace, cut):
        rate, phis, packets = trace
        cut = min(cut, len(packets))
        whole = PacketEngine(rate, phis).run(packets)
        engine = PacketEngine(rate, phis)
        for p in packets[:cut]:
            engine.push(p.session, p.size, p.arrival_time)
        state = json.loads(json.dumps(engine.export_state()))
        resumed = PacketEngine.from_state(state)
        for p in packets[cut:]:
            resumed.push(p.session, p.size, p.arrival_time)
        result = resumed.finish()
        assert result.gap_report == whole.gap_report
        assert result.summary() == whole.summary()

    def test_restored_engine_rejects_regressions(self):
        engine = PacketEngine(1.0, [1.0])
        engine.push(0, 1.0, 3.0)
        restored = PacketEngine.from_state(engine.export_state())
        with pytest.raises(ValidationError, match="out-of-order"):
            restored.push(0, 1.0, 1.0)
