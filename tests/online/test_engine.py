"""The streaming engine and its headline guarantee.

The load-bearing property mirrors ``tests/sim/test_batch.py``:
replaying a :meth:`repro.scenario.Scenario.to_event_stream` trace
through :class:`repro.online.engine.StreamingGPSServer` must reproduce
the offline :class:`repro.sim.fluid.FluidGPSServer` trajectories
*bit for bit* — ``np.array_equal``, not ``allclose`` — because both
paths share one water-filling kernel.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import AdmissionError, ValidationError
from repro.faults import FaultSchedule, RateFault
from repro.markov.onoff import OnOffSource
from repro.online.engine import OnlineResult, StreamingGPSServer
from repro.online.events import (
    ArrivalEvent,
    CapacityEvent,
    Renegotiate,
    SessionJoin,
    SessionLeave,
    read_event_stream,
    write_event_stream,
)
from repro.scenario import Scenario
from repro.sim.results import SimResult, to_jsonable
from repro.traffic.sources import (
    BernoulliBurstTraffic,
    ConstantBitRateTraffic,
    OnOffTraffic,
)


def _scenario(horizon=150, seed=7, faults=None):
    sources = (
        OnOffTraffic(OnOffSource(p=0.2, q=0.4, peak_rate=0.5)),
        BernoulliBurstTraffic(burst_probability=0.3, burst_size=0.4),
        ConstantBitRateTraffic(rate=0.1),
    )
    return Scenario(
        rate=1.0,
        phis=(2.0, 1.0, 0.5),
        sources=sources,
        horizon=horizon,
        seed=seed,
        faults=faults,
    )


def _replay(scenario, trial=0):
    engine = StreamingGPSServer(rate=scenario.rate, record_traces=True)
    return engine.replay(
        scenario.to_event_stream(trial), horizon=scenario.horizon
    )


class TestOfflineEquivalence:
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_replay_matches_offline_bitwise(self, trial):
        scenario = _scenario()
        offline = scenario.simulate(trial=trial)
        online = _replay(scenario, trial=trial)
        assert online.num_slots == scenario.horizon
        assert np.array_equal(online.backlog_matrix(), offline.backlog)
        assert np.array_equal(online.served_matrix(), offline.served)
        assert np.array_equal(
            online.total_backlog_trace, offline.total_backlog()
        )

    def test_replay_matches_offline_under_capacity_faults(self):
        faults = FaultSchedule(
            [
                RateFault(node="server", start=20, end=60, factor=0.5),
                RateFault(node="server", start=90, end=110, factor=0.25),
            ]
        )
        scenario = _scenario(faults=faults)
        offline = scenario.simulate(trial=0)
        events = scenario.to_event_stream(0)
        assert any(e.kind == "capacity" for e in events)
        online = StreamingGPSServer(
            rate=scenario.rate, record_traces=True
        ).replay(events, horizon=scenario.horizon)
        assert np.array_equal(online.backlog_matrix(), offline.backlog)
        assert np.array_equal(online.served_matrix(), offline.served)

    def test_jsonl_round_trip_preserves_equivalence(self, tmp_path):
        """Record/replay through JSONL must not perturb a single bit."""
        scenario = _scenario(
            faults=FaultSchedule(
                [RateFault(node="server", start=10, end=40, factor=0.6)]
            )
        )
        offline = scenario.simulate(trial=0)
        path = str(tmp_path / "trace.jsonl")
        write_event_stream(path, scenario.to_event_stream(0))
        online = StreamingGPSServer(
            rate=scenario.rate, record_traces=True
        ).replay(read_event_stream(path), horizon=scenario.horizon)
        assert np.array_equal(online.backlog_matrix(), offline.backlog)
        assert np.array_equal(online.served_matrix(), offline.served)

    def test_arrival_totals_match_offline(self):
        scenario = _scenario()
        offline = scenario.simulate(trial=0)
        online = _replay(scenario)
        assert online.total_arrived == pytest.approx(
            float(offline.arrivals.sum())
        )
        assert online.total_served == pytest.approx(
            float(offline.served.sum())
        )


class TestEngineBehavior:
    def test_empty_stream(self):
        result = StreamingGPSServer(rate=1.0).replay([])
        assert result.num_slots == 0
        assert result.final_total_backlog() == 0.0
        assert result.events_processed == 0

    def test_open_slot_closed_without_horizon(self):
        events = [
            SessionJoin(time=0.0, name="a", phi=1.0),
            ArrivalEvent(time=0.0, session="a", amount=0.4),
        ]
        result = StreamingGPSServer(rate=1.0).replay(events)
        assert result.num_slots == 1
        assert result.total_served == pytest.approx(0.4)

    def test_slot_semantics_and_capacity_windows(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=3.0))
        engine.process(CapacityEvent(time=1.0, capacity=0.0))
        # Slot 0 ran at full capacity: 3.0 arrived, 1.0 served.
        assert engine.clock == 1
        assert engine.total_backlog() == pytest.approx(2.0)
        assert engine.capacity == 0.0
        engine.advance_to(3)  # two outage slots serve nothing
        assert engine.total_backlog() == pytest.approx(2.0)
        engine.process(CapacityEvent(time=3.0, capacity=1.0))
        engine.advance_to(5)
        assert engine.total_backlog() == pytest.approx(0.0)

    def test_drain_clears_backlog(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=5.5))
        used, drained = engine.drain()
        assert drained
        assert used == 6  # ceil(5.5) slots at unit rate
        assert engine.total_backlog() == 0.0

    def test_drain_gives_up_under_outage(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=5.0))
        engine.process(CapacityEvent(time=1.0, capacity=0.0))
        used, drained = engine.drain(max_slots=10)
        assert not drained
        assert used == 10

    def test_leave_drops_residual(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=2.0))
        record = engine.process(SessionLeave(time=0.0, name="a"))
        assert record["residual"] == pytest.approx(2.0)
        assert engine.num_active == 0
        result = engine.result()
        assert result.dropped_residual == pytest.approx(2.0)
        # The leave record is the departed session's history; the
        # result lists active sessions only.
        assert record["slot"] == 0 and record["served"] == 0.0
        assert result.session_stats == {}

    def test_renegotiate_updates_weight(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(Renegotiate(time=0.0, name="a", phi=3.0))
        stats = engine.result().session_stats["a"]
        assert stats["phi"] == 3.0
        assert stats["renegotiations"] == 1

    def test_churned_service_follows_weights(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(SessionJoin(time=0.0, name="b", phi=3.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=10.0))
        engine.process(ArrivalEvent(time=0.0, session="b", amount=10.0))
        engine.advance_to(1)
        assert engine.session_backlog("a") == pytest.approx(10.0 - 0.25)
        assert engine.session_backlog("b") == pytest.approx(10.0 - 0.75)

    def test_duplicate_join_raises(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        with pytest.raises(AdmissionError):
            engine.process(SessionJoin(time=0.0, name="a", phi=1.0))

    def test_unknown_session_raises(self):
        engine = StreamingGPSServer(rate=1.0)
        with pytest.raises(AdmissionError):
            engine.process(ArrivalEvent(time=0.0, session="ghost", amount=1.0))
        with pytest.raises(AdmissionError):
            engine.process(SessionLeave(time=0.0, name="ghost"))
        with pytest.raises(AdmissionError):
            engine.process(Renegotiate(time=0.0, name="ghost", phi=2.0))

    def test_out_of_order_events_rejected(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(CapacityEvent(time=5.0, capacity=1.0))
        with pytest.raises(ValidationError, match="slot-monotone"):
            engine.process(CapacityEvent(time=2.0, capacity=1.0))

    def test_rejoin_after_leave_allowed(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=1.0))
        left = engine.process(SessionLeave(time=1.0, name="a"))
        engine.process(SessionJoin(time=2.0, name="a", phi=2.0))
        result = engine.result()
        assert list(result.session_stats) == ["a"]
        assert result.session_stats["a"]["joined_at"] == 2  # the live one
        assert left["slot"] == 1 and left["served"] == 1.0  # the departed
        assert result.total_served == 1.0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            StreamingGPSServer(rate=0.0)


class TestOnlineResult:
    def _result(self, record_traces=True):
        scenario = _scenario(horizon=40)
        engine = StreamingGPSServer(
            rate=scenario.rate, record_traces=record_traces
        )
        return engine.replay(
            scenario.to_event_stream(0), horizon=scenario.horizon
        )

    def test_satisfies_sim_result_protocol(self):
        result = self._result()
        assert isinstance(result, SimResult)
        summary = result.summary()
        assert summary["kind"] == "online_gps"
        json.dumps(summary)
        json.dumps(to_jsonable(result.to_dict()))

    def test_to_dict_extends_summary(self):
        result = self._result()
        summary = result.summary()
        payload = result.to_dict()
        for key, value in summary.items():
            assert payload[key] == value, key
        assert len(payload) > len(summary)

    def test_matrices_require_recording(self):
        result = self._result(record_traces=False)
        with pytest.raises(ValidationError, match="record_traces"):
            result.backlog_matrix()
        with pytest.raises(ValidationError, match="record_traces"):
            result.served_matrix()

    def test_churn_makes_snapshots_ragged(self):
        engine = StreamingGPSServer(rate=1.0, record_traces=True)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=1.0))
        engine.process(SessionJoin(time=1.0, name="b", phi=1.0))
        engine.process(ArrivalEvent(time=1.0, session="b", amount=1.0))
        result = engine.replay([], horizon=2)
        with pytest.raises(ValidationError, match="ragged"):
            result.backlog_matrix()

    def test_drain_flag_recorded(self):
        engine = StreamingGPSServer(rate=1.0)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=2.0))
        result = engine.replay([], drain=True)
        assert result.drained is True
        assert result.final_total_backlog() == 0.0

    def test_event_accounting(self):
        result = self._result()
        assert result.events_processed == sum(
            result.event_counts.values()
        )
        assert result.event_counts["join"] == 3
        assert result.accepted == 3
        assert result.rejected == 0
        assert result.peak_active_sessions == 3
        assert result.num_sessions == 3
        assert isinstance(result, OnlineResult)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "big_phi, small_phi",
    [(1e300, 1.0), (1e308, 1e308)],
    ids=["product-overflows", "weight-total-overflows"],
)
def test_huge_weight_and_capacity_do_not_overflow_the_water_fill(
    big_phi, small_phi
):
    """``phi``, ``capacity`` and ``amount`` of ``1e300`` (or two weights
    of ``1e308``) are finite and pass every check.  The water-fill's
    ``remaining * phi`` product overflows, and the kernel recomputes those
    shares as ``remaining * (phi / total)``; a weight total that would
    overflow is rescaled by a power of two first."""
    import io

    from repro.online import JsonlSink, OnlineService

    lines = [
        {"kind": "join", "time": 0.0, "name": "big", "phi": big_phi},
        {"kind": "join", "time": 0.0, "name": "small", "phi": small_phi},
        {"kind": "capacity", "time": 0.0, "capacity": 1e300},
        {"kind": "arrival", "time": 0.0, "session": "big", "amount": 1e300},
        {"kind": "arrival", "time": 0.0, "session": "small", "amount": 1e300},
        {"kind": "arrival", "time": 3.0, "session": "small", "amount": 1.0},
    ]
    out = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=1.0), sink=JsonlSink(out))
    service.ingest(json.dumps(line) for line in lines)
    service.shutdown()
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert not [r for r in records if r["kind"] == "error"]
    summary = records[-1]["summary"]
    for key in ("total_arrived", "total_served", "final_total_backlog"):
        assert math.isfinite(summary[key])
    assert summary["total_served"] + summary["final_total_backlog"] == (
        pytest.approx(summary["total_arrived"])
    )
    assert summary["total_served"] == pytest.approx(2e300)
