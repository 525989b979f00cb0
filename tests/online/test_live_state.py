"""The serving state is live state.

A default engine keeps only what serving needs: the registry vectors,
the admission context and fixed counters, so its snapshot does not
grow with run length, and it closes idle or capacity-0 gaps in one
step.  A recording engine (``record_traces=True``) serves every slot
and keeps the history; apart from that history the two must hold the
same state and emit the same records.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.online import StreamingGPSServer
from repro.online.admission import AdmissionController
from repro.online.events import (
    ArrivalEvent,
    CapacityEvent,
    Renegotiate,
    SessionJoin,
    SessionLeave,
)

#: Engine state kept only by a recording engine.
HISTORY = (
    "decisions",
    "total_backlog_trace",
    "backlog_snapshots",
    "served_snapshots",
)

NAMES = ("a", "b", "c", "d")


def _live(state):
    return {
        key: value
        for key, value in state.items()
        if key not in HISTORY and key != "record_traces"
    }


def _op():
    idx = st.integers(min_value=0, max_value=len(NAMES) - 1)
    return st.one_of(
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=40)),
        st.tuples(
            st.just("join"),
            idx,
            st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        ),
        st.tuples(st.just("leave"), idx),
        st.tuples(
            st.just("renegotiate"),
            idx,
            st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        ),
        st.tuples(
            st.just("arrival"),
            idx,
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
        st.tuples(
            st.just("capacity"), st.sampled_from([0.0, 0.0, 0.5, 1.5, 3.0])
        ),
    )


def _events(ops):
    """A valid event stream: joins of inactive names, the rest on
    active ones, with idle gaps from the ``advance`` ops."""
    active = set()
    t = 0
    events = []
    for op in ops:
        kind = op[0]
        if kind == "advance":
            t += op[1]
        elif kind == "capacity":
            events.append(CapacityEvent(time=float(t), capacity=op[1]))
        else:
            name = NAMES[op[1]]
            if kind == "join" and name not in active:
                active.add(name)
                events.append(SessionJoin(time=float(t), name=name, phi=op[2]))
            elif name not in active:
                continue
            elif kind == "leave":
                active.discard(name)
                events.append(SessionLeave(time=float(t), name=name))
            elif kind == "renegotiate":
                events.append(Renegotiate(time=float(t), name=name, phi=op[2]))
            elif kind == "arrival":
                events.append(
                    ArrivalEvent(time=float(t), session=name, amount=op[2])
                )
    return events, t


class TestIdleGapsMatchSlotBySlotServing:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_op(), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=60),
    )
    def test_default_engine_equals_a_recording_run(
        self, ops, drain_slots, tail
    ):
        events, t = _events(ops)
        runs = []
        for record_traces in (False, True):
            engine = StreamingGPSServer(rate=1.5, record_traces=record_traces)
            records = [engine.process(event) for event in events]
            engine.advance_to(t + tail)
            drained = engine.drain(max_slots=drain_slots)
            runs.append((engine, records, drained))
        (fast, *fast_out), (slow, *slow_out) = runs
        assert fast_out == slow_out  # emitted records, drain outcome
        assert _live(fast.export_state()) == _live(slow.export_state())
        result, recorded = fast.result(), slow.result()
        assert result.summary() == recorded.summary()
        trace = recorded.total_backlog_trace
        assert result.last_total_backlog == (trace[-1] if trace.size else 0.0)
        assert result.max_total_backlog == (trace.max() if trace.size else 0.0)
        assert result.total_backlog_trace is None and result.decisions is None


#: Every admitted session declares this envelope and target; 20 of them
#: load the unit-rate server to 0.625.  The rate is dyadic, so the
#: admission context's exact aggregate keeps one partial.
_EBB = EBB(rho=0.03125, prefactor=1.0, decay_rate=5.0)
_TARGET = QoSTarget(d_max=60.0, epsilon=1e-3)
_INFEASIBLE = QoSTarget(d_max=0.5, epsilon=1e-9)
POPULATION = 20


def _churn(engine, rounds, rng, names):
    """One slot per round: a leave and a join (the population stays at
    POPULATION), a renegotiation, a refused join and three arrivals."""
    for _ in range(rounds):
        t = float(engine.clock)
        gone = names.pop(int(rng.integers(len(names))))
        engine.process(SessionLeave(time=t, name=gone))
        fresh = f"s{engine.events_processed}"
        record = engine.process(
            SessionJoin(time=t, name=fresh, phi=1.0, ebb=_EBB, target=_TARGET)
        )
        assert record["accepted"]
        names.append(fresh)
        refused = engine.process(
            SessionJoin(
                time=t, name="greedy", phi=1.0, ebb=_EBB, target=_INFEASIBLE
            )
        )
        assert not refused["accepted"]
        engine.process(
            Renegotiate(
                time=t,
                name=names[int(rng.integers(len(names)))],
                phi=float(rng.choice([0.5, 1.0, 2.0])),
            )
        )
        for k in rng.choice(len(names), size=3, replace=False):
            engine.process(
                ArrivalEvent(
                    time=t, session=names[int(k)], amount=float(rng.random())
                )
            )
        engine.advance_to(engine.clock + 1)


def _shape(value):
    """Key sets and list lengths of a JSON document, leaves dropped."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return len(value)
    return None


class TestBoundedState:
    def test_snapshot_shape_does_not_grow_with_run_length(self):
        engine = StreamingGPSServer(
            rate=1.0, admission=AdmissionController(rate=1.0)
        )
        names = [f"p{k}" for k in range(POPULATION)]
        for name in names:
            record = engine.process(
                SessionJoin(
                    time=0.0, name=name, phi=1.0, ebb=_EBB, target=_TARGET
                )
            )
            assert record["accepted"]
        rng = np.random.default_rng(25)
        shapes = []
        for rounds in (100, 300):  # checkpoints at 1x and 4x
            _churn(engine, rounds, rng, names)
            # Quiesce so the busy set is empty at both checkpoints.
            engine.advance_to(engine.clock + 50)
            assert engine.num_active == POPULATION
            assert engine._registry.num_busy == 0
            state = json.loads(json.dumps(engine.export_state()))
            shapes.append(_shape(state))
        assert engine.clock > 400
        assert shapes[0] == shapes[1]
        assert "decisions" not in shapes[1]
        assert engine.result().decisions is None
