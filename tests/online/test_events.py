"""Event model: ordering, validation, and lossless JSONL record/replay."""

import io
import json

import pytest

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import ValidationError
from repro.online.events import (
    EVENT_ORDER,
    ArrivalEvent,
    CapacityEvent,
    EventQueue,
    Renegotiate,
    SessionJoin,
    SessionLeave,
    event_from_record,
    event_to_record,
    read_event_stream,
    write_event_stream,
)


def _sample_events():
    return [
        SessionJoin(
            time=0.0,
            name="voice",
            phi=2.0,
            ebb=EBB(rho=0.2, prefactor=1.0, decay_rate=1.74),
            target=QoSTarget(d_max=12.0, epsilon=1e-4),
        ),
        SessionJoin(time=0.0, name="data", phi=1.0),
        CapacityEvent(time=3.0, capacity=0.5),
        ArrivalEvent(time=3.0, session="voice", amount=0.7),
        Renegotiate(time=5.0, name="data", phi=1.5),
        Renegotiate(
            time=6.0,
            name="voice",
            ebb=EBB(rho=0.25, prefactor=1.2, decay_rate=1.5),
        ),
        SessionLeave(time=9.0, name="voice"),
    ]


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            CapacityEvent(time=-1.0, capacity=1.0)

    def test_nan_time_rejected(self):
        with pytest.raises(ValidationError):
            ArrivalEvent(time=float("nan"), session="a", amount=1.0)

    def test_empty_names_rejected(self):
        with pytest.raises(ValidationError):
            SessionJoin(time=0.0, name="", phi=1.0)
        with pytest.raises(ValidationError):
            SessionLeave(time=0.0, name="")
        with pytest.raises(ValidationError):
            ArrivalEvent(time=0.0, session="", amount=1.0)

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValidationError):
            SessionJoin(time=0.0, name="a", phi=0.0)
        with pytest.raises(ValidationError):
            Renegotiate(time=0.0, name="a", phi=-1.0)

    def test_negative_amount_and_capacity_rejected(self):
        with pytest.raises(ValidationError):
            ArrivalEvent(time=0.0, session="a", amount=-0.1)
        with pytest.raises(ValidationError):
            CapacityEvent(time=0.0, capacity=-0.1)

    def test_zero_capacity_allowed(self):
        # An outage window is a legal capacity.
        CapacityEvent(time=0.0, capacity=0.0)

    def test_renegotiate_must_change_something(self):
        with pytest.raises(ValidationError):
            Renegotiate(time=0.0, name="a")


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(ArrivalEvent(time=5.0, session="a", amount=1.0))
        queue.push(ArrivalEvent(time=1.0, session="a", amount=1.0))
        queue.push(ArrivalEvent(time=3.0, session="a", amount=1.0))
        assert [e.time for e in queue] == [1.0, 3.0, 5.0]

    def test_intra_slot_kind_order(self):
        """At equal times: capacity < join < renegotiate < arrival < leave."""
        queue = EventQueue(
            [
                SessionLeave(time=2.0, name="a"),
                ArrivalEvent(time=2.0, session="a", amount=1.0),
                Renegotiate(time=2.0, name="a", phi=2.0),
                SessionJoin(time=2.0, name="b", phi=1.0),
                CapacityEvent(time=2.0, capacity=1.0),
            ]
        )
        kinds = [e.kind for e in queue]
        assert kinds == ["capacity", "join", "renegotiate", "arrival", "leave"]
        assert [EVENT_ORDER[k] for k in kinds] == sorted(
            EVENT_ORDER[k] for k in kinds
        )

    def test_ties_preserve_insertion_order(self):
        first = ArrivalEvent(time=1.0, session="a", amount=0.25)
        second = ArrivalEvent(time=1.0, session="b", amount=0.75)
        queue = EventQueue([first, second])
        assert queue.pop() is first
        assert queue.pop() is second

    def test_len_bool_and_peek(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        event = CapacityEvent(time=0.0, capacity=1.0)
        queue.push(event)
        assert queue and len(queue) == 1
        assert queue.peek() is event
        assert len(queue) == 1  # peek does not consume

    def test_empty_pop_and_peek_raise(self):
        queue = EventQueue()
        with pytest.raises(ValidationError):
            queue.pop()
        with pytest.raises(ValidationError):
            queue.peek()

    def test_foreign_object_rejected(self):
        with pytest.raises(ValidationError):
            EventQueue().push("not an event")


class TestRecords:
    def test_record_round_trip_per_event(self):
        for event in _sample_events():
            record = json.loads(json.dumps(event_to_record(event)))
            assert event_from_record(record) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown event kind"):
            event_from_record({"kind": "teleport", "time": 0.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="missing field"):
            event_from_record({"kind": "arrival", "time": 0.0})

    def test_non_dict_rejected(self):
        with pytest.raises(ValidationError):
            event_from_record([1, 2, 3])

    def test_foreign_object_rejected(self):
        with pytest.raises(ValidationError):
            event_to_record(object())


class TestJsonlStreams:
    def test_path_round_trip(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "trace.jsonl")
        assert write_event_stream(path, events) == len(events)
        assert list(read_event_stream(path)) == events

    def test_file_object_round_trip(self):
        events = _sample_events()
        buffer = io.StringIO()
        write_event_stream(buffer, events)
        buffer.seek(0)
        assert list(read_event_stream(buffer)) == events

    def test_blank_lines_skipped(self):
        buffer = io.StringIO('\n{"kind": "capacity", "time": 1.0, "capacity": 2.0}\n\n')
        events = list(read_event_stream(buffer))
        assert events == [CapacityEvent(time=1.0, capacity=2.0)]

    def test_bad_json_reports_line_number(self):
        buffer = io.StringIO(
            '{"kind": "capacity", "time": 1.0, "capacity": 2.0}\nnot json\n'
        )
        with pytest.raises(ValidationError, match="line 2"):
            list(read_event_stream(buffer))
