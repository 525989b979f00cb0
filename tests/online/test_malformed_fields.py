"""A non-numeric value in a numeric event field is an ``error`` record.

Each line below once raised ``TypeError`` out of
``OnlineService.ingest`` (``math.isfinite`` or a comparison on a
string, ``null`` or list), which stopped a single service and, through
``ShardSupervisor.deliver``, a whole cluster.  Each must now become one
``ValidationError`` error record on the shard that owns the line, with
serving continuing past it.

The wire table (docs/ONLINE.md) decides what is malformed: a JSON bool
is never a number, and a session name is a non-empty string.  Bools
were once accepted in numeric fields; a list or object name once
escaped as ``TypeError: unhashable type``, and a number name was
accepted, then broke the next snapshot or was routed to two shards.

A far-future ``time`` is valid and once stalled the service instead:
the engine closed every slot up to it, about 0.8 us each, so ``1e308``
never returned.  An idle or capacity-0 gap now closes in a bounded
number of slot commits; the tests count ``commit_slot`` calls rather
than wall time.
"""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.online import (
    DurableOnlineService,
    JsonlSink,
    OnlineService,
    ShardedOnlineCluster,
    StreamingGPSServer,
)
from repro.online.cluster import ShardRouter
from repro.online.events import ArrivalEvent, CapacityEvent, SessionJoin
from repro.online.session import SessionRegistry

_EBB = '{"rho":0.2,"prefactor":1.0,"decay_rate":0.5}'
_TARGET = '{"d_max":20.0,"epsilon":0.001}'

#: ``(id, line)``: one bad field per line, on session ``a`` (joined by
#: ``_JOIN``) or on a new session ``n``.
BAD_LINES = [
    ("amount-str", '{"kind":"arrival","time":1.0,"session":"a","amount":"many"}'),
    ("amount-null", '{"kind":"arrival","time":1.0,"session":"a","amount":null}'),
    ("amount-list", '{"kind":"arrival","time":1.0,"session":"a","amount":[1]}'),
    ("amount-huge", '{"kind":"arrival","time":1.0,"session":"a","amount":1%s}' % ("0" * 400)),
    ("time-str", '{"kind":"arrival","time":"soon","session":"a","amount":1.0}'),
    ("time-null", '{"kind":"leave","time":null,"name":"a"}'),
    ("phi-list", '{"kind":"join","time":1.0,"name":"n","phi":[1]}'),
    ("phi-str", '{"kind":"renegotiate","time":1.0,"name":"a","phi":"2"}'),
    ("capacity-str", '{"kind":"capacity","time":1.0,"capacity":"fast"}'),
    ("ebb-rho", '{"kind":"join","time":1.0,"name":"n","phi":1.0,"ebb":{"rho":"x","prefactor":1.0,"decay_rate":0.5}}'),
    ("ebb-prefactor", '{"kind":"join","time":1.0,"name":"n","phi":1.0,"ebb":{"rho":0.2,"prefactor":null,"decay_rate":0.5}}'),
    ("ebb-decay", '{"kind":"renegotiate","time":1.0,"name":"a","ebb":{"rho":0.2,"prefactor":1.0,"decay_rate":[0.5]}}'),
    ("ebb-not-object", '{"kind":"join","time":1.0,"name":"n","phi":1.0,"ebb":5}'),
    ("target-dmax", '{"kind":"join","time":1.0,"name":"n","phi":1.0,"ebb":%s,"target":{"d_max":"far","epsilon":0.001}}' % _EBB),
    ("target-epsilon", '{"kind":"renegotiate","time":1.0,"name":"a","target":{"d_max":20.0,"epsilon":"tiny"}}'),
    ("target-not-object", '{"kind":"renegotiate","time":1.0,"name":"a","target":[20.0,0.001]}'),
    # A JSON true/false is never a number.
    ("amount-true", '{"kind":"arrival","time":1.0,"session":"a","amount":true}'),
    ("time-true", '{"kind":"leave","time":true,"name":"a"}'),
    ("capacity-true", '{"kind":"capacity","time":1.0,"capacity":true}'),
    ("phi-true", '{"kind":"join","time":1.0,"name":"n","phi":true}'),
    ("ebb-rho-true", '{"kind":"join","time":1.0,"name":"n","phi":1.0,"ebb":{"rho":true,"prefactor":1.0,"decay_rate":0.5}}'),
    # A session name is a non-empty string: a list or object once
    # escaped as ``TypeError: unhashable type``, a number was accepted.
    ("name-list", '{"kind":"leave","time":1.0,"name":[1]}'),
    ("session-object", '{"kind":"arrival","time":1.0,"session":{"x":1},"amount":1.0}'),
    ("name-int", '{"kind":"join","time":1.0,"name":7,"phi":1.0}'),
    ("renegotiate-name-float", '{"kind":"renegotiate","time":1.0,"name":1.5,"phi":2.0}'),
]

_JOIN = '{"kind":"join","time":0.0,"name":"a","phi":1.0,"ebb":%s,"target":%s}' % (
    _EBB,
    _TARGET,
)
#: A valid line after the bad one, proving serving went on.
_AFTER = '{"kind":"arrival","time":2.0,"session":"a","amount":0.5}'


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def _assert_one_error(records, lineno):
    errors = [r for r in records if r["kind"] == "error"]
    assert len(errors) == 1
    assert errors[0]["line"] == lineno
    assert errors[0]["error_type"] == "ValidationError"
    assert any(
        r["kind"] == "arrival" and r.get("session") == "a"
        and r["amount"] == 0.5
        for r in records
    )


@pytest.mark.parametrize(
    "line", [line for _, line in BAD_LINES], ids=[k for k, _ in BAD_LINES]
)
def test_single_service_emits_an_error_record(line):
    out = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=1.0), sink=JsonlSink(out))
    service.ingest([_JOIN, line, _AFTER])
    service.shutdown()
    _assert_one_error(_records(out.getvalue()), 2)
    assert service.errors == 1


@pytest.mark.parametrize(
    "line", [line for _, line in BAD_LINES], ids=[k for k, _ in BAD_LINES]
)
def test_cluster_emits_an_error_record(tmp_path, line):
    out = io.StringIO()
    cluster, _ = ShardedOnlineCluster.open(
        tmp_path / "cluster",
        mode="create",
        num_shards=4,
        rate=1.0,
        sink=JsonlSink(out),
        snapshot_every=0,
    )
    for each in (_JOIN, line, _AFTER):
        cluster.ingest((each,))
    cluster.shutdown()
    records = _records(out.getvalue())
    errors = [r for r in records if r["kind"] == "error"]
    # A broadcast line (capacity) is one error per shard; any other
    # line is owned by exactly one shard.
    owners = ShardRouter(4).route(line)
    assert sorted(r["shard"] for r in errors) == sorted(owners)
    assert all(r["error_type"] == "ValidationError" for r in errors)
    assert any(
        r["kind"] == "arrival" and r.get("session") == "a"
        and r["amount"] == 0.5
        for r in records
    )


#: Lines ``json.loads`` raises on with something other than
#: ``JSONDecodeError``; each once escaped ``OnlineService.ingest``.
UNDECODABLE = [
    # An integer past Python's digit limit (ValueError).
    '{"kind":"arrival","time":1.0,"session":"a","amount":%s}' % ("1" * 5000),
    # Nesting past the recursion limit (RecursionError).
    '{"kind":"arrival","time":1.0,"session":"a","amount":%s}'
    % ("[" * 5000 + "]" * 5000),
]


@pytest.mark.parametrize("line", UNDECODABLE, ids=["digits", "nesting"])
def test_undecodable_line_is_one_error_record(tmp_path, line):
    for records in (
        _serve_single([_JOIN, line, _AFTER]),
        _serve_cluster(tmp_path / "cluster", [_JOIN, line, _AFTER]),
    ):
        errors = [r for r in records if r["kind"] == "error"]
        assert len(errors) == 1
        assert any(
            r["kind"] == "arrival" and r.get("amount") == 0.5
            for r in records
        )


@pytest.mark.parametrize(
    "line",
    [
        '{"kind":"leave","time":1.0,"name":[1]}',
        '{"kind":"arrival","time":1.0,"session":{"x":1},"amount":1.0}',
    ],
    ids=["leave-name-list", "arrival-session-object"],
)
def test_serve_stdin_reports_an_unhashable_name(line):
    """Through ``repro serve -`` these lines once printed a traceback
    and exited with no summary."""
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "-", "--rate", "1.0"],
        input=_JOIN + "\n" + line + "\n",
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stderr == ""
    records = _records(done.stdout)
    assert [r["kind"] for r in records] == ["join", "error", "summary"]
    assert records[-1]["summary"]["errors"] == 1


#: Session names the wire table rejects.  Each once got past the
#: parser: ``7`` killed the next snapshot of a durable service, ``5``
#: joined on one shard and left from another.
BAD_NAMES = ["7", "5", "1.5", "true", "[1]", '{"x":1}', '""', "null"]


def _name_lines(name):
    return [
        '{"kind":"join","time":0.0,"name":"a","phi":1.0}',
        '{"kind":"join","time":0.0,"name":%s,"phi":1.0}' % name,
        '{"kind":"arrival","time":1.0,"session":%s,"amount":1.0}' % name,
        '{"kind":"arrival","time":1.0,"session":"a","amount":0.5}',
        '{"kind":"leave","time":2.0,"name":%s}' % name,
    ]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_name_through_a_durable_service_snapshots(tmp_path, name):
    out = io.StringIO()
    service, _ = DurableOnlineService.open(
        tmp_path / "state",
        mode="create",
        rate=1.0,
        snapshot_every=2,
        sink=JsonlSink(out),
    )
    service.ingest(_name_lines(name))
    service.shutdown()
    records = _records(out.getvalue())
    assert [r["line"] for r in records if r["kind"] == "error"] == [2, 3, 5]
    # The snapshot after the bad lines committed.
    assert (tmp_path / "state" / "snap-0000000000000004.json").exists()


@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_name_on_a_cluster_is_one_error_per_line(tmp_path, name):
    lines = _name_lines(name)
    records = _serve_cluster(tmp_path / "cluster", lines)
    errors = [r for r in records if r["kind"] == "error"]
    assert len(errors) == 3
    router = ShardRouter(2)
    assert sorted(r["shard"] for r in errors) == sorted(
        router.route(lines[k])[0] for k in (1, 2, 4)
    )


#: Lines whose ``kind`` is not a string: each once raised ``TypeError:
#: unhashable type`` (list, object) out of the event-kind lookup.
BAD_KINDS = [
    '{"kind":[],"time":1.0}',
    '{"kind":{"a":1},"time":1.0}',
    '{"kind":3,"time":1.0}',
    '{"kind":true,"time":1.0}',
]

_GOOD = [
    _JOIN,
    '{"kind":"arrival","time":1.0,"session":"a","amount":0.5}',
    '{"kind":"arrival","time":2.0,"session":"a","amount":1.5}',
    '{"kind":"leave","time":5.0,"name":"a"}',
]


def _interleaved():
    """The good lines with one bad-kind line after each of the first
    four, so the bad lines land between events."""
    lines = []
    for good, bad in zip(_GOOD, BAD_KINDS):
        lines.extend((good, bad))
    return lines


def _serving_records(records):
    """Records minus errors, line numbers and the error counts."""
    kept = []
    for record in records:
        if record["kind"] == "error":
            continue
        record = {k: v for k, v in record.items() if k != "line"}
        if record["kind"] == "summary":
            record["summary"] = {
                k: v for k, v in record["summary"].items() if k != "errors"
            }
        kept.append(record)
    return kept


def _serve_single(lines):
    out = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=1.0), sink=JsonlSink(out))
    service.ingest(lines)
    service.shutdown()
    return _records(out.getvalue())


def _serve_cluster(path, lines):
    out = io.StringIO()
    cluster, _ = ShardedOnlineCluster.open(
        path,
        mode="create",
        num_shards=2,
        rate=1.0,
        sink=JsonlSink(out),
        snapshot_every=0,
    )
    for line in lines:
        cluster.ingest((line,))
    cluster.shutdown()
    return _records(out.getvalue())


def _assert_bad_kinds_isolated(records, clean):
    errors = [r for r in records if r["kind"] == "error"]
    assert len(errors) == len(BAD_KINDS)
    assert all(r["error_type"] == "ValidationError" for r in errors)
    assert all("unknown event kind" in r["error"] for r in errors)
    summaries = [r["summary"] for r in records if r["kind"] == "summary"]
    assert sum(s["errors"] for s in summaries) == len(BAD_KINDS)
    assert _serving_records(records) == _serving_records(clean)


def test_non_string_kind_is_an_error_record_on_a_single_service():
    _assert_bad_kinds_isolated(
        _serve_single(_interleaved()), _serve_single(_GOOD)
    )


def test_non_string_kind_is_an_error_record_on_a_cluster(tmp_path):
    _assert_bad_kinds_isolated(
        _serve_cluster(tmp_path / "bad", _interleaved()),
        _serve_cluster(tmp_path / "clean", _GOOD),
    )


#: ``time`` values far past any real horizon: a float near the top of
#: the double range and an integer past int64.
FAR_TIMES = ["1e308", str(2**70)]


def _far_slot(far):
    return math.floor(json.loads(far))


@pytest.fixture
def commits(monkeypatch):
    """The list of ``SessionRegistry.commit_slot`` calls made."""
    calls = []
    original = SessionRegistry.commit_slot

    def counting(self, *args):
        calls.append(self.epoch)
        return original(self, *args)

    monkeypatch.setattr(SessionRegistry, "commit_slot", counting)
    return calls


def _far_lines(far):
    return [
        _JOIN,
        '{"kind":"arrival","time":0.0,"session":"a","amount":2.5}',
        '{"kind":"capacity","time":%s,"capacity":1.0}' % far,
        '{"kind":"arrival","time":%s,"session":"a","amount":1.0}' % far,
        '{"kind":"leave","time":%s,"name":"a"}' % far,
    ]


@pytest.mark.parametrize("far", FAR_TIMES)
def test_far_future_line_closes_an_idle_gap_in_o1(commits, far):
    out = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=1.0), sink=JsonlSink(out))
    service.ingest(_far_lines(far))
    # Slots 0-2 serve the 2.5 units; the idle rest of the gap is one step.
    assert len(commits) == 3
    slot = _far_slot(far)
    assert service.engine.clock == slot
    records = _records(out.getvalue())
    assert [r["kind"] for r in records] == [
        "join", "arrival", "capacity", "arrival", "leave"
    ]
    assert not any(r["kind"] == "error" for r in records)
    leave = records[-1]
    assert leave["slot"] == slot
    assert (leave["arrived"], leave["served"], leave["residual"]) == (
        2.5, 2.5, 1.0
    )
    summary = service.shutdown().summary()
    assert summary["num_slots"] == slot
    assert summary["max_total_backlog"] == 1.5
    assert summary["final_total_backlog"] == 0.0


@pytest.mark.parametrize("far", FAR_TIMES)
def test_capacity_zero_window_then_far_future_line(commits, far):
    """A standing backlog under capacity 0 is frozen, so the gap
    closes in one step; restored capacity then drains it."""
    out = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=1.0), sink=JsonlSink(out))
    service.ingest(
        [
            _JOIN,
            '{"kind":"arrival","time":0.0,"session":"a","amount":5.0}',
            '{"kind":"capacity","time":1.0,"capacity":0.0}',
            '{"kind":"capacity","time":%s,"capacity":1.0}' % far,
        ]
    )
    assert len(commits) == 2  # slot 0 at capacity 1, slot 1 at 0
    engine = service.engine
    assert engine.clock == _far_slot(far)
    assert engine.session_backlog("a") == 4.0
    result = service.shutdown()
    assert result.drained is True
    assert result.num_slots == _far_slot(far) + 4
    assert result.total_served == 5.0
    assert len(commits) == 6


@pytest.mark.parametrize("max_slots", [1, 2, 1000])
def test_drain_under_capacity_zero(commits, max_slots):
    """Same ``(slots_used, drained)`` and clock as serving every slot
    (a recording engine), in at most two commits."""
    outcomes = []
    for record_traces in (False, True):
        engine = StreamingGPSServer(rate=1.0, record_traces=record_traces)
        engine.process(SessionJoin(time=0.0, name="a", phi=1.0))
        engine.process(ArrivalEvent(time=0.0, session="a", amount=5.0))
        engine.process(CapacityEvent(time=1.0, capacity=0.0))
        del commits[:]
        outcome = engine.drain(max_slots=max_slots)
        outcomes.append((outcome, engine.clock, len(commits)))
    (fast, fast_clock, fast_commits), (slow, slow_clock, _) = outcomes
    assert fast == slow == (max_slots, False)
    assert fast_clock == slow_clock == 1 + max_slots
    assert fast_commits == 1


def test_join_after_the_jump_survives_snapshot_and_recovery(tmp_path):
    """Big-int ``clock``, ``joined_at`` and ``epoch`` round-trip through
    a snapshot and a WAL replay."""
    far = str(2**70)
    lines = [
        _JOIN,
        '{"kind":"arrival","time":0.0,"session":"a","amount":2.0}',
        '{"kind":"join","time":%s,"name":"b","phi":2.0}' % far,
        '{"kind":"arrival","time":%s,"session":"b","amount":3.0}' % far,
        '{"kind":"arrival","time":%s,"session":"a","amount":1.0}' % far,
        '{"kind":"leave","time":%s,"name":"a"}' % (2**70 + 5),
    ]
    service, _ = DurableOnlineService.open(
        tmp_path / "state", mode="create", rate=1.0, snapshot_every=4
    )
    service.ingest(lines[:5])
    service.wal.close()  # crash: snapshot at line 4, line 5 in the WAL
    recovered, report = DurableOnlineService.open(
        tmp_path / "state", mode="recover"
    )
    assert (report.snapshot_seq, report.replayed) == (4, 1)
    state = recovered.engine.export_state()
    assert state["clock"] == 2**70
    assert state["registry"]["columns"]["joined_at"] == [0, 2**70]
    assert state["registry"]["epoch"] == 2**70
    recovered.ingest(lines[5:])
    reference = OnlineService(StreamingGPSServer(rate=1.0))
    reference.ingest(lines)
    assert recovered.engine.export_state() == reference.engine.export_state()
    assert recovered.shutdown().summary() == reference.shutdown().summary()
