"""Every malformed wire line becomes one ``error`` record and changes nothing.

Hypothesis drives arbitrary JSON values into every field of every
record kind — replaced, deleted, wrapped in a list or an object, and
into the nested ``ebb``/``target`` objects and the ``kind`` itself —
and serves the lines between the lines of a fixed good stream through
``OnlineService`` (with and without admission control),
``PacketOnlineService`` and a 2-shard ``ShardedOnlineCluster``.

Whether a line is malformed is decided here, by an oracle written
from the wire rules in docs/ONLINE.md rather than from the code's
table: numbers are finite, in range and never a JSON bool; names are
non-empty strings; optional fields may be absent or null.  A mutation
the oracle accepts is left out of the stream (it may be a legitimate
event).  The online streams also splice in well-formed lines that
the engine rejects (unknown sessions, a duplicate join) at any time
stamp.  For the rest:

* no exception escapes the service;
* each line yields exactly one ``error`` record, or one per owner
  shard (``ShardRouter.route``) on the cluster;
* the run emits the same non-error records as the good stream alone,
  ignoring ``line`` numbers and error counts: a rejected line changes
  no state.
"""

import io
import json
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    JsonlSink,
    OnlineService,
    ShardedOnlineCluster,
    StreamingGPSServer,
)
from repro.online.admission import AdmissionController
from repro.online.cluster import ShardRouter
from repro.packet.serving import PacketOnlineService, PacketStreamEngine

# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


def _number(v):
    if type(v) not in (int, float):  # a bool is not a number
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _nonneg(v):
    return _number(v) and v >= 0


def _pos(v):
    return _number(v) and v > 0


def _name(v):
    return type(v) is str and v != ""


REQUIRED, OPTIONAL = False, True

EBB_RULES = {
    "rho": (_pos, REQUIRED),
    "prefactor": (_nonneg, REQUIRED),
    "decay_rate": (_pos, REQUIRED),
}
TARGET_RULES = {
    "d_max": (_pos, REQUIRED),
    "epsilon": (lambda v: _number(v) and 0 < v < 1, REQUIRED),
}


def _fields_ok(record, rules):
    for name, (test, optional) in rules.items():
        value = record.get(name)
        if value is None:
            if not optional:
                return False
        elif not test(value):
            return False
    return True


def _object(rules):
    return lambda v: type(v) is dict and _fields_ok(v, rules)


ONLINE_RULES = {
    "capacity": {"time": (_nonneg, REQUIRED), "capacity": (_nonneg, REQUIRED)},
    "join": {
        "time": (_nonneg, REQUIRED),
        "name": (_name, REQUIRED),
        "phi": (_pos, REQUIRED),
        "ebb": (_object(EBB_RULES), OPTIONAL),
        "target": (_object(TARGET_RULES), OPTIONAL),
    },
    "renegotiate": {
        "time": (_nonneg, REQUIRED),
        "name": (_name, REQUIRED),
        "phi": (_pos, OPTIONAL),
        "ebb": (_object(EBB_RULES), OPTIONAL),
        "target": (_object(TARGET_RULES), OPTIONAL),
    },
    "arrival": {
        "time": (_nonneg, REQUIRED),
        "session": (_name, REQUIRED),
        "amount": (_nonneg, REQUIRED),
    },
    "leave": {"time": (_nonneg, REQUIRED), "name": (_name, REQUIRED)},
}
PACKET_RULES = {
    "packet": {
        "time": (_nonneg, REQUIRED),
        "session": (lambda v: type(v) is int and 0 <= v < 2, REQUIRED),
        "size": (_pos, REQUIRED),
    },
    "packet-trace-header": {
        "version": (lambda v: type(v) is int and v == 1, REQUIRED),
        "phis": (
            lambda v: type(v) is list and len(v) == 2 and all(map(_pos, v)),
            REQUIRED,
        ),
        "rate": (_pos, OPTIONAL),
        "names": (
            lambda v: type(v) is list and len(v) == 2 and all(map(_name, v)),
            OPTIONAL,
        ),
    },
}


def acceptable(record, vocabulary):
    """Whether the wire rules let ``record`` through to the engine."""
    if type(record) is not dict:
        return False
    rules = vocabulary.get(record.get("kind")) if type(
        record.get("kind")
    ) is str else None
    if rules is None or not _fields_ok(record, rules):
        return False
    if record["kind"] == "renegotiate":
        return any(record.get(k) is not None for k in ("phi", "ebb", "target"))
    return True


# ----------------------------------------------------------------------
# streams and mutations
# ----------------------------------------------------------------------
_EBB = {"rho": 0.2, "prefactor": 1.0, "decay_rate": 0.5}
_TARGET = {"d_max": 50.0, "epsilon": 0.1}

ONLINE_TEMPLATES = [
    {"kind": "capacity", "time": 1.0, "capacity": 1.0},
    {"kind": "join", "time": 1.0, "name": "n", "phi": 1.0, "ebb": _EBB, "target": _TARGET},
    {"kind": "renegotiate", "time": 1.0, "name": "a", "phi": 2.0, "ebb": _EBB, "target": _TARGET},
    {"kind": "arrival", "time": 1.0, "session": "a", "amount": 0.5},
    {"kind": "leave", "time": 1.0, "name": "a"},
]
ONLINE_GOOD = [
    {"kind": "join", "time": 0.0, "name": "a", "phi": 1.0, "ebb": _EBB, "target": _TARGET},
    {"kind": "join", "time": 0.0, "name": "b", "phi": 2.0, "ebb": _EBB, "target": _TARGET},
    {"kind": "arrival", "time": 0.0, "session": "a", "amount": 1.5},
    {"kind": "arrival", "time": 1.0, "session": "b", "amount": 0.75},
    {"kind": "renegotiate", "time": 1.0, "name": "a", "phi": 3.0},
    {"kind": "capacity", "time": 2.0, "capacity": 0.5},
    {"kind": "leave", "time": 3.0, "name": "b"},
    {"kind": "arrival", "time": 3.0, "session": "a", "amount": 0.25},
]
PACKET_TEMPLATES = [
    {"kind": "packet", "time": 1.0, "session": 0, "size": 0.5},
    {"kind": "packet-trace-header", "version": 1, "phis": [0.5, 0.5], "rate": 1.0, "names": ["x", "y"]},
]
PACKET_GOOD = [
    {"kind": "packet-trace-header", "version": 1, "phis": [0.25, 0.75], "rate": 1.0},
    {"kind": "packet", "time": 0.0, "session": 0, "size": 1.0},
    {"kind": "packet", "time": 0.5, "session": 1, "size": 0.5},
    {"kind": "packet", "time": 1.0, "session": 0, "size": 0.25},
    {"kind": "packet", "time": 2.0, "session": 1, "size": 2.0},
]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 2**63, 2**70, -(2**70), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1e308, -1e-300]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _paths(template):
    """Every field path of a template, nested ones included."""
    for key, value in template.items():
        yield (key,)
        if isinstance(value, dict):
            for inner in value:
                yield (key, inner)


@st.composite
def mutated(draw, templates):
    """One template with one field replaced, deleted or re-nested."""
    record = json.loads(json.dumps(draw(st.sampled_from(templates))))
    path = draw(st.sampled_from(list(_paths(record))))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["value", "value", "delete", "list", "object"]))
    if action == "delete":
        del parent[key]
    elif action == "list":
        parent[key] = [parent[key]]
    elif action == "object":
        parent[key] = {key: parent[key]}
    else:
        parent[key] = draw(JSON_VALUES)
    if draw(st.booleans()):
        return record
    # A whole line that is not an object at all.
    return draw(JSON_VALUES.filter(lambda v: type(v) is not dict))


@st.composite
def engine_rejected(draw):
    """A well-formed line the engine rejects: an unknown session, or a
    duplicate join of ``a`` (active through the whole good stream),
    stamped at any slot — a later stamp must not move the clock."""
    time = draw(st.floats(0.0, 50.0))
    return draw(
        st.sampled_from(
            [
                {"kind": "arrival", "time": time, "session": "ghost", "amount": 0.5},
                {"kind": "leave", "time": time, "name": "ghost"},
                {"kind": "renegotiate", "time": time, "name": "ghost", "phi": 2.0},
                {"kind": "join", "time": time, "name": "a", "phi": 1.0},
            ]
        )
    )


def _stream(draw, good, templates, vocabulary, extra=None):
    """The good lines with malformed lines (and lines drawn from
    ``extra``) spliced in; returns the full stream and the positions
    of the rejected lines."""
    bad = [
        record
        for record in draw(st.lists(mutated(templates), min_size=1, max_size=6))
        if not acceptable(record, vocabulary)
    ]
    if extra is not None:
        bad += draw(st.lists(extra, max_size=3))
    lines = [json.dumps(record) for record in good]
    positions = sorted(
        draw(st.lists(st.integers(1, len(good)), min_size=len(bad), max_size=len(bad)))
    )
    stream, rejected = [], set()
    for index, line in enumerate(lines):
        while positions and positions[0] == index:
            positions.pop(0)
            rejected.add(len(stream))
            stream.append(json.dumps(bad.pop()))
        stream.append(line)
    for record in bad:
        rejected.add(len(stream))
        stream.append(json.dumps(record))
    return stream, rejected


@st.composite
def online_streams(draw):
    return _stream(
        draw, ONLINE_GOOD, ONLINE_TEMPLATES, ONLINE_RULES, engine_rejected()
    )


@st.composite
def packet_streams(draw):
    return _stream(draw, PACKET_GOOD, PACKET_TEMPLATES, PACKET_RULES)


# ----------------------------------------------------------------------
# serving and the three properties
# ----------------------------------------------------------------------


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def _serve(make, lines):
    out = io.StringIO()
    service = make(JsonlSink(out))
    service.ingest(lines)
    service.shutdown()
    return _records(out.getvalue())


def _serve_cluster(lines):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        cluster, _ = ShardedOnlineCluster.open(
            root + "/cluster",
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


def _without_errors(records):
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


def _check(serve, stream, rejected, owners=lambda line: (None,)):
    """The three properties; ``owners`` maps a line to the shards that
    see it (``None``: the one service), whose error records carry the
    line number local to that shard."""
    records = serve(stream)
    clean = serve([line for k, line in enumerate(stream) if k not in rejected])
    expected, seen = [], {}
    for k, line in enumerate(stream):
        for shard in owners(line):
            seen[shard] = seen.get(shard, 0) + 1
            if k in rejected:
                expected.append((seen[shard], shard))
    errors = [(r["line"], r.get("shard")) for r in records if r["kind"] == "error"]
    assert sorted(errors) == sorted(expected)
    assert _without_errors(records) == _without_errors(clean)


def _single(admission):
    def make(sink):
        engine = StreamingGPSServer(
            rate=1.0,
            admission=AdmissionController(rate=1.0) if admission else None,
        )
        return OnlineService(engine, sink=sink)

    return lambda lines: _serve(make, lines)


@settings(max_examples=150, deadline=None)
@given(online_streams(), st.booleans())
def test_online_service(case, admission):
    stream, rejected = case
    _check(_single(admission), stream, rejected)


@settings(max_examples=150, deadline=None)
@given(packet_streams())
def test_packet_service(case):
    stream, rejected = case

    def make(sink):
        return PacketOnlineService(PacketStreamEngine(rate=1.0), sink=sink)

    _check(lambda lines: _serve(make, lines), stream, rejected)


@settings(max_examples=40, deadline=None)
@given(online_streams())
def test_two_shard_cluster(case):
    stream, rejected = case
    router = ShardRouter(2)
    _check(_serve_cluster, stream, rejected, owners=router.route)
