"""Admission decision records stay byte-identical.

``data/admission_churn/lines.jsonl`` is a seeded admission churn served
at ``rate=1.0`` with full diagnostics: 60 E.B.B.-declared joins in
three upper-rate groups (a quarter of them at their group's nominal
rate, so the ratio order has ties), then 24 slots, each with a weight
renegotiation, a leave, a join and three arrivals; some slots add a
join with an infeasible delay target or a renegotiation to one, both
refused.  The feasible partition reaches three and four classes.

``records.jsonl`` is the record stream ``OnlineService`` +
``JsonlSink`` wrote for it when the context rebuilt the feasible
ordering and partition from scratch for every decision.  Deriving them
from the maintained ratio order must not change a byte, and the
from-scratch reference of ``tests/analysis/oracle.py`` still writes
the same stream.

The same stream checks a recording engine's (``record_traces=True``)
retained decision log: it keeps every decision without the two
population-sized lists (``feasible_ordering``, ``feasible_partition``),
which only the emitted records carry, and a snapshot whose log still
holds them loads to the same state as an uninterrupted run.
"""

import io
import json
from pathlib import Path

import pytest

from repro.online import OnlineService, StreamingGPSServer
from repro.online.admission import AdmissionController
from repro.online.durability import DurableOnlineService
from repro.online.durability.snapshot import _decode, _encode
from repro.online.records import JsonlSink

from tests.analysis.oracle import reference_controller

FIXTURE = Path(__file__).parent / "data" / "admission_churn"
RATE = 1.0
LISTS = ("feasible_ordering", "feasible_partition")


def _lines():
    return (FIXTURE / "lines.jsonl").read_text().splitlines()


def _records():
    return [json.loads(line) for line in (FIXTURE / "records.jsonl").open()]


def _service(out, admission=None, record_traces=False):
    engine = StreamingGPSServer(
        rate=RATE,
        admission=admission or AdmissionController(rate=RATE),
        record_traces=record_traces,
    )
    return OnlineService(engine, sink=JsonlSink(out))


@pytest.fixture(scope="module")
def served():
    out = io.StringIO()
    service = _service(out)
    service.serve(iter(_lines()))
    return service.engine, out.getvalue()


@pytest.fixture(scope="module")
def recorded():
    service = _service(io.StringIO(), record_traces=True)
    service.serve(iter(_lines()))
    return service.engine


def test_record_stream_is_byte_identical(served):
    _, stream = served
    assert stream == (FIXTURE / "records.jsonl").read_text()


def test_reference_stream_is_byte_identical():
    out = io.StringIO()
    _service(out, reference_controller(RATE)).serve(iter(_lines()))
    assert out.getvalue() == (FIXTURE / "records.jsonl").read_text()


def test_fixture_covers_the_churn():
    decisions = [r for r in _records() if "decision" in r]
    verdicts = {
        (r["kind"], r["decision"]["violated"]) for r in decisions
    }
    assert {
        ("join", None),
        ("join", "delay_bound"),
        ("renegotiate", None),
        ("renegotiate", "delay_bound"),
    } <= verdicts
    assert any(r["kind"] == "leave" for r in _records())
    classes = [
        len(r["decision"]["details"]["feasible_partition"])
        for r in decisions
        if "feasible_partition" in r["decision"]["details"]
    ]
    assert max(classes) >= 3
    levels = {
        r["decision"]["details"]["partition_level"]
        for r in decisions
        if "partition_level" in r["decision"]["details"]
    }
    assert max(levels) >= 1


def _without_lists(decision):
    out = dict(decision)
    out["details"] = {
        k: v for k, v in decision["details"].items() if k not in LISTS
    }
    return out


def test_retained_log_drops_only_the_lists(recorded):
    engine = recorded
    emitted = [r["decision"] for r in _records() if "decision" in r]
    retained = list(engine.result().decisions)
    assert retained == [_without_lists(d) for d in emitted]
    for decision in retained:
        assert not set(LISTS) & set(decision["details"])
    assert all(
        "partition_level" in d["details"]
        and "theorem11_probability" in d["details"]
        for d in retained
    )
    assert engine.export_state()["decisions"] == retained


@pytest.mark.parametrize("cut", [30, 75, 140])
def test_snapshot_with_full_decisions_loads_to_retained_form(recorded, cut):
    """A state exported while the log kept whole decision records (as
    the emitted records show them) recovers to the uninterrupted run."""
    uninterrupted = recorded
    lines = _lines()
    head = _service(io.StringIO(), record_traces=True)
    head.ingest(iter(lines[:cut]))
    state = head.engine.export_state()
    state["decisions"] = [
        r["decision"] for r in _records()[:cut] if "decision" in r
    ]
    assert any(LISTS[0] in d["details"] for d in state["decisions"])
    state = json.loads(json.dumps(state))
    engine = StreamingGPSServer.from_state(state)
    rest = OnlineService(engine, sink=JsonlSink(io.StringIO()))
    rest.serve(iter(lines[cut:]))
    assert json.dumps(engine.export_state()) == json.dumps(
        uninterrupted.export_state()
    )


def _set_incremental_key(directory, value):
    """Write the key that metadata and admission snapshots carried while
    the gate had a from-scratch mode."""
    meta = directory / "meta.json"
    document = _decode(meta.read_bytes())
    document["config"]["incremental"] = value
    meta.write_bytes(_encode(document))
    snapshots = sorted(directory.glob("snap-*.json"))
    assert snapshots
    for path in snapshots:
        document = _decode(path.read_bytes())
        document["engine"]["admission"]["context"]["incremental"] = value
        path.write_bytes(_encode(document))


@pytest.mark.parametrize("value", [True, False])
def test_state_with_incremental_key_recovers(tmp_path, served, value):
    uninterrupted, stream = served
    lines = [line + "\n" for line in _lines()]
    cut = 75
    directory = tmp_path / "state"
    head, _ = DurableOnlineService.open(
        directory, mode="create", rate=RATE, admission=True,
        snapshot_every=50, sink=io.StringIO(),
    )
    head.ingest(lines[:cut])
    head.wal.close()  # crash: a snapshot at line 50 and a WAL tail
    _set_incremental_key(directory, value)

    out = io.StringIO()
    recovered, report = DurableOnlineService.open(
        directory, mode="recover", sink=out
    )
    assert report.snapshot_seq == 50 and report.replayed == cut - 50
    recovered.serve(iter(lines[cut:]))
    tail = out.getvalue().splitlines(keepends=True)
    assert len(tail) > len(lines) - cut
    assert tail == stream.splitlines(keepends=True)[-len(tail):]
    assert recovered.engine.export_state() == uninterrupted.export_state()
