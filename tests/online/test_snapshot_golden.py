"""Snapshots of a churning stream stay byte-identical.

``data/snapshot_columns/lines.jsonl`` is served one line per ``ingest``
call by a durable service (``rate=3.0``, ``fsync="batch"``,
``snapshot_every=8``, ``segment_events=12``, no admission).  The
stream holds:

* joins with declared E.B.B. envelopes and QoS targets, a join with an
  envelope only, and undeclared joins;
* renegotiations that change only ``phi``, only ``ebb`` or only
  ``target``, and one that changes all three;
* a leave with residual work, and rejoins of departed names;
* two capacity changes.

``snap-<seq>.json`` is every snapshot the service wrote, and
``segments.json`` the WAL segments left on disk after each one, both
produced by the code that kept one ``SessionInfo`` object per active
session.  Keeping active-session fields in columns must not change a
byte of a snapshot, nor which segments pruning removes.

Those snapshots also carry the history an engine kept back then: the
per-slot total-backlog trace, the decision log, the per-slot
per-session snapshots and every departed session's record.  A snapshot
now holds live state only, so each one must equal its golden document
with the history removed and the live scalars derived from the golden
itself (:func:`_live_state`), re-encoded by the snapshot encoder.  The
goldens are not regenerated.
"""

import json
from pathlib import Path

import pytest

from repro.online import OnlineService, StreamingGPSServer
from repro.online.durability import DurableOnlineService, SnapshotStore
from repro.online.durability.snapshot import _decode, _encode

FIXTURE = Path(__file__).parent / "data" / "snapshot_columns"
RATE = 3.0
CONFIG = {"fsync": "batch", "snapshot_every": 8, "segment_events": 12}


def _lines():
    return (FIXTURE / "lines.jsonl").read_text().splitlines(keepends=True)


def _segments(directory):
    return sorted(p.name for p in Path(directory).glob("wal-*.log"))


def _live_state(document):
    """A golden snapshot document as live state: the history fields
    removed, the running totals derived from them in order."""
    engine = dict(document["engine"])
    for key in ("decisions", "backlog_snapshots", "served_snapshots"):
        assert engine.pop(key) == []
    trace = engine.pop("total_backlog_trace")
    engine["last_total_backlog"] = trace[-1] if trace else 0.0
    engine["max_total_backlog"] = max(trace, default=0.0)
    registry = dict(engine["registry"])
    arrived = served = 0.0
    for record in registry.pop("departed"):
        arrived += record["arrived"]
        served += record["served"]
    engine["departed_arrived"] = arrived
    engine["departed_served"] = served
    engine["registry"] = registry
    return {**document, "engine": engine}


def _create(directory):
    service, _ = DurableOnlineService.open(
        directory, mode="create", rate=RATE, **CONFIG
    )
    return service


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Serve the stream; keep each snapshot and the segments after it."""
    directory = tmp_path_factory.mktemp("snapshot_columns") / "state"
    service = _create(directory)
    snapshots, segments = {}, {}
    for lineno, line in enumerate(_lines(), start=1):
        service.ingest((line,))
        if lineno % CONFIG["snapshot_every"] == 0:
            name = f"snap-{lineno:016d}.json"
            snapshots[name] = (directory / name).read_bytes()
            segments[str(lineno)] = _segments(directory)
    service.wal.close()
    return snapshots, segments


@pytest.fixture(scope="module")
def uninterrupted():
    service = OnlineService(StreamingGPSServer(rate=RATE))
    service.ingest(iter(_lines()))
    return service.engine.export_state()


def test_fixture_covers_the_stream():
    records = [json.loads(line) for line in _lines()]
    kinds = [record["kind"] for record in records]
    assert {"join", "renegotiate", "leave", "arrival", "capacity"} <= set(
        kinds
    )
    joins = [r for r in records if r["kind"] == "join"]
    assert any(r["ebb"] and r["target"] for r in joins)
    assert any(r["ebb"] and not r["target"] for r in joins)
    assert any(not r["ebb"] for r in joins)
    changed = [
        {key for key in ("phi", "ebb", "target") if key in r}
        for r in records
        if r["kind"] == "renegotiate"
    ]
    for key in ("phi", "ebb", "target"):
        assert {key} in changed
    left = {r["name"] for r in records if r["kind"] == "leave"}
    rejoined = [
        r["name"]
        for k, r in enumerate(records)
        if r["kind"] == "join"
        and any(
            p["kind"] == "leave" and p["name"] == r["name"]
            for p in records[:k]
        )
    ]
    assert rejoined and set(rejoined) <= left
    newest = json.loads(
        (FIXTURE / "snap-0000000000000064.json").read_bytes()[9:]
    )
    departed = newest["engine"]["registry"]["departed"]
    assert any(record["residual"] > 0.0 for record in departed)


def test_every_snapshot_is_byte_identical(served):
    snapshots, _ = served
    expected = sorted(p.name for p in FIXTURE.glob("snap-*.json"))
    assert sorted(snapshots) == expected
    for name, data in snapshots.items():
        golden = _decode((FIXTURE / name).read_bytes())
        assert golden["engine"]["total_backlog_trace"], name
        assert data == _encode(_live_state(golden)), name


def test_pruning_leaves_the_same_segments(served):
    _, segments = served
    expected = json.loads((FIXTURE / "segments.json").read_text())
    assert segments == expected
    # Pruning ran: some segment was removed along the way.
    assert "wal-0000000000000001.log" not in segments[max(segments, key=int)]


@pytest.mark.parametrize("stop", [20, 40, 70])
def test_recovery_equals_an_uninterrupted_run(tmp_path, uninterrupted, stop):
    lines = _lines()
    directory = tmp_path / "state"
    service = _create(directory)
    service.ingest(lines[:stop])
    service.wal.close()  # crash: no shutdown
    recovered, report = DurableOnlineService.open(directory, mode="recover")
    assert report.applied_seq == stop
    assert report.snapshot_seq == stop - stop % CONFIG["snapshot_every"]
    recovered.ingest(lines[stop:])
    assert recovered.engine.export_state() == uninterrupted
    recovered.wal.close()


def test_corrupt_oldest_snapshot_does_not_anchor_pruning(tmp_path):
    lines = _lines()
    directory = tmp_path / "state"
    service = _create(directory)
    service.ingest(lines[:32])
    # Retained: snap-24 and snap-32.  The write at 40 drops snap-24 and
    # leaves snap-32 as the oldest, so corrupt that one.
    (directory / "snap-0000000000000032.json").write_bytes(
        b"00000000 {\"torn\":"
    )
    service.ingest(lines[32:40])
    assert SnapshotStore(directory).oldest_seq() == 40
    # The horizon is snap-40, not the corrupt snap-32: the segment
    # 25-36 is gone, though an intact snap-32 would have kept it
    # (segments.json lists it after snapshot 40).
    assert _segments(directory) == ["wal-0000000000000037.log"]
    service.wal.close()
    recovered, report = DurableOnlineService.open(directory, mode="recover")
    assert report.snapshot_seq == 40
    assert report.replayed == 0
    recovered.ingest(lines[40:])
    intact = _create(tmp_path / "intact")
    intact.ingest(lines)
    assert recovered.engine.export_state() == intact.engine.export_state()
    recovered.wal.close()
    intact.wal.close()


def test_snapshots_read_back_only_when_a_segment_can_go(tmp_path, monkeypatch):
    calls = []
    original = SnapshotStore.oldest_seq

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SnapshotStore, "oldest_seq", counting)
    service, _ = DurableOnlineService.open(
        tmp_path / "state",
        mode="create",
        rate=RATE,
        fsync="batch",
        snapshot_every=8,
        segment_events=40,
    )
    service.ingest(_lines()[:40])
    # Snapshots at 8..32 see only the open segment; at 40 the first
    # segment (1-40) is still open too, so nothing is ever read back.
    assert calls == []
    service.ingest(_lines()[40:48])
    # Segment 1-40 is sealed with tail 40 <= 48: read back once, and it
    # is pruned to the oldest retained snapshot (40).
    assert len(calls) == 1
    assert _segments(tmp_path / "state") == ["wal-0000000000000041.log"]
    service.wal.close()
