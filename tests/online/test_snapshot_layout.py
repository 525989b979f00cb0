"""Snapshots in the per-session registry layout still recover.

``data/old_layout/state`` is a durable directory written by the code
that stored every active session as a full record (``registry.active``)
instead of the columnar block.  Its WAL segments below the oldest
snapshot are pruned, so those snapshots are the only copy of that
state: recovery must read them, the scrubber must accept them, and the
first snapshot written afterwards must be columnar and verify.

``data/old_layout/lines.jsonl`` holds the 39 lines that were served
(``rate=3.0``, ``fsync="always"``, ``snapshot_every=10``,
``segment_events=5``, no admission): four joins, one of them with an
E.B.B. declaration and QoS target that it later renegotiates; one
plain leave; one declared session that leaves and rejoins; arrivals.
Snapshots cover lines 20 and 30; lines 31-39 are the WAL tail.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.online import OnlineService, StreamingGPSServer
from repro.online.durability import DurableOnlineService, SnapshotStore
from repro.online.durability.snapshot import _decode, _encode
from repro.online.session import SessionRegistry

FIXTURE = Path(__file__).parent / "data" / "old_layout"
RATE = 3.0


def _lines():
    return (FIXTURE / "lines.jsonl").read_text().splitlines(keepends=True)


def _registry_of(snapshot_path):
    raw = snapshot_path.read_bytes()
    return json.loads(raw[9:])["engine"]["registry"]


@pytest.fixture
def state(tmp_path):
    directory = tmp_path / "state"
    shutil.copytree(FIXTURE / "state", directory)
    return directory


@pytest.fixture(scope="module")
def uninterrupted():
    service = OnlineService(StreamingGPSServer(rate=RATE))
    service.ingest(iter(_lines()))
    return service.engine


def _assert_same_registry(got, want):
    for attr in ("phis", "backlog", "pending", "arrived", "served"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert np.array_equal(got.busy_indices(), want.busy_indices())
    assert got.epoch == want.epoch
    assert got.total_backlog() == want.total_backlog()
    assert got.total_pending() == want.total_pending()
    assert got.stats() == want.stats()


def test_fixture_covers_the_old_layout():
    snapshots = sorted((FIXTURE / "state").glob("snap-*.json"))
    assert [p.name for p in snapshots] == [
        "snap-0000000000000020.json",
        "snap-0000000000000030.json",
    ]
    for path in snapshots:
        registry = _registry_of(path)
        assert "active" in registry and "columns" not in registry
    newest = _registry_of(snapshots[-1])
    assert {r["name"] for r in newest["departed"]} == {"c", "d"}
    b = next(r for r in newest["active"] if r["name"] == "b")
    assert b["ebb"] is not None and b["target"] is not None
    assert b["renegotiations"] == 1
    assert len(_lines()) > 30


def test_recover_matches_an_uninterrupted_run(state, uninterrupted):
    recovered, report = DurableOnlineService.open(state, mode="recover")
    assert report.snapshot_seq == 30
    assert report.replayed == len(_lines()) - 30
    _assert_same_registry(
        recovered.engine._registry, uninterrupted._registry
    )
    assert recovered.engine.export_state() == uninterrupted.export_state()
    recovered.wal.close()


def test_meta_with_incremental_false_recovers(state, uninterrupted):
    """``meta.json`` once recorded the admission gate's mode; a
    directory served with ``"incremental": false`` recovers like any
    other (the key is ignored)."""
    meta = state / "meta.json"
    document = _decode(meta.read_bytes())
    assert document["config"]["incremental"] is True
    document["config"]["incremental"] = False
    meta.write_bytes(_encode(document))
    recovered, report = DurableOnlineService.open(state, mode="recover")
    assert report.snapshot_seq == 30
    assert recovered.engine.export_state() == uninterrupted.export_state()
    recovered.wal.close()


def test_scrub_accepts_the_old_layout(state, capsys):
    assert main(["scrub", str(state), "--no-repair"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] and record["snapshots_checked"] == 2
    assert record["corrupt_segments"] == []


def test_next_snapshot_is_columnar_and_verifies(state, uninterrupted):
    recovered, _ = DurableOnlineService.open(state, mode="recover")
    # write() re-imports the encoded document and refuses to commit
    # unless re-exporting gives the same bytes.
    path = recovered.snapshot()
    recovered.wal.close()
    registry = _registry_of(path)
    assert "active" not in registry
    assert registry["columns"]["renegotiations"] == [
        1 if name == "b" else 0 for name in registry["names"]
    ]
    document = SnapshotStore(state).load_newest()
    assert document["applied_seq"] == len(_lines())
    restored = StreamingGPSServer.from_state(document["engine"])
    _assert_same_registry(restored._registry, uninterrupted._registry)
    again, report = DurableOnlineService.open(state, mode="recover")
    assert report.snapshot_seq == len(_lines())
    assert report.replayed == 0
    assert again.engine.export_state() == uninterrupted.export_state()
    again.wal.close()


def test_short_column_is_rejected(uninterrupted):
    state = uninterrupted.export_state()["registry"]
    state["columns"]["ebb"].pop()
    with pytest.raises(ValidationError, match="column 'ebb'"):
        SessionRegistry.from_state(state)
