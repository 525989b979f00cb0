"""The sharded serving path stays byte-identical on a mixed stream.

``data/cluster_mixed/lines.jsonl`` is served one line per ``ingest``
call (as ``repro serve`` on a pipe hands it over) by a 4-shard cluster
at ``rate=1.0`` with ``fsync="batch"``, no snapshots, shard heartbeats
every 5 lines and cluster heartbeats every 16 ticks.  The stream mixes:

* blank and whitespace-only lines (broadcast heartbeat ticks);
* malformed JSON, ``null``, ``[1,2]``, a keyless arrival and ``{}``;
* keyless capacity broadcasts;
* joins, renegotiations, leaves and arrivals, including duplicate
  joins, unknown sessions and a negative amount;
* session names with raw non-ASCII characters, JSON escapes (``\\u00e9``,
  ``\\"``, ``\\\\``, ``\\t``) and lines padded with spaces;
* ``\\ud800`` escapes in a keyless kind and in an extra field.

``records.jsonl`` is the merged record stream and ``shard-<i>.wal`` the
bytes of shard ``i``'s WAL segment, both written by the code that
decoded every line twice and framed WAL entries through ``json.dumps``.
Decoding once and framing directly must not change a byte.
"""

import io
import json
from pathlib import Path

import pytest

from repro.online import JsonlSink, ShardedOnlineCluster

FIXTURE = Path(__file__).parent / "data" / "cluster_mixed"
NUM_SHARDS = 4


def _lines():
    text = (FIXTURE / "lines.jsonl").read_text(encoding="utf-8")
    return text.split("\n")[:-1]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster_mixed") / "cluster"
    stream = io.StringIO()
    cluster, _ = ShardedOnlineCluster.open(
        root,
        mode="create",
        num_shards=NUM_SHARDS,
        rate=1.0,
        sink=JsonlSink(stream),
        fsync="batch",
        snapshot_every=0,
        heartbeat_every=5,
        cluster_heartbeat_every=16,
    )
    for line in _lines():
        cluster.ingest((line,))
    cluster.shutdown()
    return cluster, stream.getvalue()


def test_record_stream_is_byte_identical(served):
    _, stream = served
    assert stream == (FIXTURE / "records.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("index", range(NUM_SHARDS))
def test_wal_segment_is_byte_identical(served, index):
    cluster, _ = served
    segments = sorted(Path(cluster.handles[index].directory).glob("wal-*.log"))
    assert len(segments) == 1
    expected = (FIXTURE / f"shard-{index}.wal").read_bytes()
    assert segments[0].read_bytes() == expected


def test_fixture_covers_the_mix():
    lines = _lines()
    assert "" in lines and any(line and not line.strip() for line in lines)
    for literal in ("null", "[1,2]", "{}", "{not json"):
        assert literal in lines
    assert any("\\ud800" in line for line in lines)
    assert any(not line.isascii() for line in lines)
    assert any("\\u00e9" in line for line in lines)
    records = [
        json.loads(line)
        for line in (FIXTURE / "records.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
    ]
    kinds = {record["kind"] for record in records}
    assert {
        "join",
        "renegotiate",
        "leave",
        "arrival",
        "capacity",
        "error",
        "heartbeat",
        "cluster-heartbeat",
        "summary",
        "cluster-summary",
    } <= kinds
    capacity_shards = {
        record["shard"] for record in records if record["kind"] == "capacity"
    }
    assert capacity_shards == set(range(NUM_SHARDS))
    # The capacity-with-key line (routed to one shard by older code)
    # is deliberately absent: this stream routes the same either way.
    for line in lines:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and payload.get("kind") == "capacity":
            assert "session" not in payload and "name" not in payload
