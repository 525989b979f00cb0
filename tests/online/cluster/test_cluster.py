"""The sharded cluster: healthy-path equivalence, degraded mode, metadata."""

import io
import json

import numpy as np
import pytest

from repro.errors import ClusterError, RecoveryError, ValidationError
from repro.faults import CrashFault, CrashInjector, FaultSchedule
from repro.online import (
    JsonlSink,
    OnlineService,
    ShardedOnlineCluster,
    ShardRouter,
    StreamingGPSServer,
    TaggedSink,
)
from repro.online.cluster.shard import ShardHandle

RATE = 4.0
NAMES = ("a", "b", "c", "d", "e", "f")


def create_cluster(root, **kwargs):
    # Recording shards keep the per-slot total backlog the equivalence
    # checks compare.
    kwargs.setdefault("record_traces", True)
    cluster, _ = ShardedOnlineCluster.open(root, mode="create", **kwargs)
    return cluster


def recover_cluster(root, **kwargs):
    return ShardedOnlineCluster.open(root, mode="recover", **kwargs)


def open_cluster(root, **kwargs):
    return ShardedOnlineCluster.open(root, mode="attach", **kwargs)


def _stream(n=80, seed=7):
    lines = [
        json.dumps(
            {"kind": "join", "name": name, "time": 0.0, "phi": 1.0}
        )
        for name in NAMES
    ]
    rng = np.random.default_rng(seed)
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(0.3))
        lines.append(
            json.dumps(
                {
                    "kind": "arrival",
                    "session": NAMES[i % len(NAMES)],
                    "time": t,
                    "amount": float(rng.exponential(0.5)),
                }
            )
        )
        if i == 20:
            lines.append("this line is not json")
        if i == 35:
            lines.append(
                json.dumps(
                    {"kind": "capacity", "time": t, "capacity": 3.0}
                )
            )
        if i % 10 == 0:
            lines.append("")
    return lines


def _assert_matches_partition(lines, result, num_shards):
    """Each shard's final state equals a fresh run over its substream
    (the cluster must be created with ``record_traces=True``)."""
    parts = ShardRouter(num_shards).partition(lines)
    for i, part in enumerate(parts):
        base = OnlineService(
            StreamingGPSServer(rate=RATE, record_traces=True)
        ).serve(part)
        got = result.results[i]
        assert np.array_equal(
            base.total_backlog_trace, got.total_backlog_trace
        ), f"shard {i} backlog trace diverged"
        assert base.summary() == got.summary()


class TestHealthyCluster:
    def test_per_shard_equivalence(self, tmp_path):
        lines = _stream()
        cluster = create_cluster(
            tmp_path, num_shards=3, rate=RATE, snapshot_every=10
        )
        result = cluster.serve(lines)
        assert result.summary()["crashes"] == 0
        _assert_matches_partition(lines, result, 3)

    def test_single_shard_matches_plain_service(self, tmp_path):
        lines = _stream(n=40)
        cluster = create_cluster(tmp_path, num_shards=1, rate=RATE)
        result = cluster.serve(lines)
        base = OnlineService(
            StreamingGPSServer(rate=RATE, record_traces=True)
        ).serve(lines)
        assert np.array_equal(
            base.total_backlog_trace,
            result.results[0].total_backlog_trace,
        )

    def test_records_are_shard_tagged(self, tmp_path):
        lines = _stream(n=30)
        sink = io.StringIO()
        cluster = create_cluster(
            tmp_path, num_shards=3, rate=RATE, sink=sink
        )
        cluster.serve(lines)
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        per_event = [
            r
            for r in records
            if r.get("kind") in ("arrival", "join", "error")
        ]
        assert per_event, "expected per-event records in the sink"
        assert all("shard" in r for r in per_event)
        assert {r["shard"] for r in per_event} <= {0, 1, 2}

    def test_cluster_summary_record_is_emitted(self, tmp_path):
        sink = io.StringIO()
        cluster = create_cluster(
            tmp_path, num_shards=2, rate=RATE, sink=sink
        )
        cluster.serve(_stream(n=20))
        kinds = [
            json.loads(line)["kind"]
            for line in sink.getvalue().splitlines()
        ]
        assert kinds[-1] == "cluster-summary"

    def test_cluster_heartbeat_records(self, tmp_path):
        sink = io.StringIO()
        cluster = create_cluster(
            tmp_path,
            num_shards=2,
            rate=RATE,
            sink=sink,
            cluster_heartbeat_every=10,
        )
        cluster.serve(_stream(n=40))
        beats = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if '"cluster-heartbeat"' in line
        ]
        assert beats
        assert all(len(b["shards"]) == 2 for b in beats)
        assert all(
            s["state"] == "running"
            for b in beats
            for s in b["shards"]
        )


class TestClusterMetadata:
    def test_recreate_is_refused(self, tmp_path):
        create_cluster(tmp_path, num_shards=2, rate=RATE)
        with pytest.raises(RecoveryError, match="already contains"):
            create_cluster(tmp_path, num_shards=2, rate=RATE)

    def test_corrupt_cluster_meta_is_typed(self, tmp_path):
        cluster = create_cluster(tmp_path, num_shards=2, rate=RATE)
        cluster.serve(_stream(n=10))
        meta = tmp_path / "cluster.json"
        meta.write_bytes(b"deadbeef " + meta.read_bytes()[9:])
        with pytest.raises(RecoveryError, match="corrupt"):
            recover_cluster(tmp_path)

    def test_reshard_is_refused(self, tmp_path):
        cluster = create_cluster(tmp_path, num_shards=2, rate=RATE)
        cluster.serve(_stream(n=10))
        with pytest.raises(RecoveryError, match="resharding"):
            open_cluster(tmp_path, num_shards=4)

    def test_rate_mismatch_is_refused(self, tmp_path):
        cluster = create_cluster(tmp_path, num_shards=2, rate=RATE)
        cluster.serve(_stream(n=10))
        with pytest.raises(RecoveryError, match="rate"):
            open_cluster(tmp_path, num_shards=2, rate=RATE + 1.0)

    def test_open_requires_shards_and_rate_for_fresh_root(
        self, tmp_path
    ):
        with pytest.raises(RecoveryError, match="no cluster"):
            open_cluster(tmp_path / "missing")

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            create_cluster(tmp_path, num_shards=0, rate=RATE)


class TestColdRecovery:
    def test_whole_cluster_kill_recovers_acknowledged_state(
        self, tmp_path
    ):
        lines = _stream()
        cluster = create_cluster(
            tmp_path, num_shards=3, rate=RATE, snapshot_every=7
        )
        cluster.ingest(lines[:60])
        applied = [h.service.applied_seq for h in cluster.handles]
        # Simulate kill -9 of the whole process: drop the object,
        # recover from disk alone.
        recovered, reports = recover_cluster(tmp_path)
        assert [
            h.service.applied_seq for h in recovered.handles
        ] == applied
        assert [r.applied_seq for r in reports] == applied
        parts = ShardRouter(3).partition(lines[:60])
        for i, handle in enumerate(recovered.handles):
            base = OnlineService(
                StreamingGPSServer(rate=RATE, record_traces=True)
            )
            base.ingest(parts[i][: handle.service.applied_seq])
            assert np.array_equal(
                np.asarray(
                    base.engine.export_state()["total_backlog_trace"]
                ),
                np.asarray(
                    handle.service.engine.export_state()[
                        "total_backlog_trace"
                    ]
                ),
            ), f"shard {i} recovered state diverged"

    def test_open_cluster_resumes(self, tmp_path):
        lines = _stream(n=40)
        cluster, reports = open_cluster(
            tmp_path, num_shards=2, rate=RATE
        )
        assert all(r.fresh for r in reports)
        cluster.ingest(lines[:30])
        del cluster
        resumed, reports = open_cluster(tmp_path)
        assert not any(r.fresh for r in reports)
        assert sum(r.applied_seq for r in reports) > 0


class TestDegradedMode:
    def _down_shard_cluster(self, tmp_path, buffer_limit=4):
        """A 2-shard cluster whose shard for session 'a' is down."""
        target = ShardRouter(2).route(
            json.dumps(
                {
                    "kind": "arrival",
                    "session": "a",
                    "time": 1.0,
                    "amount": 1.0,
                }
            )
        )[0]
        injector = CrashInjector(
            FaultSchedule([CrashFault(seq=2, point="pre-append")])
        )
        sink = io.StringIO()
        cluster = create_cluster(
            tmp_path,
            num_shards=2,
            rate=RATE,
            sink=sink,
            buffer_limit=buffer_limit,
            backoff_base=64.0,  # keep the shard down for a while
            backoff_cap=64.0,
            crash_factory=lambda i: injector if i == target else None,
        )
        return cluster, sink, target

    def test_buffered_lines_replay_on_readmission(self, tmp_path):
        lines = [
            json.dumps(
                {"kind": "join", "name": "a", "time": 0.0, "phi": 1.0}
            )
        ] + [
            json.dumps(
                {
                    "kind": "arrival",
                    "session": "a",
                    "time": float(t),
                    "amount": 1.0,
                }
            )
            for t in range(1, 80)
        ]
        cluster, sink, target = self._down_shard_cluster(
            tmp_path, buffer_limit=1000
        )
        result = cluster.serve(lines)
        handle = cluster.handles[target]
        assert handle.crashes == 1
        assert handle.restarts >= 1
        # Nothing shed: the buffer replayed every line, so the final
        # state matches the uninterrupted baseline.
        assert result.summary()["shed"] == 0
        _assert_matches_partition(lines, result, 2)

    def test_watermark_shedding_emits_typed_records(self, tmp_path):
        lines = [
            json.dumps(
                {"kind": "join", "name": "a", "time": 0.0, "phi": 1.0}
            )
        ] + [
            json.dumps(
                {
                    "kind": "arrival",
                    "session": "a",
                    "time": float(t),
                    "amount": 1.0,
                }
            )
            for t in range(1, 80)
        ]
        cluster, sink, target = self._down_shard_cluster(
            tmp_path, buffer_limit=4
        )
        result = cluster.serve(lines)
        shed_records = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if '"shed"' in line and '"degraded": true' in line
        ]
        assert shed_records, "expected degraded-mode shed records"
        assert all(r["shard"] == target for r in shed_records)
        assert result.summary()["shed"] == len(shed_records)
        assert cluster.handles[target].shed == len(shed_records)

    def test_buffer_hysteresis(self):
        handle = ShardHandle(
            0, "unused", buffer_limit=4, buffer_resume=1
        )
        outcomes = [handle.enqueue(seq, "line") for seq in range(1, 8)]
        # 4 buffered, then shedding starts
        assert outcomes == [True] * 4 + [False] * 3
        # drain below the low watermark ends the episode
        handle.buffer.clear()
        assert handle.enqueue(8, "line")
        assert not handle.shedding


class TestShardRecordSink:
    def test_tagged_sink_is_the_replacement(self):
        out = io.StringIO()
        sink = TaggedSink(JsonlSink(out), shard=3)
        sink.emit({"kind": "arrival", "line": 1})
        assert json.loads(out.getvalue()) == {
            "kind": "arrival",
            "line": 1,
            "shard": 3,
        }


class TestDrainConvergenceGuard:
    def test_failed_state_refuses_traffic(self, tmp_path):
        cluster = create_cluster(tmp_path, num_shards=1, rate=RATE)
        cluster.handles[0].state = "failed"
        with pytest.raises(ClusterError, match="failed"):
            cluster.ingest(
                [
                    json.dumps(
                        {
                            "kind": "join",
                            "name": "a",
                            "time": 0.0,
                            "phi": 1.0,
                        }
                    )
                ]
            )
