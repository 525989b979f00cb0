"""Routing is a pure, stable function — the failover proof rests on it."""

import io
import json
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.online import JsonlSink, ShardedOnlineCluster
from repro.online.cluster import ShardRouter, shard_for
from repro.online.service import decode_line


def _arrival(session, t=1.0):
    return json.dumps(
        {"kind": "arrival", "session": session, "time": t, "amount": 1.0}
    )


class TestShardFor:
    def test_crc32_modulo(self):
        assert shard_for("alice", 4) == (
            zlib.crc32(b"alice") & 0xFFFFFFFF
        ) % 4

    def test_single_shard_absorbs_everything(self):
        assert shard_for("anything", 1) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValidationError):
            shard_for("x", 0)

    @given(st.text(max_size=40), st.integers(min_value=1, max_value=64))
    def test_always_in_range(self, key, n):
        assert 0 <= shard_for(key, n) < n

    @given(st.text(max_size=40), st.integers(min_value=1, max_value=64))
    def test_keys_without_surrogates_keep_their_shard(self, key, n):
        # The plain UTF-8 hash every such key was routed by.
        plain = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
        assert shard_for(key, n) == plain % n

    @pytest.mark.parametrize(
        "key", ["\ud800", "a\udfffb", "\udc80"], ids=["hi", "mid", "lo"]
    )
    def test_lone_surrogate_key_routes(self, key):
        data = key.encode("utf-8", "surrogatepass")
        assert shard_for(key, 4) == (zlib.crc32(data) & 0xFFFFFFFF) % 4


class TestRoute:
    def test_keyed_records_route_to_one_shard(self):
        router = ShardRouter(4)
        line = _arrival("alice")
        assert router.route(line) == (shard_for("alice", 4),)

    def test_session_and_name_keys_agree(self):
        router = ShardRouter(8)
        arrival = _arrival("bob")
        join = json.dumps(
            {"kind": "join", "name": "bob", "time": 0.0, "phi": 1.0}
        )
        assert router.route(arrival) == router.route(join)

    def test_empty_line_broadcasts(self):
        router = ShardRouter(3)
        assert router.route("") == (0, 1, 2)
        assert router.route("   \n") == (0, 1, 2)

    def test_capacity_broadcasts(self):
        router = ShardRouter(3)
        line = json.dumps(
            {"kind": "capacity", "time": 5.0, "capacity": 2.0}
        )
        assert router.route(line) == (0, 1, 2)

    def test_malformed_line_routes_to_exactly_one_shard(self):
        router = ShardRouter(5)
        targets = router.route("this is not json")
        assert len(targets) == 1
        assert targets == (shard_for("this is not json", 5),)

    def test_keyless_record_routes_to_exactly_one_shard(self):
        router = ShardRouter(5)
        line = json.dumps({"kind": "arrival", "time": 1.0})
        assert len(router.route(line)) == 1

    def test_routing_is_deterministic_across_instances(self):
        lines = [_arrival(f"s{i}") for i in range(50)]
        a, b = ShardRouter(7), ShardRouter(7)
        assert [a.route(line) for line in lines] == [
            b.route(line) for line in lines
        ]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValidationError):
            ShardRouter(0)


class TestPartition:
    def test_partition_matches_route(self):
        router = ShardRouter(3)
        lines = [
            _arrival("a"),
            "",
            _arrival("b"),
            "garbage",
            json.dumps({"kind": "capacity", "time": 1.0, "capacity": 2.0}),
            _arrival("c"),
        ]
        parts = router.partition(lines)
        rebuilt = [[] for _ in range(3)]
        for line in lines:
            for index in router.route(line):
                rebuilt[index].append(line)
        assert [list(p) for p in parts] == rebuilt

    def test_every_line_lands_somewhere(self):
        router = ShardRouter(4)
        lines = [_arrival(f"s{i}") for i in range(100)]
        parts = router.partition(lines)
        assert sum(len(p) for p in parts) == 100

    def test_assignments_cover_each_line_once(self):
        router = ShardRouter(3)
        lines = [_arrival("a"), "", _arrival("b"), "oops"]
        assignments = router.assignments(lines)
        assert [seq for seq, _ in assignments] == [1, 2, 3, 4]
        # broadcast lines target every shard, keyed/keyless exactly one
        assert len(assignments[1][1]) == 3
        assert len(assignments[0][1]) == 1
        for _, targets in assignments:
            assert len(set(targets)) == len(targets)

    @given(
        st.lists(
            st.sampled_from(
                [_arrival("a"), _arrival("b"), "", "junk"]
            ),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_partition_sizes_consistent_with_assignments(
        self, lines, n
    ):
        router = ShardRouter(n)
        parts = router.partition(lines)
        assignments = router.assignments(lines)
        per_shard = [0] * n
        for _, targets in assignments:
            for t in targets:
                per_shard[t] += 1
        assert [len(p) for p in parts] == per_shard


class TestCapacityWithKey:
    """A capacity line broadcasts even when it carries a session key:
    ``event_from_record`` accepts it as a capacity event, so every
    shard must apply it."""

    LINES = (
        '{"kind":"capacity","time":1.0,"capacity":0.5,"name":"ops"}',
        '{"kind":"capacity","time":1.0,"capacity":0.5,"session":"ops"}',
    )

    @pytest.mark.parametrize("line", LINES)
    def test_route_broadcasts(self, line):
        router = ShardRouter(4)
        assert router.route(line) == (0, 1, 2, 3)
        assert router.route(line, decode_line(line)) == (0, 1, 2, 3)
        assert all(line in part for part in router.partition([line]))

    @pytest.mark.parametrize("line", LINES)
    def test_every_shard_applies_it(self, tmp_path, line):
        out = io.StringIO()
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path / "cluster",
            mode="create",
            num_shards=4,
            rate=1.0,
            sink=JsonlSink(out),
            snapshot_every=0,
        )
        cluster.ingest([line])
        assert [h.service.engine.capacity for h in cluster.handles] == [
            0.5
        ] * 4
        cluster.shutdown()
        records = [json.loads(r) for r in out.getvalue().splitlines()]
        applied = {
            r["shard"]: r["capacity"]
            for r in records
            if r["kind"] == "capacity"
        }
        assert applied == {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}


class TestLoneSurrogateKey:
    """``"\\ud800"`` decodes to a lone surrogate, which strict UTF-8
    cannot encode; a single service accepts the line, so a cluster must
    too."""

    LINES = (
        '{"kind":"join","time":0.0,"name":"\\ud800","phi":1.0}',
        '{"kind":"arrival","time":0.0,"session":"\\ud800","amount":1.0}',
        '{"kind":"leave","time":1.0,"name":"\\ud800"}',
    )

    def test_route_and_partition_accept_it(self):
        router = ShardRouter(4)
        target = (shard_for("\ud800", 4),)
        for line in self.LINES:
            assert router.route(line) == target
            assert router.route(line, decode_line(line)) == target
        parts = router.partition(self.LINES)
        assert parts[target[0]] == list(self.LINES)

    def test_cluster_serves_it(self, tmp_path):
        out = io.StringIO()
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path / "cluster",
            mode="create",
            num_shards=4,
            rate=1.0,
            sink=JsonlSink(out),
            snapshot_every=0,
        )
        for line in self.LINES:
            cluster.ingest((line,))
        cluster.shutdown()
        records = [json.loads(r) for r in out.getvalue().splitlines()]
        served = [
            (r["shard"], r["kind"])
            for r in records
            if r.get("session") == "\ud800"
        ]
        shard = shard_for("\ud800", 4)
        assert served == [
            (shard, "join"), (shard, "arrival"), (shard, "leave")
        ]
        assert not any(r["kind"] == "error" for r in records)


#: Lines covering every routing rule and its edge cases.
_ROUTED_LINES = st.one_of(
    st.sampled_from(
        [
            "",
            "  \t ",
            "null",
            "[1,2]",
            "{}",
            "{not json",
            '"just a string"',
            '{"kind":"capacity","time":1.0,"capacity":2.0}',
            '{"kind":"capacity","time":1.0,"capacity":2.0,"name":"k"}',
            '{"kind":"arrival","time":1.0,"amount":1.0}',
            '{"kind":"arrival","session":7,"name":"fallback"}',
            '{"kind":"join","session":null,"name":"fallback"}',
            '  {"kind":"join","name":"padded","time":0.0,"phi":1.0}  ',
            '{"kind":"\\ud800","time":1.0}',
        ]
    ),
    st.builds(_arrival, st.text(max_size=12)),
    st.builds(
        lambda name, kind: json.dumps({"kind": kind, "name": name}),
        st.text(max_size=12),
        st.sampled_from(["join", "leave", "renegotiate", "capacity"]),
    ),
    st.text(max_size=20),
)


class TestDecodeOnceAgreement:
    @given(_ROUTED_LINES, st.integers(min_value=1, max_value=8))
    def test_route_with_payload_equals_route(self, line, n):
        """The cluster's decode-once call and the pure form agree."""
        router = ShardRouter(n)
        assert router.route(line, decode_line(line)) == router.route(line)
