"""Fault-tolerant sharded serving.

One ingest stream, ``N`` independent durable GPS shards in one
interpreter: pure CRC32 session-key routing
(:mod:`~repro.online.cluster.routing`), per-shard failover bookkeeping
(:mod:`~repro.online.cluster.shard`), the one supervisor, which
restarts crashed shards with deterministic backoff and exactly-once
reconciliation (:mod:`~repro.online.cluster.supervisor`), and the
cluster orchestrator with self-describing on-disk metadata
(:mod:`~repro.online.cluster.cluster`).

Shards are a durability and isolation boundary, not a throughput one:
each has its own WAL, snapshots and crash budget, and a crash in one
leaves the others serving.  A shard in its own OS process is simply
``repro serve - --wal DIR``; SIGKILL it and the next run recovers from
``DIR``.
"""

from repro.online.cluster.cluster import (
    ClusterResult,
    ShardedOnlineCluster,
)
from repro.online.cluster.routing import ShardRouter, shard_for
from repro.online.cluster.shard import (
    ShardHandle,
    shard_directory,
)
from repro.online.cluster.supervisor import ShardSupervisor

__all__ = [
    "ClusterResult",
    "ShardedOnlineCluster",
    "ShardHandle",
    "ShardRouter",
    "ShardSupervisor",
    "shard_directory",
    "shard_for",
]
