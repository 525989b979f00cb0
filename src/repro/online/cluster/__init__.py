"""Fault-tolerant sharded serving.

One ingest stream, ``N`` independent durable GPS shards: pure CRC32
session-key routing (:mod:`~repro.online.cluster.routing`), per-shard
failover bookkeeping (:mod:`~repro.online.cluster.shard`), a
supervisor that restarts crashed shards with deterministic backoff and
exactly-once reconciliation (:mod:`~repro.online.cluster.supervisor`),
the cluster orchestrator with self-describing on-disk metadata
(:mod:`~repro.online.cluster.cluster`), and real OS-process workers
with deadness/hangness health checks
(:mod:`~repro.online.cluster.process`,
:mod:`~repro.online.cluster.worker`).
"""

from repro.online.cluster.cluster import (
    ClusterResult,
    ShardedOnlineCluster,
)
from repro.online.cluster.process import (
    ProcessShardSupervisor,
    ShardProcess,
)
from repro.online.cluster.routing import ShardRouter, shard_for
from repro.online.cluster.shard import (
    ShardHandle,
    shard_directory,
)
from repro.online.cluster.supervisor import ShardSupervisor

__all__ = [
    "ClusterResult",
    "ProcessShardSupervisor",
    "ShardedOnlineCluster",
    "ShardHandle",
    "ShardProcess",
    "ShardRouter",
    "ShardSupervisor",
    "shard_directory",
    "shard_for",
]
