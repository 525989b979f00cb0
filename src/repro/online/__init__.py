"""Online streaming GPS engine with live E.B.B. admission control.

The offline simulators materialize a fixed population over a fixed
horizon; this package is the *online* counterpart the paper's
call-admission story asks for:

* :mod:`repro.online.events` — the five-kind event model (capacity,
  join, renegotiate, arrival, leave), a stable heap-based
  :class:`~repro.online.events.EventQueue`, and lossless JSONL trace
  record/replay;
* :mod:`repro.online.session` — the O(active sessions) session
  registry with churn;
* :mod:`repro.online.engine` — the event-driven
  :class:`~repro.online.engine.StreamingGPSServer`, sharing the exact
  water-filling kernel with :mod:`repro.sim.fluid` so replayed traces
  match offline runs bit for bit, and the
  :class:`~repro.online.engine.OnlineResult` summary;
* :mod:`repro.online.admission` — the stateful
  :class:`~repro.online.admission.AdmissionController` re-running the
  feasible ordering and the Theorem 10/11 tail bounds on every
  join/renegotiate request;
* :mod:`repro.online.service` — the long-running JSONL ingestion loop
  behind ``repro serve``, with graceful drain on shutdown, a bounded
  error budget, backlog-watermark load shedding and periodic
  heartbeat records;
* :mod:`repro.online.records` — the typed
  :class:`~repro.online.records.RecordSink` protocol every component
  reports through (JSONL terminal sink, tag-stamping adapter, null
  sink), with the record schema documented in ``docs/ONLINE.md``;
* :mod:`repro.online.durability` — crash safety: the checksummed
  segmented write-ahead log, atomic verified snapshots, and the
  recovery path behind ``repro serve --wal`` / ``repro recover``;
* :mod:`repro.online.cluster` — fault-tolerant sharded serving: pure
  CRC32 session-key routing across N durable shards, a shard
  supervisor with health checks, bounded-backoff failover and
  exactly-once reconciliation, degraded-mode buffering with watermark
  shedding, and real OS-process workers behind
  ``repro serve --shards`` / ``repro cluster-recover``.

Bridge in from a scenario with
:meth:`repro.scenario.Scenario.to_event_stream`.
"""

from repro.online.admission import AdmissionController, AdmissionDecision
from repro.online.cluster import (
    ClusterResult,
    ShardedOnlineCluster,
    ShardRouter,
    ShardSupervisor,
    shard_for,
)
from repro.online.durability import (
    DurableOnlineService,
    RecoveryReport,
    SnapshotStore,
    WriteAheadLog,
)
from repro.online.engine import OnlineResult, StreamingGPSServer
from repro.online.records import (
    JsonlSink,
    NullSink,
    RecordSink,
    TaggedSink,
    as_record_sink,
)
from repro.online.events import (
    ArrivalEvent,
    CapacityEvent,
    Event,
    EventQueue,
    Renegotiate,
    SessionJoin,
    SessionLeave,
    event_from_record,
    event_to_record,
    read_event_stream,
    write_event_stream,
)
from repro.online.service import OnlineService
from repro.online.session import SessionInfo, SessionRegistry

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "OnlineResult",
    "StreamingGPSServer",
    "ArrivalEvent",
    "CapacityEvent",
    "Event",
    "EventQueue",
    "Renegotiate",
    "SessionJoin",
    "SessionLeave",
    "event_from_record",
    "event_to_record",
    "read_event_stream",
    "write_event_stream",
    "OnlineService",
    "SessionInfo",
    "SessionRegistry",
    "RecordSink",
    "JsonlSink",
    "NullSink",
    "TaggedSink",
    "as_record_sink",
    "DurableOnlineService",
    "RecoveryReport",
    "SnapshotStore",
    "WriteAheadLog",
    "ClusterResult",
    "ShardedOnlineCluster",
    "ShardRouter",
    "ShardSupervisor",
    "shard_for",
]
