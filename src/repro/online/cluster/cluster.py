"""The sharded serving fleet: routing, supervision, and drain in one loop.

:class:`ShardedOnlineCluster` splits one JSONL ingest stream across
``N`` durable shards (each an independent
:class:`repro.online.durability.service.DurableOnlineService` with its
own WAL directory ``shard-NNN/``), keeps the fleet alive through a
:class:`repro.online.cluster.supervisor.ShardSupervisor`, and merges
every shard's output — tagged ``"shard": i`` — into one sink.

The cluster root is self-describing, mirroring the single-shard
layout: a checksummed ``cluster.json`` records the shard count and the
full serving configuration, so ``repro cluster-recover`` needs nothing
but the directory.  Construct via
:meth:`ShardedOnlineCluster.open` with ``mode="create"`` /
``"recover"`` / ``"attach"``.

Failure semantics
-----------------
While a shard is down its traffic is *buffered* (bounded, with
high/low-watermark shedding — typed ``shed`` records carry the shard
index) and replayed on readmission, so a recovered cluster's per-shard
state is ``np.array_equal`` to an uninterrupted run over
:meth:`repro.online.cluster.routing.ShardRouter.partition` of the same
lines.  The degraded-mode buffers live in memory: a *process*-level
kill of the whole cluster loses them, but never loses acknowledged
lines — those are in the shards' WALs, and recovery resurrects exactly
the acknowledged prefix of each shard's substream.

Shutdown is graceful: the drain first force-restarts any shard that is
still down, flushes its buffer, then drains every engine and emits the
per-shard summaries plus one final ``cluster-summary`` record.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable

from repro.errors import ClusterError, RecoveryError, ValidationError
from repro.online.cluster.routing import ShardRouter
from repro.online.cluster.shard import (
    DOWN,
    RUNNING,
    STOPPED,
    ShardHandle,
    shard_directory,
)
from repro.online.cluster.supervisor import ShardSupervisor
from repro.online.durability.service import (
    _FRESH_REPORT,
    DurableOnlineService,
    RecoveryReport,
)
from repro.online.durability.snapshot import _decode, _encode
from repro.online.durability.wal import _fsync_dir
from repro.online.engine import OnlineResult
from repro.online.factory import check_open_mode, check_recover_overrides
from repro.online.records import RecordSink, TaggedSink, as_record_sink
from repro.online.service import decode_line
from repro.utils.retry import RetryPolicy

__all__ = ["ClusterResult", "ShardedOnlineCluster"]

_CLUSTER_META = "cluster.json"
_CLUSTER_FORMAT = 1

#: Cluster-level configuration persisted in ``cluster.json`` alongside
#: the per-shard serving config (any
#: :data:`repro.online.durability.service._CONFIG_DEFAULTS` key).
_CLUSTER_DEFAULTS: dict[str, Any] = {
    "num_shards": None,  # required at creation
    "rate": None,  # required at creation
    "buffer_limit": 100_000,
    "buffer_resume": None,
    "cluster_heartbeat_every": None,
    "max_retries": 8,
    "backoff_base": 2.0,
    "backoff_cap": 64.0,
}

#: Upper bound on force-restart rounds during a drain; a chaos
#: injector fires each fault once, so a healthy cluster converges long
#: before this.
_DRAIN_ROUNDS = 10_000


def _write_cluster_meta(root: Path, config: dict[str, Any]) -> None:
    document = {"format": _CLUSTER_FORMAT, "config": config}
    encoded = _encode(document)
    root.mkdir(parents=True, exist_ok=True)
    tmp = root / (_CLUSTER_META + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(encoded)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, root / _CLUSTER_META)
    _fsync_dir(root)


def _read_cluster_meta(root: Path) -> dict[str, Any]:
    path = root / _CLUSTER_META
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RecoveryError(
            f"cannot read cluster metadata {path}: {exc}"
        ) from exc
    document = _decode(raw)
    if document is None or document.get("format") != _CLUSTER_FORMAT:
        raise RecoveryError(
            f"cluster metadata {path} is corrupt or has an unsupported "
            "format; refusing to guess the fleet configuration"
        )
    config = dict(document.get("config", {}))
    for key, default in _CLUSTER_DEFAULTS.items():
        config.setdefault(key, default)
    if config["num_shards"] is None or config["rate"] is None:
        raise RecoveryError(
            f"cluster metadata {path} does not declare num_shards/rate"
        )
    return config


@dataclass(frozen=True)
class ClusterResult:
    """Everything a finished cluster run hands back.

    ``results[i]`` is shard ``i``'s final
    :class:`repro.online.engine.OnlineResult`; ``shards`` the final
    health statuses (crash/restart/shed counters included).
    """

    results: tuple[OnlineResult, ...]
    shards: tuple[dict[str, Any], ...]

    def summary(self) -> dict[str, Any]:
        """Fleet-level roll-up of the per-shard summaries."""
        per_shard = [result.summary() for result in self.results]
        return {
            "num_shards": len(self.results),
            "events_processed": sum(
                s["events_processed"] for s in per_shard
            ),
            "crashes": sum(s["crashes"] for s in self.shards),
            "restarts": sum(s["restarts"] for s in self.shards),
            "shed": sum(s["shed"] for s in self.shards),
            "shards": per_shard,
        }


class ShardedOnlineCluster:
    """Route, supervise, and drain a fleet of durable shards.

    Construct via :meth:`ShardedOnlineCluster.open`; the constructor
    wires already-built handles.
    """

    @classmethod
    def open(
        cls,
        root: str | Path,
        *,
        mode: str = "attach",
        num_shards: int | None = None,
        rate: float | None = None,
        sink: "RecordSink | IO[str] | None" = None,
        crash_factory: Any = None,
        io_factory: Any = None,
        **config_overrides: Any,
    ) -> tuple["ShardedOnlineCluster", tuple[RecoveryReport, ...]]:
        """Open a cluster root as a running fleet.

        Every mode returns ``(cluster, reports)`` with one
        :class:`~repro.online.durability.service.RecoveryReport` per
        shard.

        ``mode="create"``
            Initialize a fresh root (``num_shards`` and ``rate``
            required).  ``config_overrides`` may set any cluster key
            (``buffer_limit``, ``max_retries``, ``backoff_base``, ...)
            or any per-shard serving key (``snapshot_every``,
            ``fsync``, ``admission``, ...); ``crash_factory`` maps a
            shard index to a
            :class:`repro.faults.injection.CrashInjector` (or
            ``None``) — the chaos harness's hook, carried across that
            shard's restarts.  ``io_factory`` is the disk-fault
            analogue: it maps a shard index to a
            :class:`repro.faults.io.FaultyFS` (or ``None``) wrapping
            that shard's WAL/snapshot file operations.  An
            already-initialized root raises
            :class:`repro.errors.RecoveryError`.
        ``mode="recover"``
            Rebuild the fleet from the root alone: every shard's WAL
            is recovered to bit-identical state and acknowledged
            counters re-anchored at its ``applied_seq``.
            ``num_shards``/``rate`` act as cross-checks; overrides are
            rejected.
        ``mode="attach"`` (default)
            Create-or-recover, the idempotent path behind
            ``repro serve --shards``.
        """
        check_open_mode(mode)
        root = Path(root)
        base = as_record_sink(sink)
        if mode == "recover":
            check_recover_overrides(config_overrides)
        if mode == "recover" or (
            mode == "attach" and (root / _CLUSTER_META).exists()
        ):
            # Attach tolerates creation-time overrides — they apply
            # only on the creation branch — but still cross-checks the
            # fleet shape against the recorded configuration.
            _check_recorded_fleet(root, num_shards, rate)
            return _recover_cluster(
                root,
                sink=base,
                crash_factory=crash_factory,
                io_factory=io_factory,
            )
        if num_shards is None or rate is None:
            if mode == "create":
                raise ValidationError(
                    "mode='create' requires num_shards= and rate="
                )
            raise RecoveryError(
                f"{root} holds no cluster and no num_shards=/rate= were "
                "given to create one"
            )
        cluster = _create_cluster(
            root,
            num_shards=num_shards,
            rate=rate,
            sink=base,
            crash_factory=crash_factory,
            io_factory=io_factory,
            **config_overrides,
        )
        return cluster, (_FRESH_REPORT,) * cluster.num_shards

    def __init__(
        self,
        root: Path,
        handles: list[ShardHandle],
        *,
        sink: RecordSink | IO[str] | None = None,
        cluster_heartbeat_every: int | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        if not handles:
            raise ValidationError("a cluster needs at least one shard")
        if cluster_heartbeat_every is not None and (
            cluster_heartbeat_every < 1
        ):
            raise ValidationError(
                "cluster_heartbeat_every must be >= 1, got "
                f"{cluster_heartbeat_every}"
            )
        self._root = Path(root)
        self._handles = handles
        self._router = ShardRouter(len(handles))
        self._sink = as_record_sink(sink)
        self._heartbeat_every = cluster_heartbeat_every
        self._supervisor = ShardSupervisor(
            handles, policy=policy, emit=self._emit
        )
        self._global_seq = 0

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self._handles)

    @property
    def router(self) -> ShardRouter:
        """The (pure) session-key router."""
        return self._router

    @property
    def supervisor(self) -> ShardSupervisor:
        """The shard lifecycle supervisor."""
        return self._supervisor

    @property
    def handles(self) -> list[ShardHandle]:
        """The per-shard bookkeeping handles."""
        return self._handles

    @property
    def global_seq(self) -> int:
        """Global sequence number of the last routed line."""
        return self._global_seq

    def _emit(self, record: dict[str, Any]) -> None:
        self._sink.emit(record)

    def _heartbeat(self, tick: int) -> None:
        if (
            self._heartbeat_every is None
            or tick % self._heartbeat_every != 0
        ):
            return
        self._emit(
            {
                "kind": "cluster-heartbeat",
                "tick": tick,
                "shards": [h.status() for h in self._handles],
            }
        )

    # ------------------------------------------------------------------
    def ingest(self, lines: Iterable[str]) -> None:
        """Route a line stream across the fleet without draining.

        Each line is decoded once: the router and every target shard
        share the decoded value.  Global sequence numbering continues
        across calls.  A shard crash inside a delivery marks that shard
        down and schedules its restart; subsequent lines for it buffer
        (or shed) until the supervisor readmits it.
        """
        for line in lines:
            self._global_seq += 1
            tick = self._global_seq
            self._supervisor.poll(tick)
            payload = decode_line(line)
            for index in self._router.route(line, payload):
                handle = self._handles[index]
                if handle.state == RUNNING:
                    self._supervisor.deliver(handle, tick, line, payload)
                elif handle.state == DOWN:
                    if not handle.enqueue(tick, line):
                        self._emit(
                            {
                                "kind": "shed",
                                "shard": handle.index,
                                "line": tick,
                                "buffered": len(handle.buffer),
                                "degraded": True,
                            }
                        )
                else:
                    raise ClusterError(
                        f"shard {handle.index} is {handle.state!r}; "
                        "the fleet cannot accept traffic",
                        shard=handle.index,
                    )
            self._heartbeat(tick)

    def serve(self, lines: Iterable[str]) -> ClusterResult:
        """Ingest until the stream ends (or Ctrl-C), then drain."""
        try:
            self.ingest(lines)
        except KeyboardInterrupt:
            pass
        return self.shutdown()

    def shutdown(self) -> ClusterResult:
        """Graceful cluster drain.

        Force-restarts every downed shard (ignoring backoff), flushes
        the degraded-mode buffers, then drains each engine and emits
        per-shard summaries plus a final ``cluster-summary`` record.
        """
        tick = self._global_seq
        for _ in range(_DRAIN_ROUNDS):
            pending = [
                h
                for h in self._handles
                if h.state == DOWN or h.buffer or h.inflight
            ]
            if not pending:
                break
            for handle in pending:
                if handle.state == DOWN:
                    self._supervisor.restart(handle, tick, force=True)
        else:
            raise ClusterError(
                f"cluster drain did not converge after {_DRAIN_ROUNDS} "
                "restart rounds; a shard keeps crashing"
            )
        results = []
        statuses = []
        for handle in self._handles:
            if handle.service is None:
                raise ClusterError(
                    f"shard {handle.index} has no live service at "
                    "drain time",
                    shard=handle.index,
                )
            results.append(handle.service.shutdown())
            handle.state = STOPPED
            statuses.append(handle.status())
        result = ClusterResult(
            results=tuple(results), shards=tuple(statuses)
        )
        self._emit(
            {"kind": "cluster-summary", "summary": result.summary()}
        )
        self._sink.flush()
        return result


# ----------------------------------------------------------------------
# construction / recovery entry points
# ----------------------------------------------------------------------
def _split_config(
    overrides: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    cluster = {
        key: overrides.pop(key)
        for key in list(overrides)
        if key in _CLUSTER_DEFAULTS
    }
    return cluster, overrides


def _build_handles(
    root: Path,
    config: dict[str, Any],
    *,
    sink: RecordSink,
    crash_factory: Any,
    io_factory: Any = None,
) -> list[ShardHandle]:
    handles = []
    for index in range(int(config["num_shards"])):
        handles.append(
            ShardHandle(
                index,
                shard_directory(root, index),
                buffer_limit=int(config["buffer_limit"]),
                buffer_resume=config["buffer_resume"],
                crash=(
                    crash_factory(index)
                    if crash_factory is not None
                    else None
                ),
                sink=TaggedSink(sink, shard=index),
                io=(
                    io_factory(index)
                    if io_factory is not None
                    else None
                ),
            )
        )
    return handles


def _build_cluster(
    root: Path,
    config: dict[str, Any],
    handles: list[ShardHandle],
    *,
    sink: RecordSink,
) -> ShardedOnlineCluster:
    policy = RetryPolicy(
        max_retries=int(config["max_retries"]),
        base=float(config["backoff_base"]),
        cap=float(config["backoff_cap"]),
    )
    return ShardedOnlineCluster(
        root,
        handles,
        sink=sink,
        cluster_heartbeat_every=config["cluster_heartbeat_every"],
        policy=policy,
    )


def _create_cluster(
    root: Path,
    *,
    num_shards: int,
    rate: float,
    sink: RecordSink,
    crash_factory: Any,
    io_factory: Any = None,
    **config_overrides: Any,
) -> ShardedOnlineCluster:
    if num_shards < 1:
        raise ValidationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    if (root / _CLUSTER_META).exists():
        raise RecoveryError(
            f"{root} already contains a cluster; open it with "
            "mode='recover' (or `repro cluster-recover`) instead of "
            "re-creating it"
        )
    cluster_overrides, shard_overrides = _split_config(
        dict(config_overrides)
    )
    config = dict(_CLUSTER_DEFAULTS)
    config.update(cluster_overrides)
    config["num_shards"] = int(num_shards)
    config["rate"] = float(rate)
    config["shard_config"] = dict(shard_overrides)
    _write_cluster_meta(root, config)
    handles = _build_handles(
        root,
        config,
        sink=sink,
        crash_factory=crash_factory,
        io_factory=io_factory,
    )
    for handle in handles:
        service, _ = DurableOnlineService.open(
            handle.directory,
            mode="create",
            rate=float(config["rate"]),
            sink=handle.sink,
            crash=handle.crash,
            io=handle.io,
            **shard_overrides,
        )
        handle.attach(service)
    return _build_cluster(root, config, handles, sink=sink)


def _recover_cluster(
    root: Path,
    *,
    sink: RecordSink,
    crash_factory: Any,
    io_factory: Any = None,
) -> tuple[ShardedOnlineCluster, tuple[RecoveryReport, ...]]:
    config = _read_cluster_meta(root)
    handles = _build_handles(
        root,
        config,
        sink=sink,
        crash_factory=crash_factory,
        io_factory=io_factory,
    )
    reports = []
    for handle in handles:
        service, report = DurableOnlineService.open(
            handle.directory,
            mode="recover",
            sink=handle.sink,
            crash=handle.crash,
            io=handle.io,
        )
        handle.acked = service.applied_seq
        handle.attach(service)
        reports.append(report)
    cluster = _build_cluster(root, config, handles, sink=sink)
    return cluster, tuple(reports)


def _check_recorded_fleet(
    root: Path, num_shards: int | None, rate: float | None
) -> None:
    config = _read_cluster_meta(root)
    if num_shards is not None and int(num_shards) != int(
        config["num_shards"]
    ):
        raise RecoveryError(
            f"requested {num_shards} shards but {root} records "
            f"{config['num_shards']}; resharding is not supported "
            "— recover with the recorded shard count"
        )
    if rate is not None and float(rate) != float(config["rate"]):
        raise RecoveryError(
            f"requested rate {float(rate):g} contradicts the "
            f"recorded rate {float(config['rate']):g} in {root}"
        )
