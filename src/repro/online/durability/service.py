"""Crash-safe serving: the durable ingestion loop and its recovery path.

:class:`DurableOnlineService` extends the resilient
:class:`repro.online.service.OnlineService` loop with write-ahead
logging and periodic snapshots.  The ingest cycle for line ``seq`` is::

    [pre-append crash point]
    WAL.append(seq, line)          # framed, CRC'd, flushed
    [post-append crash point]
    apply line to the engine       # identical OnlineService logic
    every snapshot_every lines:
        snapshot (tmp → fsync → rename; [mid-snapshot crash point])

Because the *raw line* is logged before anything observes it, a kill
anywhere in the cycle is recoverable:
``DurableOnlineService.open(directory, mode="recover")``
loads the newest valid snapshot, truncates a torn WAL tail, replays
the remaining entries by sequence number (idempotently — entries at or
below the snapshot's ``applied_seq`` are skipped), and hands back a
service whose engine state, admission context and ingest-protection
counters are exactly those of an uninterrupted run over the same
acknowledged lines.  The chaos suite asserts this equivalence with
``np.array_equal`` on the backlog trajectories for kills at every
crash-point class.

The WAL directory is self-describing: a checksummed ``meta.json``
records the serving configuration (rate, admission flags, protection
limits, WAL policy) so ``repro recover`` needs nothing but the
directory.  Replayed per-event records are re-emitted to the sink —
output is at-least-once downstream of the last snapshot; consumers
needing exactly-once must deduplicate on the ``line`` sequence number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable

from repro.errors import DiskPressureError, RecoveryError, ValidationError
from repro.online.admission import AdmissionController
from repro.online.durability.scrub import ScrubReport, scrub_directory
from repro.online.durability.snapshot import SnapshotStore, _decode, _encode
from repro.online.durability.wal import WalEntry, WriteAheadLog, _fsync_dir
from repro.online.durability.writers import parse_fsync_policy
from repro.online.engine import StreamingGPSServer
from repro.online.factory import check_open_mode, check_recover_overrides
from repro.online.records import RecordSink
from repro.online.service import OnlineService, decode_line

__all__ = ["DurableOnlineService", "RecoveryReport"]

_META_NAME = "meta.json"
_META_FORMAT = 1

#: Configuration keys persisted in ``meta.json`` (everything a bare
#: directory needs to rebuild the service).
_CONFIG_DEFAULTS: dict[str, Any] = {
    "rate": None,  # required at creation
    "packet": False,
    "admission": False,
    "diagnostics": True,
    "record_traces": False,
    "strict": False,
    "drain_slots": 100_000,
    "max_errors": None,
    "heartbeat_every": None,
    "shed_backlog": None,
    "shed_resume": None,
    "snapshot_every": 1_000,
    "fsync": "batch",
    "segment_events": 10_000,
    "batch_events": 256,
}


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableOnlineService.open` reconstructed and from where."""

    fresh: bool
    applied_seq: int
    snapshot_seq: int | None
    replayed: int
    truncated_bytes: int

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record (emitted first by ``repro recover``)."""
        return {
            "kind": "recovery",
            "fresh": self.fresh,
            "applied_seq": self.applied_seq,
            "snapshot_seq": self.snapshot_seq,
            "replayed": self.replayed,
            "truncated_bytes": self.truncated_bytes,
        }


#: The report of a freshly created directory (nothing recovered).
_FRESH_REPORT = RecoveryReport(
    fresh=True, applied_seq=0, snapshot_seq=None, replayed=0, truncated_bytes=0
)


def _write_meta(directory: Path, config: dict[str, Any]) -> None:
    document = {"format": _META_FORMAT, "config": config}
    encoded = _encode(document)
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / (_META_NAME + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(encoded)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, directory / _META_NAME)
    _fsync_dir(directory)


def _read_meta(directory: Path) -> dict[str, Any]:
    path = directory / _META_NAME
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RecoveryError(
            f"cannot read WAL metadata {path}: {exc}"
        ) from exc
    document = _decode(raw)
    if document is None or document.get("format") != _META_FORMAT:
        raise RecoveryError(
            f"WAL metadata {path} is corrupt or has an unsupported "
            "format; refusing to guess the serving configuration"
        )
    config = dict(_CONFIG_DEFAULTS)
    # Keys no longer read ride along unused: metadata written while the
    # admission gate had a from-scratch mode records "incremental".
    config.update(document.get("config", {}))
    if config["rate"] is None:
        raise RecoveryError(
            f"WAL metadata {path} does not declare a server rate"
        )
    return config


class DurableOnlineService(OnlineService):
    """An :class:`OnlineService` whose ingest survives process kills.

    Construct via :meth:`DurableOnlineService.open` rather than
    directly — it wires the WAL, the snapshot store and the on-disk
    metadata consistently.

    Parameters (beyond :class:`OnlineService`)
    ------------------------------------------
    wal:
        The recovered :class:`~repro.online.durability.wal.WriteAheadLog`
        every line is appended to before being applied.
    snapshots:
        The :class:`~repro.online.durability.snapshot.SnapshotStore`
        for periodic full-state serialization.
    snapshot_every:
        Take a snapshot after every N applied lines (``None``/0
        disables automatic snapshots; :meth:`snapshot` stays available).
    crash:
        Optional :class:`repro.faults.injection.CrashInjector`; fired
        at the ``pre-append`` / ``post-append`` / ``mid-snapshot``
        points by the chaos harness.
    applied_seq:
        Sequence number already applied to the engine (recovery sets
        this to the snapshot's coverage before replay).
    """

    def __init__(
        self,
        engine: StreamingGPSServer,
        *,
        wal: WriteAheadLog,
        snapshots: SnapshotStore,
        snapshot_every: int | None = 1_000,
        crash: Any = None,
        applied_seq: int = 0,
        io: Any = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(engine, **kwargs)
        if snapshot_every is not None and snapshot_every < 0:
            raise ValidationError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self._wal = wal
        self._snapshots = snapshots
        self._snapshot_every = (
            None if not snapshot_every else int(snapshot_every)
        )
        self._crash = crash
        self._io = io
        self._applied_seq = int(applied_seq)
        self._lineno = int(applied_seq)
        self._replaying = False
        self._disk_pressure = False
        self._disk_dropped = 0

    # ------------------------------------------------------------------
    @property
    def applied_seq(self) -> int:
        """Highest ingest sequence number applied to the engine."""
        return self._applied_seq

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log behind this service."""
        return self._wal

    @property
    def durable_seq(self) -> int:
        """Highest ingest sequence number covered by a completed fsync.

        Every applied line is OS-flushed (process-crash safe); this is
        the stronger power-loss-safe watermark.  It trails the append
        under every policy but ``always``: up to one open window of
        appends waits for the next count-or-age fsync.
        """
        return self._wal.durable_seq

    def wait_durable(self, seq: int) -> bool:
        """Make ingest sequence ``seq`` fsync-covered; return whether it is."""
        return self._wal.wait_durable(seq)

    @property
    def disk_pressure(self) -> bool:
        """Whether the service is currently shedding to disk pressure."""
        return self._disk_pressure

    @property
    def disk_dropped(self) -> int:
        """Lines dropped (never acknowledged) under disk pressure."""
        return self._disk_dropped

    def scrub(self, *, repair: bool = True) -> ScrubReport:
        """Verify CRC frames and snapshot checksums; quarantine/repair.

        Runs the offline scrubber (see
        :mod:`repro.online.durability.scrub`) against this service's
        directory between ingest batches, skipping the segment
        currently accepting appends.  The WAL is synced first so the
        scan sees a consistent tail.
        """
        self._wal.sync()
        return scrub_directory(
            self._wal.directory,
            repair=repair,
            io=self._io,
            active_segment=self._wal.active_segment,
        )

    # ------------------------------------------------------------------
    # the unified factory
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        mode: str = "attach",
        rate: float | None = None,
        sink: RecordSink | IO[str] | None = None,
        crash: Any = None,
        io: Any = None,
        **config_overrides: Any,
    ) -> tuple["DurableOnlineService", RecoveryReport]:
        """Open a WAL directory as a durable service.

        Every mode returns ``(service, report)``.

        ``mode="create"``
            Initialize a fresh directory (``rate`` required;
            ``config_overrides`` may set any
            :data:`meta configuration <_CONFIG_DEFAULTS>` key —
            ``admission``, ``snapshot_every``, ``fsync``, ...).  An
            already-initialized directory raises
            :class:`repro.errors.RecoveryError`; the report is the
            trivial ``fresh=True`` one.
        ``mode="recover"``
            Rebuild from the directory's metadata, newest valid
            snapshot and WAL replay — state bit-identical to the
            uninterrupted run.  ``rate`` is an optional cross-check
            against the recorded configuration; overrides are
            rejected (:class:`repro.errors.ValidationError`).
        ``mode="attach"`` (default)
            Create-or-recover, the idempotent path behind
            ``repro serve --wal``: a bare directory is created, an
            initialized one recovered (with the same ``rate``
            cross-check).
        """
        check_open_mode(mode)
        directory = Path(directory)
        if mode == "recover":
            check_recover_overrides(config_overrides)
        if mode == "recover" or (
            mode == "attach" and (directory / _META_NAME).exists()
        ):
            # Attach tolerates creation-time overrides: they apply only
            # on the creation branch (restart loops pass the same
            # command line whether the directory is fresh or not).
            return _recover(
                directory, sink=sink, crash=crash, expected_rate=rate, io=io
            )
        if rate is None:
            if mode == "create":
                raise ValidationError(
                    "mode='create' requires rate= to size the server"
                )
            raise RecoveryError(
                f"{directory} holds no serving session and no rate= was "
                "given to create one"
            )
        service = _create(
            directory, rate=rate, sink=sink, crash=crash, io=io,
            **config_overrides,
        )
        return service, _FRESH_REPORT

    # ------------------------------------------------------------------
    # service-state capture (snapshot payload alongside the engine)
    # ------------------------------------------------------------------
    def _service_state(self) -> dict[str, Any]:
        return {
            "errors": self._errors,
            "shed": self._shed,
            "heartbeats": self._heartbeats,
            "shedding": self._shedding,
            "lineno": self._lineno,
            "drain_truncated": self._drain_truncated,
            "disk_dropped": self._disk_dropped,
        }

    def _restore_service_state(self, state: dict[str, Any]) -> None:
        self._errors = int(state["errors"])
        self._shed = int(state["shed"])
        self._heartbeats = int(state["heartbeats"])
        self._shedding = bool(state["shedding"])
        self._lineno = int(state["lineno"])
        self._drain_truncated = bool(state["drain_truncated"])
        # Introduced after the first snapshot format shipped: default,
        # don't index, so old snapshots keep restoring.
        self._disk_dropped = int(state.get("disk_dropped", 0))

    # ------------------------------------------------------------------
    # the durable ingest cycle
    # ------------------------------------------------------------------
    def _handle_line(self, lineno: int, line: str, payload: Any) -> None:
        if self._crash is not None:
            self._crash.fire("pre-append", lineno)
        try:
            self._wal.append(lineno, line)
        except DiskPressureError as exc:
            # The partial frame was rolled back; prune everything the
            # retained snapshots cover and retry once before degrading.
            oldest = self._snapshots.oldest_seq()
            pruned = self._wal.prune(oldest) if oldest is not None else 0
            try:
                self._wal.append(lineno, line)
            except DiskPressureError as still:
                self._disk_pressure = True
                self._disk_dropped += 1
                # The line was never logged or acknowledged; hand its
                # sequence number to the next line so the WAL stays
                # contiguous.
                self._lineno = lineno - 1
                self._emit(
                    {
                        "kind": "disk-pressure",
                        "line": lineno,
                        "resumed": False,
                        "dropped": self._disk_dropped,
                        "pruned_segments": pruned,
                        "path": still.path,
                    }
                )
                return
        if self._disk_pressure:
            self._disk_pressure = False
            self._emit(
                {
                    "kind": "disk-pressure",
                    "line": lineno,
                    "resumed": True,
                    "dropped": self._disk_dropped,
                }
            )
        if self._crash is not None:
            self._crash.fire("post-append", lineno)
        super()._handle_line(lineno, line, payload)
        self._applied_seq = lineno
        if (
            self._snapshot_every is not None
            and lineno % self._snapshot_every == 0
        ):
            try:
                self.snapshot()
            except OSError as exc:
                # A failed automatic snapshot must not kill serving:
                # the WAL already holds every acknowledged line, so
                # recovery just replays more of it.  Explicit
                # snapshot() calls still raise.
                self._emit(
                    {
                        "kind": "snapshot-failed",
                        "line": lineno,
                        "error": str(exc),
                    }
                )

    def snapshot(self) -> Path:
        """Commit a snapshot of the current state; prune covered WAL.

        Returns the committed snapshot path.  The write is atomic and
        round-trip-verified (see
        :class:`~repro.online.durability.snapshot.SnapshotStore`);
        WAL segments entirely covered by the oldest *retained*
        snapshot are deleted afterwards.  That horizon is at most the
        sequence just snapshotted, so the retained snapshots are read
        back only when a sealed segment ends at or below it.
        """
        path = self._snapshots.write(
            self._applied_seq,
            self._engine.export_state(),
            self._service_state(),
            crash_hook=self._crash,
        )
        tail = self._wal.oldest_sealed_tail()
        if tail is not None and tail <= self._applied_seq:
            oldest = self._snapshots.oldest_seq()
            if oldest is not None:
                self._wal.prune(oldest)
        return path

    def replay(self, entries: Iterable[WalEntry]) -> int:
        """Re-apply recovered WAL entries past the snapshot coverage.

        Entries at or below :attr:`applied_seq` are skipped (idempotent
        replay); a sequence gap raises
        :class:`repro.errors.RecoveryError`.  Replay runs the plain
        (non-appending) service logic — the entries are already in the
        log — and suppresses automatic snapshots.  Returns the number
        of entries applied.
        """
        replayed = 0
        self._replaying = True
        try:
            for entry in entries:
                if entry.seq <= self._applied_seq:
                    continue
                if entry.seq != self._applied_seq + 1:
                    raise RecoveryError(
                        f"WAL replay gap: entry {entry.seq} follows "
                        f"applied seq {self._applied_seq} — entries "
                        f"{self._applied_seq + 1}..{entry.seq - 1} are "
                        "missing; the log lost acknowledged events"
                    )
                OnlineService._handle_line(
                    self, entry.seq, entry.line, decode_line(entry.line)
                )
                self._applied_seq = entry.seq
                self._lineno = entry.seq
                replayed += 1
        finally:
            self._replaying = False
        return replayed

    def _extra_summary(self) -> dict[str, Any]:
        # Only a degraded run adds the counter: a clean durable run's
        # output stays byte-identical to the plain service's.
        if not self._disk_dropped:
            return {}
        return {"disk_dropped": self._disk_dropped}

    def shutdown(self) -> Any:
        """Drain, emit the summary, and sync/close the WAL."""
        try:
            return super().shutdown()
        finally:
            self._wal.close()


# ----------------------------------------------------------------------
# construction / recovery entry points
# ----------------------------------------------------------------------
def _build_engine(config: dict[str, Any]) -> Any:
    if config.get("packet"):
        # Imported lazily: repro.packet.serving imports this module.
        from repro.packet.serving import PacketStreamEngine

        return PacketStreamEngine(rate=float(config["rate"]))
    admission = None
    if config["admission"]:
        admission = AdmissionController(
            rate=float(config["rate"]),
            diagnostics=bool(config["diagnostics"]),
        )
    return StreamingGPSServer(
        rate=float(config["rate"]),
        admission=admission,
        record_traces=bool(config["record_traces"]),
    )


def _build_service(
    config: dict[str, Any],
    engine: Any,
    wal: WriteAheadLog,
    snapshots: SnapshotStore,
    *,
    sink: IO[str] | None,
    crash: Any,
    applied_seq: int,
    io: Any = None,
) -> DurableOnlineService:
    cls: type[DurableOnlineService] = DurableOnlineService
    if config.get("packet"):
        from repro.packet.serving import DurablePacketService

        cls = DurablePacketService
    return cls(
        engine,
        wal=wal,
        snapshots=snapshots,
        snapshot_every=config["snapshot_every"],
        crash=crash,
        io=io,
        applied_seq=applied_seq,
        sink=sink,
        strict=bool(config["strict"]),
        drain_slots=int(config["drain_slots"]),
        max_errors=config["max_errors"],
        heartbeat_every=config["heartbeat_every"],
        shed_backlog=config["shed_backlog"],
        shed_resume=config["shed_resume"],
    )


def _create(
    directory: Path,
    *,
    rate: float,
    sink: RecordSink | IO[str] | None,
    crash: Any,
    io: Any = None,
    **config_overrides: Any,
) -> DurableOnlineService:
    if (directory / _META_NAME).exists():
        raise RecoveryError(
            f"{directory} already contains a durable serving session; "
            "open it with mode='recover' (or `repro recover`) instead "
            "of re-creating it"
        )
    unknown = set(config_overrides) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ValidationError(
            f"unknown durable-service configuration keys: {sorted(unknown)}"
        )
    config = dict(_CONFIG_DEFAULTS)
    config.update(config_overrides)
    config["rate"] = float(rate)
    if config["packet"] and config["admission"]:
        raise ValidationError(
            "packet serving has no join/leave admission path; "
            "packet=True cannot be combined with admission=True"
        )
    if config["packet"] and config["shed_backlog"] is not None:
        raise ValidationError(
            "packet serving has no slot backlog to shed; packet=True "
            "cannot be combined with shed_backlog"
        )
    # Validate the fsync spec before meta.json is written, so a typo'd
    # policy cannot leave a half-initialized directory behind.
    parse_fsync_policy(str(config["fsync"]))
    _write_meta(directory, config)
    wal = WriteAheadLog(
        directory,
        segment_events=int(config["segment_events"]),
        fsync=str(config["fsync"]),
        batch_events=int(config["batch_events"]),
        io=io,
    )
    entries = wal.recover()
    if entries:
        raise RecoveryError(
            f"{directory} holds {len(entries)} WAL entries but no "
            "metadata; refusing to adopt an unlabelled log"
        )
    snapshots = SnapshotStore(directory, io=io)
    engine = _build_engine(config)
    return _build_service(
        config, engine, wal, snapshots,
        sink=sink, crash=crash, applied_seq=0, io=io,
    )


def _recover(
    directory: Path,
    *,
    sink: RecordSink | IO[str] | None,
    crash: Any,
    expected_rate: float | None,
    io: Any = None,
) -> tuple[DurableOnlineService, RecoveryReport]:
    config = _read_meta(directory)
    if expected_rate is not None and float(expected_rate) != float(
        config["rate"]
    ):
        raise RecoveryError(
            f"requested rate {float(expected_rate):g} contradicts the "
            f"recorded rate {float(config['rate']):g} in {directory}; "
            "refusing to resume with a different server"
        )
    wal = WriteAheadLog(
        directory,
        segment_events=int(config["segment_events"]),
        fsync=str(config["fsync"]),
        batch_events=int(config["batch_events"]),
        io=io,
    )
    entries = wal.recover()
    snapshots = SnapshotStore(directory, io=io)
    document = snapshots.load_newest()
    if document is not None:
        if config.get("packet"):
            from repro.packet.serving import PacketStreamEngine

            engine: Any = PacketStreamEngine.from_state(
                document["engine"]
            )
        else:
            engine = StreamingGPSServer.from_state(document["engine"])
        applied_seq = int(document["applied_seq"])
        snapshot_seq: int | None = applied_seq
    else:
        engine = _build_engine(config)
        applied_seq = 0
        snapshot_seq = None
    service = _build_service(
        config, engine, wal, snapshots,
        sink=sink, crash=crash, applied_seq=applied_seq, io=io,
    )
    if document is not None:
        service._restore_service_state(document["service"])
    replayed = service.replay(entries)
    # Position the log so the next append continues the sequence even
    # when every segment was pruned (snapshot-only recovery).
    wal.position(service.applied_seq)
    report = RecoveryReport(
        fresh=document is None and not entries,
        applied_seq=service.applied_seq,
        snapshot_seq=snapshot_seq,
        replayed=replayed,
        truncated_bytes=wal.truncated_bytes,
    )
    return service, report
