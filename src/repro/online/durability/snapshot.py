"""Atomic, checksummed snapshots of the full serving state.

A snapshot is one JSON document — the
:meth:`repro.online.engine.StreamingGPSServer.export_state` payload
(registry vectors, admission context version counters and Shewchuk
partials included) plus the service's ingest-protection counters and
the WAL sequence number it covers — written as::

    <crc32:08x> <canonical json>\\n

under ``snap-<applied_seq:016d>.json``.  Writes are crash-safe: the
document goes to a ``*.tmp`` file first, is fsynced, and only then
renamed into place (the rename is the commit point; recovery ignores
``*.tmp`` leftovers).  Every write asserts *round-trip bit-identity*
before committing: the state is re-imported from the serialized bytes
and re-exported, and the two byte streams must match exactly — a
snapshot that cannot provably resurrect the state is never written.
The check is unconditional.

The engine's session registry is most of the document, and it is
stored column-wise (:meth:`repro.online.session.SessionRegistry.export_state`):
active sessions are ``names`` plus ``joined_at``/``renegotiations``/
``ebb``/``target`` lists, and their weights and cumulative totals come
only from the registry's ``vectors`` block.  At 10,000 registered
sessions (1,000 busy) a snapshot is 453 KB; with one full record per
active session it was 1.76 MB.  Snapshots in that older per-session
layout (a ``registry.active`` list) still load — the registry picks the
layout by key presence — so :data:`SNAPSHOT_FORMAT` is unchanged.  They
must: the WAL segments a snapshot covers are pruned, so it can be the
only copy of its state.  Snapshots that still carry the engine's
history (backlog trace, decision log, departed sessions) load too; the
engine folds it into running totals, and new snapshots hold none.

Recovery loads the *newest valid* snapshot: candidates are tried in
descending sequence order and a corrupt one (bad CRC, torn JSON) is
skipped in favor of an older sibling, because an older snapshot plus a
longer WAL replay reaches the same state.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

from repro.errors import RecoveryError, ValidationError
from repro.online.durability.wal import _fsync_dir

__all__ = ["SnapshotStore", "SNAPSHOT_PREFIX"]

SNAPSHOT_PREFIX = "snap-"
_SNAPSHOT_SUFFIX = ".json"
_SEQ_DIGITS = 16

#: Bumped when the snapshot document layout changes incompatibly.
SNAPSHOT_FORMAT = 1


def _snapshot_name(applied_seq: int) -> str:
    return f"{SNAPSHOT_PREFIX}{applied_seq:0{_SEQ_DIGITS}d}{_SNAPSHOT_SUFFIX}"


def _snapshot_seq(path: Path) -> int | None:
    name = path.name
    if not (
        name.startswith(SNAPSHOT_PREFIX)
        and name.endswith(_SNAPSHOT_SUFFIX)
    ):
        return None
    digits = name[len(SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def _encode(document: dict[str, Any]) -> bytes:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + data + b"\n"


def _decode(raw: bytes) -> dict[str, Any] | None:
    """Parse a checksummed snapshot file; ``None`` when invalid."""
    raw = raw.rstrip(b"\n")
    if len(raw) < 10 or raw[8:9] != b" ":
        return None
    try:
        crc = int(raw[:8], 16)
    except ValueError:
        return None
    data = raw[9:]
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        return None
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    return document


class SnapshotStore:
    """Write/load checksummed snapshots in a WAL directory.

    Parameters
    ----------
    directory:
        Where snapshot files live (shared with the WAL segments).
    keep:
        Number of committed snapshots retained; older ones are deleted
        after each successful write (at least 1).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        keep: int = 2,
        io: Any | None = None,
    ) -> None:
        if keep < 1:
            raise ValidationError(f"keep must be >= 1, got {keep}")
        self._dir = Path(directory)
        self._keep = int(keep)
        self._io = io  # fault-injection filesystem (FaultyFS) or None

    def _open(self, path: Path, mode: str) -> Any:
        if self._io is None:
            return open(path, mode)
        return self._io.open(path, mode)

    def _unlink(self, path: Path) -> None:
        if self._io is None:
            os.unlink(path)
        else:
            self._io.unlink(path)

    def _replace(self, src: Path, dst: Path) -> None:
        if self._io is None:
            os.replace(src, dst)
        else:
            self._io.replace(src, dst)

    @property
    def directory(self) -> Path:
        """The directory snapshots are written to."""
        return self._dir

    def _candidates(self) -> list[Path]:
        if not self._dir.is_dir():
            return []
        paths = [
            path
            for path in self._dir.iterdir()
            if _snapshot_seq(path) is not None
        ]
        return sorted(paths, key=lambda p: _snapshot_seq(p) or 0)

    # ------------------------------------------------------------------
    def write(
        self,
        applied_seq: int,
        engine_state: dict[str, Any],
        service_state: dict[str, Any],
        *,
        crash_hook: Any = None,
    ) -> Path:
        """Atomically commit a snapshot covering WAL seq ``applied_seq``.

        ``crash_hook`` is the chaos harness's
        :class:`repro.faults.injection.CrashInjector` (or None); it is
        fired at the ``mid-snapshot`` point *after* the temp file is
        written but *before* the rename, simulating a kill that leaves
        a half-committed snapshot on disk.
        """
        document = {
            "format": SNAPSHOT_FORMAT,
            "applied_seq": int(applied_seq),
            "engine": engine_state,
            "service": service_state,
        }
        encoded = _encode(document)
        self._assert_roundtrip(document, encoded)
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self._dir / _snapshot_name(applied_seq)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            with self._open(tmp, "wb") as handle:
                handle.write(encoded)
                handle.flush()
                if crash_hook is not None:
                    crash_hook.fire("mid-snapshot", int(applied_seq))
                sync = getattr(handle, "fsync", None)
                if sync is not None:
                    sync()
                else:
                    os.fsync(handle.fileno())
        except OSError:
            # A failed write must not leave a half-written temp file
            # for the next write (or a budget model) to stumble over.
            if tmp.exists():
                try:
                    self._unlink(tmp)
                except OSError:
                    pass
            raise
        self._replace(tmp, path)
        _fsync_dir(self._dir)
        self._prune()
        return path

    def _assert_roundtrip(
        self, document: dict[str, Any], encoded: bytes
    ) -> None:
        """Bit-identity gate: a snapshot must provably resurrect itself."""
        decoded = _decode(encoded)
        if decoded is None:
            raise RecoveryError(
                "snapshot round-trip verification failed: the encoded "
                "document does not decode"
            )
        if decoded["engine"].get("kind") == "packet-stream-engine":
            # Imported lazily: the packet serving stack sits above the
            # durability layer.
            from repro.packet.serving import PacketStreamEngine

            restored: Any = PacketStreamEngine.from_state(
                decoded["engine"]
            )
        else:
            from repro.online.engine import StreamingGPSServer

            restored = StreamingGPSServer.from_state(decoded["engine"])
        re_encoded = _encode(
            {
                "format": decoded["format"],
                "applied_seq": decoded["applied_seq"],
                "engine": restored.export_state(),
                "service": decoded["service"],
            }
        )
        if re_encoded != encoded:
            raise RecoveryError(
                "snapshot round-trip verification failed: restoring the "
                "engine and re-exporting produced different bytes; "
                "refusing to commit a snapshot that cannot provably "
                "resurrect the serving state"
            )

    def _prune(self) -> None:
        candidates = self._candidates()
        for path in candidates[: -self._keep]:
            self._unlink(path)
        # Crash leftovers from interrupted writes are dead weight.
        if self._dir.is_dir():
            for path in self._dir.iterdir():
                if path.name.endswith(".tmp") and path.name.startswith(
                    SNAPSHOT_PREFIX
                ):
                    self._unlink(path)

    def oldest_seq(self) -> int | None:
        """Sequence number of the oldest retained *valid* snapshot.

        This is the WAL-prune horizon: every log entry at or below it
        is covered by a snapshot recovery could fall back to.  Only
        snapshots that actually decode count — a corrupt file is not a
        fallback, so letting it anchor the horizon would either retain
        dead log (corrupt-oldest) or, worse, claim coverage the
        recovery path cannot deliver.  Returns ``None`` when no valid
        snapshot exists (then nothing may be pruned).
        """
        for path in self._candidates():
            document = _decode(path.read_bytes())
            if (
                document is not None
                and document.get("format") == SNAPSHOT_FORMAT
                and isinstance(document.get("applied_seq"), int)
            ):
                return int(document["applied_seq"])
        return None

    # ------------------------------------------------------------------
    def load_newest(self) -> dict[str, Any] | None:
        """The newest *valid* snapshot document, or ``None``.

        Candidates are tried newest-first; a corrupt file (bad CRC,
        torn write that somehow got renamed, wrong format) is skipped —
        an older snapshot plus a longer WAL replay reconstructs the
        same state, so recovery prefers degrading to older snapshots
        over failing.
        """
        for path in reversed(self._candidates()):
            document = _decode(path.read_bytes())
            if document is None:
                continue
            if document.get("format") != SNAPSHOT_FORMAT:
                continue
            if not isinstance(document.get("applied_seq"), int):
                continue
            return document
        return None
