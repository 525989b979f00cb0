"""Checksummed, segmented write-ahead log for the online service.

Every ingested line is framed and appended here *before* it is applied
to the engine, so a crash at any point loses at most work that was
never acknowledged.  The on-disk format is deliberately boring:

* one frame per line: ``<crc32:08x> <payload json>\\n``, where the
  payload is ``{"seq": <int>, "line": <raw ingest line>}`` and the CRC
  covers the payload's UTF-8 bytes.  Logging the *raw line* (not the
  parsed event) is what makes recovery provably equivalent to the
  uninterrupted run — replay pushes the identical bytes through the
  identical service logic, so error records, shed decisions and
  admission outcomes all reproduce;
* segments named ``wal-<first_seq:016d>.log``; a new segment starts
  every ``segment_events`` appends, bounding the rewrite cost of
  recovery scans and letting old segments be pruned once a snapshot
  covers them;
* a torn tail — a final frame cut short by a crash mid-``write`` — is
  detected by the CRC/framing check and *truncated* on recovery.
  Corruption anywhere except the tail of the final segment (a valid
  frame following a bad one, or a bad frame in a non-final segment)
  is not a torn tail and raises
  :class:`repro.errors.RecoveryError` instead of being silently
  dropped.

The fsync policy trades durability for throughput.  *When* the flushed
bytes are forced to stable storage is decided by
:class:`~repro.online.durability.writers.SyncWalWriter`, one rule for
every policy spec: fsync once the unsynced appends reach a count
bound, or once the oldest of them reaches an age bound.

* ``"always"`` — fsync after every append: an acknowledged event
  survives power loss (classic WAL semantics);
* ``"batch"`` — fsync every ``batch_events`` appends and on segment
  rotation/close: at most one batch of acknowledged events is exposed
  to power loss;
* ``"never"`` — leave syncing to the OS: crash-of-the-*process* safe
  (the bytes are in the page cache) but not power-loss safe;
* ``"group"`` / ``"group:<window>ms"`` — group commit: fsync after
  ``batch_events`` appends or once the window (default 2 ms) has
  passed, whichever comes first;
* ``"budget"`` / ``"budget:<budget>ms"`` — latency budget: fsync once
  the oldest unsynced append is older than the budget (default 5 ms),
  with no count bound;
* ``"async"`` — accepted so older directories still open; runs the
  ``group`` rule with its defaults.

The age bounds are checked only when an append arrives: after the
last append of a burst, the open window stays unsynced until the next
append, an explicit :meth:`WriteAheadLog.sync`, a segment rotation or
:meth:`WriteAheadLog.close`.  :attr:`WriteAheadLog.durable_seq` reports
how far the fsyncs have reached.

All policies write and flush each frame to the operating system
immediately, so an in-process crash (the :class:`SimulatedCrash` of
the chaos harness, an OOM kill of the interpreter) never loses an
appended frame regardless of policy.  Recovery never consults the
writer, so any directory recovers identically whatever policy wrote
it.

The disk itself is part of the fault model.  Frames appended but not
yet fsync-covered are retained in memory (``_pending``); when a
policy-triggered fsync fails, retrying it on the same descriptor
cannot be trusted (the kernel may already have dropped the dirty
pages — the fsyncgate semantics), so the log *seals* the descriptor,
truncates the segment back to the durable boundary, rewrites the
in-doubt frames through a fresh descriptor and syncs again; only if
that repair also fails does a typed
:class:`~repro.errors.WalSyncError` escape, naming the poisoned
sequence window.  ``ENOSPC`` during an append rolls the partial frame
back (the segment stays parseable) and raises
:class:`~repro.errors.DiskPressureError` so the service can prune and
degrade instead of crashing.  All file operations route through an
optional ``io`` object (the fault harness's
:class:`~repro.faults.io.FaultyFS`) so these paths are testable
deterministically.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import zlib
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_string
from pathlib import Path
from typing import IO, Any, Iterator

from repro.errors import (
    DiskPressureError,
    RecoveryError,
    UnrecoverableRangeError,
    ValidationError,
    WalSyncError,
)
from repro.online.durability.writers import SyncWalWriter

__all__ = [
    "WalEntry",
    "WriteAheadLog",
    "SEGMENT_PREFIX",
]

_log = logging.getLogger("repro.online.durability")

#: Directories whose fsync already failed once — warn per directory,
#: not per call, so a read-only or network filesystem does not flood
#: the log while staying observable.
_FSYNC_DIR_WARNED: set[str] = set()

SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_SEQ_DIGITS = 16


@dataclass(frozen=True)
class WalEntry:
    """One recovered WAL frame: the ingest sequence number and raw line."""

    seq: int
    line: str


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:0{_SEQ_DIGITS}d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int | None:
    name = path.name
    if not (
        name.startswith(SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def _frame(seq: int, line: str) -> bytes:
    """``<crc32 hex> {"seq":N,"line":"..."}\\n`` for one ingest line.

    The payload is exactly ``json.dumps({"seq": seq, "line": line},
    separators=(",", ":"))`` — ASCII-escaped, surrogates included — but
    formatted directly: non-default ``json.dumps`` arguments build a
    fresh encoder on every call.
    """
    data = b'{"seq":%d,"line":%s}' % (
        seq,
        _encode_string(line).encode("ascii"),
    )
    return b"%08x %s\n" % (zlib.crc32(data), data)


def _parse_frame(raw: bytes) -> WalEntry | None:
    """Decode one framed line (without the trailing newline).

    Returns ``None`` for anything that is not a complete, checksummed
    frame — the caller decides whether that means a torn tail or
    mid-log corruption.
    """
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
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("seq"), int)
        or not isinstance(payload.get("line"), str)
    ):
        return None
    return WalEntry(seq=payload["seq"], line=payload["line"])


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (durability of renames/creates).

    A failure degrades durability (a rename/create may not survive
    power loss) without breaking correctness, so it is logged — once
    per directory, naming the directory and the error — rather than
    raised or silently swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError as exc:
        _warn_fsync_dir(directory, exc)
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        _warn_fsync_dir(directory, exc)
    finally:
        os.close(fd)


def _warn_fsync_dir(directory: Path, exc: OSError) -> None:
    key = str(directory)
    if key in _FSYNC_DIR_WARNED:
        return
    _FSYNC_DIR_WARNED.add(key)
    _log.warning(
        "directory fsync failed for %s (%s): renames/creates in this "
        "directory are not power-loss durable",
        directory,
        exc,
    )


class WriteAheadLog:
    """Append-only, segmented, CRC-framed event log in one directory.

    Construct, then call :meth:`recover` exactly once before the first
    :meth:`append`: recovery scans the segments, truncates a torn
    tail, validates sequence continuity and positions the log for new
    appends.  A fresh (empty) directory recovers to an empty log.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_events: int = 10_000,
        fsync: str | SyncWalWriter = "batch",
        batch_events: int = 256,
        io: Any | None = None,
    ) -> None:
        if segment_events < 1:
            raise ValidationError(
                f"segment_events must be >= 1, got {segment_events}"
            )
        if isinstance(fsync, SyncWalWriter):
            self._writer = fsync
        else:
            self._writer = SyncWalWriter(fsync, batch_events=batch_events)
        self._dir = Path(directory)
        self._segment_events = int(segment_events)
        self._io = io  # fault-injection filesystem (FaultyFS) or None
        self._handle: IO[bytes] | None = None
        self._segment_path: Path | None = None
        self._segment_count = 0  # appends in the open segment
        self._segment_size = 0  # successfully appended bytes in it
        self._last_seq = 0
        self._recovered = False
        self._truncated_bytes = 0
        #: Frames appended but not yet known fsync-covered, retained so
        #: the seal/rewrite repair path can replay them after a failed
        #: fsync without losing process-acked lines.
        self._pending: deque[tuple[int, bytes]] = deque()

    # ------------------------------------------------------------------
    # file operations (routable through a fault-injecting filesystem)
    # ------------------------------------------------------------------
    def _open(self, path: Path, mode: str = "ab") -> IO[bytes]:
        if self._io is None:
            return open(path, mode)
        return self._io.open(path, mode)

    def _unlink(self, path: Path) -> None:
        if self._io is None:
            os.unlink(path)
        else:
            self._io.unlink(path)

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The directory holding the segments."""
        return self._dir

    @property
    def last_seq(self) -> int:
        """Highest sequence number on disk (0 when the log is empty)."""
        return self._last_seq

    @property
    def truncated_bytes(self) -> int:
        """Bytes dropped as a torn tail by the last :meth:`recover`."""
        return self._truncated_bytes

    @property
    def fsync_policy(self) -> str:
        """The configured fsync policy spec (e.g. ``"budget:5ms"``)."""
        return self._writer.spec

    @property
    def writer(self) -> SyncWalWriter:
        """The :class:`SyncWalWriter` scheduling this log's fsyncs."""
        return self._writer

    @property
    def durable_seq(self) -> int:
        """Highest sequence number covered by a completed fsync."""
        return self._writer.durable_seq

    @property
    def active_segment(self) -> Path | None:
        """Path of the segment currently accepting appends, if any.

        The scrubber skips this segment: its tail is allowed to be
        mid-write, and quarantining it out from under the writer would
        corrupt the log rather than repair it.
        """
        return self._segment_path

    @property
    def pending_frames(self) -> int:
        """Appended frames not yet known fsync-covered (repair buffer)."""
        return len(self._pending)

    def wait_durable(self, seq: int) -> bool:
        """Make ``seq`` fsync-covered if it is not; return whether it is.

        The covering sync runs inline; ``"never"`` returns ``False``
        for any appended-but-unsynced sequence.
        """
        return self._writer.wait_durable(seq)

    def _segments(self) -> list[Path]:
        if not self._dir.is_dir():
            return []
        segments = [
            path
            for path in self._dir.iterdir()
            if _segment_first_seq(path) is not None
        ]
        return sorted(segments, key=lambda p: _segment_first_seq(p) or 0)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[WalEntry]:
        """Scan the segments; truncate a torn tail; return all entries.

        Returns every valid entry in sequence order.  Housekeeping on
        the way in: orphaned ``*.tmp`` files (a crash between mkstemp
        and rename) are swept, and zero-length *trailing* segments (a
        crash between segment creation and the first append) are
        removed as clean torn tails.  Raises
        :class:`repro.errors.RecoveryError` on mid-log corruption (a
        bad frame that is *not* the tail of the final segment) or on a
        sequence discontinuity between frames, and
        :class:`repro.errors.UnrecoverableRangeError` — naming the
        exact missing sequence ranges — when a zero-length segment
        sits *between* populated ones.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        entries: list[WalEntry] = []
        self._truncated_bytes = 0
        swept = False
        for orphan in sorted(self._dir.glob("*.tmp")):
            self._unlink(orphan)
            swept = True
        segments = self._segments()
        # A zero-length trailing segment is a clean torn tail: the
        # process died after creating the file, before the first frame.
        while segments and segments[-1].stat().st_size == 0:
            self._unlink(segments.pop())
            swept = True
        if swept:
            _fsync_dir(self._dir)
        # A zero-length segment with populated successors is not a torn
        # tail: the entries it was named for are simply gone.  Name the
        # exact missing ranges instead of replaying past the gap.
        missing: list[tuple[int, int]] = []
        for segment, successor in zip(segments, segments[1:]):
            if segment.stat().st_size:
                continue
            first = _segment_first_seq(segment) or 0
            next_first = _segment_first_seq(successor) or 0
            missing.append((first, next_first - 1))
        if missing:
            described = ", ".join(f"{a}..{b}" for a, b in missing)
            raise UnrecoverableRangeError(
                f"WAL in {self._dir} has zero-length non-final "
                f"segments: entries {described} are unrecoverable",
                ranges=tuple(missing),
            )
        for index, segment in enumerate(segments):
            final = index == len(segments) - 1
            entries.extend(self._scan_segment(segment, final=final))
        for prev, cur in zip(entries, entries[1:]):
            if cur.seq != prev.seq + 1:
                raise RecoveryError(
                    f"WAL sequence discontinuity in {self._dir}: frame "
                    f"{cur.seq} follows frame {prev.seq} — entries "
                    f"{prev.seq + 1}..{cur.seq - 1} are missing"
                )
        self._last_seq = entries[-1].seq if entries else 0
        self._recovered = True
        self._segment_path = None
        self._segment_size = 0
        self._pending.clear()
        return entries

    def _scan_segment(self, segment: Path, *, final: bool) -> list[WalEntry]:
        raw = segment.read_bytes()
        entries: list[WalEntry] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                # No terminating newline: can only be a torn tail.
                self._truncate_tail(
                    segment, offset, len(raw) - offset, final=final
                )
                break
            entry = _parse_frame(raw[offset:newline])
            if entry is None:
                # A bad frame is tolerable only as the tail: nothing
                # after it may parse as a valid frame.
                if any(
                    _parse_frame(chunk) is not None
                    for chunk in raw[newline + 1 :].split(b"\n")
                ):
                    raise RecoveryError(
                        f"WAL segment {segment.name} is corrupt mid-log "
                        f"at byte {offset}: valid frames follow a bad "
                        "frame (not a torn tail); refusing to replay"
                    )
                self._truncate_tail(
                    segment, offset, len(raw) - offset, final=final
                )
                break
            entries.append(entry)
            offset = newline + 1
        return entries

    def _truncate_tail(
        self, segment: Path, offset: int, dropped: int, *, final: bool
    ) -> None:
        if not final:
            raise RecoveryError(
                f"WAL segment {segment.name} is corrupt at byte {offset} "
                "but is not the final segment; a torn tail can only "
                "exist at the end of the log"
            )
        handle = self._open(segment, "r+b")
        try:
            handle.truncate(offset)
            sync = getattr(handle, "fsync", None)
            if sync is not None:
                sync()
            else:
                handle.flush()
                os.fsync(handle.fileno())
        finally:
            handle.close()
        self._truncated_bytes = dropped

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append(self, seq: int, line: str) -> None:
        """Frame and append one ingest line under sequence number ``seq``.

        The frame is written and flushed to the OS before returning;
        fsync follows the configured policy.  ``seq`` must be exactly
        ``last_seq + 1``.

        Disk faults surface typed: a write failure rolls the partial
        frame back (the segment stays parseable, ``last_seq`` does not
        advance) and raises :class:`~repro.errors.DiskPressureError`
        for ``ENOSPC`` or :class:`~repro.errors.WalSyncError`
        otherwise; a policy-triggered fsync failure runs the
        seal/truncate/rewrite repair cycle and raises
        :class:`~repro.errors.WalSyncError` only if that also fails.
        """
        if not self._recovered:
            raise ValidationError(
                "WriteAheadLog.append before recover(); call recover() "
                "to position the log first"
            )
        if seq != self._last_seq + 1:
            raise ValidationError(
                f"WAL append out of order: expected seq "
                f"{self._last_seq + 1}, got {seq}"
            )
        handle = self._rotate_if_needed(seq)
        frame = _frame(seq, line)
        try:
            handle.write(frame)
            handle.flush()
        except OSError as exc:
            self._rollback_partial(exc, seq)  # always raises
        self._last_seq = seq
        self._segment_count += 1
        self._segment_size += len(frame)
        self._pending.append((seq, frame))
        try:
            self._writer.on_append(seq)
        except (WalSyncError, OSError) as exc:
            self._repair_sync_failure(exc)
        self._drop_durable_pending()

    def _rotate_if_needed(self, seq: int) -> IO[bytes]:
        if (
            self._handle is not None
            and self._segment_count >= self._segment_events
        ):
            try:
                self._writer.detach()
            except (WalSyncError, OSError) as exc:
                self._repair_sync_failure(exc)
                self._writer.abandon()
            self._drop_durable_pending()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._segment_path = None
        if self._handle is None:
            self._dir.mkdir(parents=True, exist_ok=True)
            if self._segment_path is None:
                self._segment_path = self._dir / _segment_name(seq)
                self._segment_count = 0
            self._segment_size = (
                self._segment_path.stat().st_size
                if self._segment_path.exists()
                else 0
            )
            self._handle = self._open(self._segment_path, "ab")
            self._writer.attach(self._handle)
            if self._writer.policy != "never":
                _fsync_dir(self._dir)
        return self._handle

    def _drop_durable_pending(self) -> None:
        """Release retained frames the writer now covers with an fsync."""
        if self._writer.policy == "never":
            # Nothing will ever cover these; retaining them would only
            # grow memory without enabling any repair.
            self._pending.clear()
            return
        durable = self._writer.durable_seq
        while self._pending and self._pending[0][0] <= durable:
            self._pending.popleft()

    def _rollback_partial(self, exc: OSError, seq: int) -> None:
        """Roll a failed frame write back so the segment stays parseable.

        The frame for ``seq`` may be partially on disk (a short write,
        or ``ENOSPC`` after some bytes landed); truncating back to the
        last successfully appended byte keeps every prior frame intact
        and leaves the log positioned to retry the same ``seq``.
        Always raises: :class:`~repro.errors.DiskPressureError` for
        ``ENOSPC`` (the caller may prune and retry) or
        :class:`~repro.errors.WalSyncError` for anything else.
        """
        path = self._segment_path
        self._writer.abandon()
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        try:
            if path is not None and path.exists():
                handle = self._open(path, "r+b")
                try:
                    handle.truncate(self._segment_size)
                finally:
                    handle.close()
                self._handle = self._open(path, "ab")
                self._writer.attach(self._handle)
        except OSError as repair_exc:
            self._handle = None
            raise WalSyncError(
                f"WAL append for seq {seq} failed ({exc}) and rollback "
                f"also failed: {repair_exc}",
                first_seq=seq,
                last_seq=seq,
            ) from exc
        if getattr(exc, "errno", None) == errno.ENOSPC:
            raise DiskPressureError(
                f"WAL append for seq {seq} hit ENOSPC in {self._dir}; "
                "the partial frame was rolled back",
                path=str(path) if path is not None else None,
            ) from exc
        raise WalSyncError(
            f"WAL append write failed for seq {seq}: {exc}",
            first_seq=seq,
            last_seq=seq,
        ) from exc

    def _repair_sync_failure(self, exc: BaseException) -> None:
        """Seal, truncate, rewrite and re-sync after a failed fsync.

        Retrying an fsync on the descriptor it failed on can falsely
        succeed (fsyncgate), so repair never does: the descriptor is
        abandoned and closed, the segment is truncated back to the
        durable boundary, the retained in-doubt frames are rewritten
        through a fresh descriptor, and a new fsync covers them.  On
        success the log is exactly as durable as if the original sync
        had worked; on any failure a
        :class:`~repro.errors.WalSyncError` names the poisoned window.
        """
        path = self._segment_path
        pending = list(self._pending)
        first = pending[0][0] if pending else self._last_seq
        last = self._last_seq
        self._writer.abandon()
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        try:
            if path is None:
                raise RecoveryError("no active segment to repair")
            base = self._segment_size - sum(
                len(frame) for _, frame in pending
            )
            handle = self._open(path, "r+b")
            try:
                handle.truncate(base)
            finally:
                handle.close()
            self._handle = self._open(path, "ab")
            for _, frame in pending:
                self._handle.write(frame)
            self._handle.flush()
            self._writer.attach(self._handle)
            self._writer.sync()
        except (WalSyncError, OSError, RecoveryError) as repair_exc:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
            raise WalSyncError(
                f"WAL fsync failed ({exc}) and the seal/rewrite repair "
                f"also failed: {repair_exc}; seqs {first}..{last} are "
                "not power-loss durable",
                first_seq=first,
                last_seq=last,
            ) from exc
        self._drop_durable_pending()

    def position(self, seq: int) -> None:
        """Advance the append position to ``seq`` without writing.

        Used after snapshot-only recovery (every covered segment was
        pruned): the log may be empty on disk while the engine state is
        already at ``seq``, and the next append must carry ``seq + 1``.
        Never moves the position backwards.
        """
        if not self._recovered:
            raise ValidationError(
                "WriteAheadLog.position before recover(); call "
                "recover() first"
            )
        if seq > self._last_seq:
            self._last_seq = int(seq)

    def sync(self) -> None:
        """Flush and (policy permitting) fsync the open segment.

        A durability barrier for every policy except ``"never"``: on
        return, all appended frames are fsync-covered.
        """
        if self._handle is None:
            return
        try:
            self._handle.flush()
            self._writer.sync()
        except (WalSyncError, OSError) as exc:
            self._repair_sync_failure(exc)
        self._drop_durable_pending()

    def close(self) -> None:
        """Sync and close the open segment."""
        if self._handle is not None:
            try:
                self._handle.flush()
                self._writer.detach()
            except (WalSyncError, OSError) as exc:
                # Repair restores durability through a fresh handle;
                # nothing is pending after it, so release without a
                # second barrier.
                self._repair_sync_failure(exc)
                self._writer.abandon()
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
        self._segment_path = None
        self._pending.clear()

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def oldest_sealed_tail(self) -> int | None:
        """Tail of the oldest sealed segment; ``None`` when there is none.

        ``prune(upto_seq)`` removes nothing unless this is at most
        ``upto_seq`` (see :meth:`prune` for the tail rule), so a caller
        can skip computing the horizon when it is not.
        """
        segments = self._segments()
        if len(segments) < 2:
            return None
        return (_segment_first_seq(segments[1]) or 0) - 1

    def prune(self, upto_seq: int) -> int:
        """Delete segments whose entries are all ``<= upto_seq``.

        ``upto_seq`` is the snapshot-covered horizon: every entry at or
        below it can be reconstructed from a retained snapshot, so the
        segments holding only such entries are dead weight.  Segments
        are contiguous (``recover`` enforces sequence continuity), so a
        segment's *tail* is ``first_seq(successor) - 1``; the segment
        is removable exactly when that tail does not extend past the
        horizon.  The boundary matters: a segment whose tail *is* the
        horizon (rotation landed exactly on the snapshot seq) is fully
        covered and removed; a tail even one past the horizon overlaps
        un-snapshotted entries and must survive, or recovery from the
        oldest retained snapshot would find a sequence gap.  The active
        (final) segment is never removed.  Returns the number of
        segments deleted.
        """
        segments = self._segments()
        removed = 0
        for path, successor in zip(segments, segments[1:]):
            next_first = _segment_first_seq(successor)
            if next_first is None:
                # An unparsable successor name breaks the tail
                # inference; keep everything from here on rather than
                # guess at coverage.
                break
            tail = next_first - 1
            if tail > upto_seq:
                break
            self._unlink(path)
            removed += 1
        if removed:
            _fsync_dir(self._dir)
        return removed

    def __iter__(self) -> Iterator[WalEntry]:  # pragma: no cover - debug aid
        yield from self.recover()
