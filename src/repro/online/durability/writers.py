"""The fsync rule of the write-ahead log.

:class:`~repro.online.durability.wal.WriteAheadLog` owns the on-disk
format — framing, segments, recovery, rotation — and writes + flushes
every frame to the operating system before ``append`` returns (so an
in-process crash never loses an appended frame, regardless of policy).
*When the bytes are forced to stable storage* is decided by one
:class:`SyncWalWriter`, which turns every policy spec into the same
rule: fsync once the unsynced appends reach a count bound, or once the
oldest of them reaches an age bound.

Two acknowledgement levels fall out of this split, and both are
observable:

* *append returned* — the frame is flushed to the OS page cache:
  process-crash safe (the chaos harness's ``SimulatedCrash``, an OOM
  kill) under **every** policy;
* *fsync-covered* — ``durable_seq`` has reached the frame's sequence
  number: power-loss safe.  :meth:`SyncWalWriter.wait_durable` forces
  the covering fsync when it has not happened yet.

Recovery never consults the writer — the policy only schedules
syscalls, it never changes the bytes — so a directory written under
any policy recovers identically (policy-agnostic recovery).
"""

from __future__ import annotations

import os
import time
from typing import IO, Callable

from repro.errors import ValidationError

__all__ = [
    "SyncWalWriter",
    "parse_fsync_policy",
    "FSYNC_POLICY_BASES",
]

#: Base names of the accepted ``fsync`` policy specs.  ``group`` and
#: ``budget`` accept an optional ``:<value>ms`` parameter
#: (``"group:2ms"``, ``"budget:5ms"``).
FSYNC_POLICY_BASES: tuple[str, ...] = (
    "always",
    "batch",
    "never",
    "group",
    "budget",
    "async",
)

#: Default group-commit window (seconds) — ``"group"`` == ``"group:2ms"``.
DEFAULT_GROUP_WINDOW = 0.002
#: Default latency budget (seconds) — ``fsync="budget"`` == ``"budget:5ms"``.
DEFAULT_LATENCY_BUDGET = 0.005


def parse_fsync_policy(spec: str) -> tuple[str, float | None]:
    """Parse an fsync policy spec into ``(base, parameter_seconds)``.

    Accepted forms: the bare bases in :data:`FSYNC_POLICY_BASES` plus
    ``"group:<window>ms"`` and ``"budget:<budget>ms"`` (a bare number
    is read as milliseconds; an ``s`` suffix as seconds).  Raises
    :class:`repro.errors.ValidationError` on anything else.
    """
    if not isinstance(spec, str):
        raise ValidationError(
            f"fsync policy must be a string, got {type(spec).__name__}"
        )
    base, _, param = spec.partition(":")
    if base not in FSYNC_POLICY_BASES:
        raise ValidationError(
            f"fsync policy must be one of {FSYNC_POLICY_BASES} "
            f"(optionally 'group:<ms>ms' / 'budget:<ms>ms'), got {spec!r}"
        )
    if not param:
        if ":" in spec:
            raise ValidationError(
                f"fsync policy {spec!r} has an empty parameter"
            )
        return base, None
    if base not in ("group", "budget"):
        raise ValidationError(
            f"fsync policy {base!r} takes no parameter, got {spec!r}"
        )
    text = param.strip().lower()
    scale = 1e-3  # bare numbers are milliseconds
    if text.endswith("ms"):
        text = text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
        scale = 1.0
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"fsync policy parameter must be a duration like '5ms', "
            f"got {spec!r}"
        ) from None
    if value <= 0:
        raise ValidationError(
            f"fsync policy parameter must be positive, got {spec!r}"
        )
    return base, value * scale


class SyncWalWriter:
    """Fsync on the caller's thread by one count-or-age rule.

    The spec sets two bounds on the unsynced appends (``None`` = no
    bound):

    ================  ================  ====================  ==========
    spec              ``max_count``     ``max_age``           ``sync()``
    ================  ================  ====================  ==========
    ``always``        1                 –                     fsync
    ``batch``         ``batch_events``  –                     fsync
    ``group[:w]``     ``batch_events``  ``w`` (default 2 ms)  fsync
    ``budget[:b]``    –                 ``b`` (default 5 ms)  fsync
    ``never``         –                 –                     flush only
    ``async``         as ``group``      as ``group``          fsync
    ================  ================  ====================  ==========

    :meth:`on_append` counts the append and fsyncs when the count
    reaches ``max_count``.  Otherwise, and only when ``max_age`` is
    set, it reads the clock: the first unsynced append opens the
    window, and the append that finds the window at least ``max_age``
    old runs the fsync covering everything up to and including itself.
    ``async`` is kept so directories whose ``meta.json`` records it
    still open; it runs the ``group`` rule.

    Exposure to power loss: when an append returns, fewer than
    ``max_count`` frames are unsynced and the oldest of them is younger
    than ``max_age``.  Both bounds are checked only inside
    :meth:`on_append`, so after the last append of a burst the open
    window stays unsynced — however long the idle time — until the
    next append, an explicit :meth:`sync`, a segment rotation or
    :meth:`detach`.  Under ``budget`` that window can hold any number
    of frames.

    A handle that exposes its own ``fsync`` method (the fault harness's
    ``FaultyFile``) is synced through it, so injected failures and
    durability tracking are observed; plain file objects get
    :attr:`_sync_fn`.
    """

    #: The syscall forcing bytes to disk (tests substitute it).
    _sync_fn: Callable[[int], None] = staticmethod(os.fsync)

    def __init__(
        self,
        spec: str = "batch",
        *,
        batch_events: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        base, param = parse_fsync_policy(spec)
        if batch_events < 1:
            raise ValidationError(
                f"batch_events must be >= 1, got {batch_events}"
            )
        #: The policy spec as given (``"group:4ms"``) and its base name.
        self.spec = spec
        self.policy = base
        #: Unsynced appends that force an fsync (``None``: no count bound).
        self.max_count: int | None = None
        #: Window age (seconds) that forces an fsync (``None``: no bound).
        self.max_age: float | None = None
        if base == "always":
            self.max_count = 1
        elif base in ("batch", "group", "async"):
            self.max_count = int(batch_events)
        if base in ("group", "async"):
            self.max_age = param or DEFAULT_GROUP_WINDOW
        elif base == "budget":
            self.max_age = param or DEFAULT_LATENCY_BUDGET
        self._clock = clock
        self._handle: IO[bytes] | None = None
        self._tail_seq = 0
        self._durable_seq = 0
        self._unsynced = 0
        self._window_opened: float | None = None

    def attach(self, handle: IO[bytes]) -> None:
        """Adopt a freshly opened segment handle."""
        self._handle = handle

    def on_append(self, seq: int) -> None:
        """One frame for ``seq`` has been written and flushed to the OS."""
        self._tail_seq = seq
        self._unsynced += 1
        if self.max_count is not None and self._unsynced >= self.max_count:
            self.sync()
        elif self.max_age is not None:
            now = self._clock()
            if self._window_opened is None:
                self._window_opened = now
            elif now - self._window_opened >= self.max_age:
                self.sync()

    def sync(self) -> None:
        """Durability barrier: force everything appended so far to disk.

        ``"never"`` only flushes; every other policy returns once all
        appended frames are fsync-covered, and closes the open window.
        """
        if self._handle is None:
            return
        if self.policy == "never":
            self._handle.flush()
        else:
            handle_fsync = getattr(self._handle, "fsync", None)
            if handle_fsync is not None:
                handle_fsync()
            else:
                self._handle.flush()
                self._sync_fn(self._handle.fileno())
            self._durable_seq = self._tail_seq
        self._unsynced = 0
        self._window_opened = None

    def detach(self) -> None:
        """Barrier, then release the handle (segment rotation / close)."""
        self.sync()
        self._handle = None

    def abandon(self) -> None:
        """Drop the current handle WITHOUT a durability barrier.

        The log's fsync-failure repair path calls this: after a failed
        sync the descriptor is poisoned (retrying the fsync on it can
        falsely succeed — the kernel may already have dropped the dirty
        pages), so the writer forgets the handle while the log seals
        the segment and rewrites the in-doubt frames through a fresh
        descriptor.  ``durable_seq`` is left untouched: nothing became
        durable.
        """
        self._handle = None

    @property
    def durable_seq(self) -> int:
        """Highest sequence number covered by a completed fsync.

        Conservative by construction: under ``"never"`` it stays 0;
        every other policy advances it at each fsync.
        """
        return self._durable_seq

    def wait_durable(self, seq: int) -> bool:
        """Make ``seq`` fsync-covered if it is not; return whether it is.

        Runs the covering :meth:`sync` when needed, so it returns
        ``False`` only under ``"never"`` (or before any handle is
        attached).
        """
        if self._durable_seq >= seq:
            return True
        self.sync()
        return self._durable_seq >= seq
