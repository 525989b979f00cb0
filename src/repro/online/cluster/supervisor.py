"""Shard lifecycle supervision: crash detection, backoff, reconciliation.

:class:`ShardSupervisor` owns the fleet of :class:`ShardHandle` objects
and implements the supervision loop the cluster calls into:

* :meth:`deliver` hands one line to a running shard and converts a
  crash (:class:`repro.faults.injection.SimulatedCrash` from the chaos
  harness, or any :class:`repro.errors.ReproError` escaping the
  durable service) into a *down* shard with a scheduled restart;
* :meth:`poll` is the heartbeat check, called once per ingest tick —
  it restarts any shard whose backoff delay has elapsed;
* :meth:`restart` recovers the shard's WAL directory to bit-identical
  state, *reconciles* the interrupted delivery (see below), and
  replays the degraded-mode buffer before readmitting traffic.

Supervision time is measured in **ingest ticks** (global lines
processed), not wall-clock seconds: backoff delays from the shared
:class:`repro.utils.retry.RetryPolicy` are interpreted as tick counts.
That makes every chaos schedule deterministic — the same seed produces
the same kills, the same restart times, and the same shed records,
with no sleeps anywhere.

Reconciliation
--------------
Deliveries are synchronous and the WAL append happens before the
engine observes a line, so a crash interrupts at most one line and
leaves exactly two possible worlds.  With ``acked`` the count of
deliveries acknowledged before the crash and ``applied`` the shard's
replayed ``applied_seq``:

===================  ==============================================
``applied == acked``       the in-flight line never reached the WAL
                           (pre-append kill) — re-deliver it first
``applied == acked + 1``   the in-flight line survived (post-append
                           or mid-snapshot kill) and was replayed —
                           acknowledge it, do *not* re-deliver
anything else              acknowledged data was lost or phantom
                           entries appeared: :class:`ClusterError`
===================  ==============================================

A shard whose consecutive-crash count exceeds the retry budget is
marked *failed* and the supervisor raises
:class:`repro.errors.ClusterError` — a fleet that cannot hold a shard
up is broken, not degraded.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable

from repro.errors import ClusterError, ReproError, UnrecoverableRangeError
from repro.faults import SimulatedCrash
from repro.online.cluster.shard import (
    DOWN,
    RUNNING,
    ShardHandle,
)
from repro.online.durability.scrub import scrub_directory
from repro.online.durability.service import DurableOnlineService
from repro.online.service import decode_line
from repro.utils.retry import RetryPolicy

__all__ = ["ShardSupervisor"]

#: ``state`` value for a shard whose restart budget is exhausted.
FAILED = "failed"


class ShardSupervisor:
    """Monitor shard health; restart crashed shards with backoff.

    Parameters
    ----------
    handles:
        The fleet, one :class:`ShardHandle` per shard index.
    policy:
        Restart budget and backoff schedule; ``delay(attempt)`` values
        are interpreted as ingest-tick counts (ceil'd, minimum 1).
    emit:
        Callback receiving cluster-level records (``failover`` on
        crash and on readmission); typically the cluster's tagged
        JSONL emitter.
    """

    def __init__(
        self,
        handles: list[ShardHandle],
        *,
        policy: RetryPolicy | None = None,
        emit: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self._handles = handles
        self._policy = policy if policy is not None else RetryPolicy()
        self._emit = emit if emit is not None else (lambda record: None)

    @property
    def policy(self) -> RetryPolicy:
        """The restart backoff policy."""
        return self._policy

    # ------------------------------------------------------------------
    def deliver(
        self, handle: ShardHandle, tick: int, line: str, payload: Any
    ) -> bool:
        """Synchronously deliver one line to a running shard.

        Returns ``True`` when the shard acknowledged the line (it is in
        the WAL and applied), ``False`` when the shard crashed — the
        line is then in-flight and reconciliation on restart decides
        its fate.  ``tick`` is the current ingest tick, used to
        schedule the restart.  ``payload`` is the line's
        :func:`~repro.online.service.decode_line` value, handed to the
        shard so it does not parse the line again.
        """
        if handle.state != RUNNING or handle.service is None:
            raise ClusterError(
                f"delivery to shard {handle.index} in state "
                f"{handle.state!r}; only running shards accept traffic",
                shard=handle.index,
            )
        handle.inflight = (tick, line)
        try:
            handle.service.ingest((line,), (payload,))
        except (SimulatedCrash, ReproError) as exc:
            self.on_crash(handle, tick, reason=exc)
            return False
        handle.acked += 1
        handle.inflight = None
        return True

    def on_crash(
        self, handle: ShardHandle, tick: int, *, reason: BaseException
    ) -> None:
        """Mark a shard down and schedule its restart.

        Raises :class:`ClusterError` when the shard's consecutive
        crash count exhausts the retry budget.
        """
        # Capture the fsync watermark before the dead service is
        # dropped: under every WAL policy but ``always`` it tells the
        # failover record how much of the acknowledged window was
        # already power-loss durable at the moment of the crash.
        durable = None
        if handle.service is not None:
            try:
                durable = int(handle.service.durable_seq)
            except Exception:
                durable = None
        handle.state = DOWN
        handle.service = None
        handle.crashes += 1
        handle.consecutive += 1
        attempt = handle.consecutive - 1
        if not self._policy.retryable(attempt):
            handle.state = FAILED
            raise ClusterError(
                f"shard {handle.index} crashed {handle.consecutive} "
                "times without recovering; retry budget "
                f"(max_retries={self._policy.max_retries}) exhausted: "
                f"{reason}",
                shard=handle.index,
            )
        delay = self._policy.delay(attempt, key=handle.index)
        ticks = max(1, math.ceil(delay))
        handle.restart_due = tick + ticks
        self._emit(
            {
                "kind": "failover",
                "shard": handle.index,
                "event": "crash",
                "tick": tick,
                "attempt": handle.consecutive,
                "restart_due": handle.restart_due,
                "reason": type(reason).__name__,
                "detail": str(reason),
                "durable_seq": durable,
            }
        )

    # ------------------------------------------------------------------
    def poll(self, tick: int) -> None:
        """Heartbeat check: restart every shard whose backoff elapsed."""
        for handle in self._handles:
            if (
                handle.state == DOWN
                and handle.restart_due is not None
                and tick >= handle.restart_due
            ):
                self.restart(handle, tick)

    def restart(
        self, handle: ShardHandle, tick: int, *, force: bool = False
    ) -> bool:
        """Recover a downed shard and readmit it to traffic.

        Recovery replays the shard's WAL to bit-identical state,
        reconciles the interrupted delivery, then drains the
        degraded-mode buffer (those deliveries may crash again — the
        shard goes back down with a new backoff and ``restart``
        returns ``False``).  ``force=True`` ignores the backoff
        schedule (cluster drain).  Returns ``True`` when the shard is
        running with an empty buffer.
        """
        if handle.state != DOWN:
            raise ClusterError(
                f"cannot restart shard {handle.index} in state "
                f"{handle.state!r}",
                shard=handle.index,
            )
        if (
            not force
            and handle.restart_due is not None
            and tick < handle.restart_due
        ):
            return False
        # Disk-integrity gate: scrub the shard's directory before
        # readmission.  Corrupt-but-snapshot-covered segments are
        # quarantined and repaired in place; corruption past coverage
        # means acknowledged events are gone — the shard is failed with
        # the exact unrecoverable ranges, never readmitted on bad data.
        try:
            scrubbed = scrub_directory(
                Path(handle.directory), repair=True, io=handle.io
            )
            scrubbed.raise_if_unrecoverable()
        except UnrecoverableRangeError as exc:
            handle.state = FAILED
            described = ", ".join(
                f"{first}..{last}" for first, last in exc.ranges
            )
            raise ClusterError(
                f"refusing to readmit shard {handle.index}: scrub found "
                f"unrecoverable entries (seqs {described}) that no valid "
                "snapshot covers; acknowledged events would be lost",
                shard=handle.index,
            ) from exc
        if not scrubbed.clean:
            record = scrubbed.to_record()
            record["shard"] = handle.index
            self._emit(record)
        service, report = DurableOnlineService.open(
            Path(handle.directory),
            mode="recover",
            sink=handle.sink,
            crash=handle.crash,
            io=handle.io,
        )
        self._reconcile(handle, service.applied_seq)
        handle.attach(service)
        handle.restarts += 1
        self._emit(
            {
                "kind": "failover",
                "shard": handle.index,
                "event": "restart",
                "tick": tick,
                "applied_seq": service.applied_seq,
                "replayed": report.replayed,
                "snapshot_seq": report.snapshot_seq,
                "buffered": len(handle.buffer),
            }
        )
        if not self._flush(handle, tick):
            return False
        # Fully readmitted: consecutive-crash accounting starts over.
        handle.consecutive = 0
        return True

    def _reconcile(self, handle: ShardHandle, applied: int) -> None:
        """Resolve the in-flight delivery against the replayed WAL."""
        if applied == handle.acked + 1 and handle.inflight is not None:
            # The crash struck after the WAL append: replay recovered
            # the line, so it is delivered — exactly once.
            handle.acked = applied
            handle.inflight = None
            return
        if applied == handle.acked:
            # Pre-append kill: the line never touched the log.
            # Re-deliver it ahead of everything buffered since.
            if handle.inflight is not None:
                handle.buffer.appendleft(handle.inflight)
                handle.inflight = None
            return
        raise ClusterError(
            f"shard {handle.index} recovered applied_seq={applied} but "
            f"{handle.acked} deliveries were acknowledged"
            + (
                " with one in flight"
                if handle.inflight is not None
                else ""
            )
            + "; the WAL lost acknowledged events or replayed phantom "
            "entries",
            shard=handle.index,
        )

    def _flush(self, handle: ShardHandle, tick: int) -> bool:
        """Drain the degraded-mode buffer through normal delivery."""
        while handle.buffer:
            seq, line = handle.buffer.popleft()
            if not self.deliver(handle, tick, line, decode_line(line)):
                return False
        return True
