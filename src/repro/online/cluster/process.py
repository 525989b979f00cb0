"""OS-process shard management: spawn, health-check, SIGKILL, restart.

The in-process cluster (:mod:`repro.online.cluster.cluster`) proves
the failover *logic*; this module proves it against real processes.
:class:`ShardProcess` wraps one ``python -m repro.online.cluster.worker``
subprocess — lines go in over a pipe, records come out through a file
whose mtime doubles as the worker's heartbeat —  and
:class:`ProcessShardSupervisor` implements the two liveness checks a
real fleet needs:

* **deadness**: the process exited (``poll()`` returns a code) —
  covers crashes and SIGKILL;
* **hangness**: the process is alive but its heartbeat file has not
  been touched for longer than ``hang_timeout`` seconds while traffic
  was sent — covers deadlocks and stuck I/O, which ``poll()`` can
  never see.

A hung shard is killed (SIGKILL — it is not going to cooperate) and
both failure modes converge on the same recovery path: spawn a fresh
worker on the same WAL directory; its ``DurableOnlineService.open``
replays the log to the exact acknowledged state.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ClusterError

__all__ = ["ShardProcess", "ProcessShardSupervisor"]

#: Health states reported by :meth:`ProcessShardSupervisor.check`.
ALIVE = "alive"
DEAD = "dead"
HUNG = "hung"


class ShardProcess:
    """One shard worker subprocess and its heartbeat file.

    Parameters
    ----------
    directory:
        The shard's WAL directory (survives the process; recovery
        replays it).
    rate:
        Server rate, forwarded to the worker for fresh directories.
    out_path:
        The worker's output-record file; its mtime is the heartbeat.
    hang_after:
        Test hook forwarded to the worker (``--hang-after``).
    snapshot_every:
        Snapshot cadence forwarded to the worker.
    fsync:
        WAL fsync policy spec forwarded to the worker for fresh
        directories (restarted workers recover under the recorded
        policy regardless).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        rate: float,
        out_path: str | Path,
        hang_after: int | None = None,
        snapshot_every: int | None = None,
        fsync: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.rate = float(rate)
        self.out_path = Path(out_path)
        self.hang_after = hang_after
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.proc: subprocess.Popen[str] | None = None
        self.sent = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker (recovering the WAL directory if it exists)."""
        if self.proc is not None and self.proc.poll() is None:
            raise ClusterError(
                f"worker for {self.directory} is already running"
            )
        cmd = [
            sys.executable,
            "-m",
            "repro.online.cluster.worker",
            "--dir",
            str(self.directory),
            "--rate",
            repr(self.rate),
            "--out",
            str(self.out_path),
        ]
        if self.hang_after is not None:
            cmd += ["--hang-after", str(self.hang_after)]
        if self.snapshot_every is not None:
            cmd += ["--snapshot-every", str(self.snapshot_every)]
        if self.fsync is not None:
            cmd += ["--fsync", str(self.fsync)]
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[3]
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (str(src), env.get("PYTHONPATH", ""))
            if p
        )
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def send(self, line: str) -> None:
        """Write one ingest line to the worker's stdin."""
        if self.proc is None or self.proc.stdin is None:
            raise ClusterError(
                f"worker for {self.directory} is not running"
            )
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        self.sent += 1

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.proc is not None and self.proc.poll() is None

    def heartbeat_age(self) -> float | None:
        """Seconds since the worker last touched its output file."""
        try:
            return time.time() - self.out_path.stat().st_mtime
        except OSError:
            return None

    def kill(self) -> None:
        """SIGKILL the worker — no warning, no cleanup, no flush."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def drain(self, timeout: float = 30.0) -> int:
        """Close stdin and wait for a clean exit; returns the code."""
        if self.proc is None:
            raise ClusterError(
                f"worker for {self.directory} was never started"
            )
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        return self.proc.wait(timeout=timeout)


class ProcessShardSupervisor:
    """Liveness checks and kill/restart for process-mode shards.

    Parameters
    ----------
    shards:
        The :class:`ShardProcess` fleet.
    hang_timeout:
        Seconds of frozen heartbeat (with traffic outstanding) after
        which an alive worker is declared hung.
    """

    def __init__(
        self, shards: list[ShardProcess], *, hang_timeout: float = 5.0
    ) -> None:
        self._shards = shards
        self._hang_timeout = float(hang_timeout)

    @property
    def shards(self) -> list[ShardProcess]:
        """The supervised worker processes."""
        return self._shards

    def check(self, shard: ShardProcess) -> str:
        """Classify one worker: ``alive``, ``dead``, or ``hung``."""
        if not shard.alive():
            return DEAD
        age = shard.heartbeat_age()
        if (
            shard.sent > 0
            and age is not None
            and age > self._hang_timeout
        ):
            return HUNG
        return ALIVE

    def restart(self, shard: ShardProcess) -> str:
        """Recover one unhealthy worker; returns the state it was in.

        A hung worker is SIGKILLed first; either way a fresh worker is
        spawned on the same WAL directory, whose recovery replays the
        log to the acknowledged state.  Raises
        :class:`repro.errors.ClusterError` for an ``alive`` worker —
        restarting a healthy shard would drop its in-memory pipe
        buffer for no reason.
        """
        state = self.check(shard)
        if state == ALIVE:
            raise ClusterError(
                f"worker for {shard.directory} is healthy; refusing "
                "to restart it"
            )
        if state == HUNG:
            shard.kill()
        shard.hang_after = None  # the hook fired; do not re-arm it
        shard.sent = 0
        shard.start()
        shard.restarts += 1
        return state
