"""Measurement primitives: wall-clock windows, host speed, host facts.

A run's measured phase is cut into short windows -- wall-clock windows
of about :data:`WINDOW_S`, or rounds of fixed work run back to back.
Windows that open within the first :data:`WARMUP_S` (round 0) are
warm-up and are dropped.

The host's speed drifts: a fixed pure-Python loop runs up to twice as
slow, in phases from under a second to longer than a whole run, and a
CPU-bound program slows with it, so no statistic of raw window times is
steady from one run to the next.  Every window is therefore bracketed by
a short reference loop (:func:`reference_s`, run outside the window's
wall time), and its numbers are scaled to a nominal host on which that
loop takes :data:`REFERENCE_S`: a window's rate is multiplied by the
host's slowness (reference time over :data:`REFERENCE_S`) and its
latencies divided by it.  Each end-to-end metric is the median of its
scaled per-window values over the counted windows.  The raw values stay
in the result file.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

#: Target wall time of one window, seconds.
WINDOW_S = 0.25
#: Leading measured time dropped as warm-up, seconds.
WARMUP_S = 1.0
#: Iterations of the reference loop.
REFERENCE_LOOPS = 10_000
#: Seconds the reference loop takes on the nominal host (this repository's
#: 2-vCPU x86_64 VM at its fastest; 30,000 iterations ran in 2.1-8.5 ms).
REFERENCE_S = 0.002 / 3

now_ns = time.perf_counter_ns


def calibrate(iterations: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes: a slow-host marker."""
    start = now_ns()
    total = 0
    for k in range(iterations):
        total += k * k % 7
    return (now_ns() - start) / 1e9


def reference_s() -> float:
    """Seconds the reference loop takes now: the host's current speed.

    The median of three runs, so one preempted run does not read as a
    slow host.
    """
    return statistics.median(calibrate(REFERENCE_LOOPS) for _ in range(3))


class Windows:
    """The measured phase of one run, cut into short wall-clock windows.

    The feeder checks the clock before handing each unit (line, packet)
    to the program and calls :meth:`advance` once the current window's
    end has passed; windows open until their wall times add up to
    ``seconds``.  ``width_s`` is a lower bound: a feeder may close a
    window later, on a boundary of its own (a snapshot cycle).  Runs
    shorter than a few windows shrink the width so they still have some.
    Between two windows the reference loop runs, then ``on_start(i)``
    before window ``i`` opens (``on_start(-1)`` after the last one
    closes); all of it is outside every window's wall time, and
    :attr:`paused_ns` says how long the last switch took (the traced run
    installs and removes its wrappers in ``on_start``).
    """

    def __init__(
        self,
        seconds: float,
        width_s: float = WINDOW_S,
        on_start: Callable[[int], None] | None = None,
    ) -> None:
        self.total_ns = max(1, int(seconds * 1e9))
        self.width_ns = max(1, min(int(width_s * 1e9), self.total_ns // 8))
        self.warmup_ns = min(WARMUP_S * 1e9, self.total_ns / 4)
        #: Leading windows dropped: those that open within the warm-up.
        self.warmup = 0
        self.units: list[int] = []
        self.wall_ns: list[int] = []
        #: Mean reference-loop time at a window's two ends, seconds.
        self.ref_s: list[float] = []
        self.latency: list[array] = []
        self.p50_ns: list[float | None] = []
        self.p99_ns: list[float | None] = []
        self.samples: list[int] = []
        self.index = -1
        self.end_ns = 0
        self.paused_ns = 0
        self._start_ns = 0
        self._ref_open = 0.0
        self._on_start = on_start

    @property
    def count(self) -> int:
        return len(self.units)

    @classmethod
    def of_rounds(
        cls,
        seconds: float,
        units: list[int],
        wall_ns: list[int],
        latency: list[array],
        ref_s: list[float],
        warmup: int = 1,
    ) -> "Windows":
        """Windows made of whole rounds of fixed work (a packet trace, a
        Monte-Carlo campaign) run back to back, each with the mean of the
        reference times taken just before and just after it; the first
        ``warmup`` rounds are warm-up."""
        windows = cls(seconds)
        windows.warmup = warmup
        windows.units = list(units)
        windows.wall_ns = list(wall_ns)
        windows.ref_s = list(ref_s)
        windows.latency = list(latency)
        windows.p50_ns = [None] * len(units)
        windows.p99_ns = [None] * len(units)
        windows.samples = [0] * len(units)
        return windows

    def begin(self) -> int:
        """Open window 0; returns its index."""
        self._ref_open = reference_s()
        return self._open(0)

    def _open(self, index: int) -> int:
        if self._on_start is not None:
            self._on_start(index)
        if sum(self.wall_ns) < self.warmup_ns:
            self.warmup = index + 1
        self.units.append(0)
        self.wall_ns.append(0)
        self.ref_s.append(0.0)
        self.latency.append(array("q"))
        self.p50_ns.append(None)
        self.p99_ns.append(None)
        self.samples.append(0)
        self.index = index
        self._start_ns = now_ns()
        self.end_ns = self._start_ns + self.width_ns
        return index

    def hold(self, ns: int) -> None:
        """Stop the current window's clock for ``ns``: the feeder spent
        them on its own work (generating input), not the program's."""
        self._start_ns += ns
        self.end_ns += ns

    def advance(self, t_ns: int) -> int:
        """Close the current window at ``t_ns``; open the next.

        Returns the new window index, or ``-1`` once the windows add up
        to the measured phase (and at least one is past warm-up).
        """
        index = self.index
        self.wall_ns[index] = t_ns - self._start_ns
        ref_close = reference_s()
        self.ref_s[index] = (self._ref_open + ref_close) / 2
        self._ref_open = ref_close
        if sum(self.wall_ns) < self.total_ns or index < self.warmup:
            index = self._open(index + 1)
            self.paused_ns = self._start_ns - t_ns
            return index
        self.index = -1
        if self._on_start is not None:
            self._on_start(-1)
        self.paused_ns = now_ns() - t_ns
        return -1

    def settle(self, index: int) -> None:
        """Fold window ``index``'s latency samples into its quantiles.

        Call once every unit handed in the window is acknowledged; the
        samples are freed so harness memory stays bounded by a window.
        """
        samples = self.latency[index]
        self.samples[index] = len(samples)
        if samples:
            values = np.frombuffer(samples, dtype=np.int64)
            p50, p99 = np.percentile(values, [50, 99])
            self.p50_ns[index] = float(p50)
            self.p99_ns[index] = float(p99)
        self.latency[index] = array("q")

    def measured(self) -> range:
        """Indices of the windows that count (warm-up dropped)."""
        return range(self.warmup, self.count)

    def slowness(self, index: int) -> float:
        """How much slower than nominal the host ran around a window."""
        return self.ref_s[index] / REFERENCE_S

    def rates(self) -> dict[int, float]:
        """Scaled units per second of every counted window, by index."""
        return {
            i: self.units[i] / (self.wall_ns[i] / 1e9) * self.slowness(i)
            for i in self.measured()
            if self.wall_ns[i] > 0
        }

    def _settle_all(self) -> None:
        for i in range(self.count):
            if self.latency[i]:
                self.settle(i)

    def summary(self) -> dict[str, float]:
        """Median scaled rate and latency quantiles over counted windows."""
        self._settle_all()

        def scaled_ms(quantiles: list[float | None]) -> float:
            return statistics.median(
                quantiles[i] / self.slowness(i) / 1e6
                for i in self.measured()
                if quantiles[i]
            )

        return {
            "events_per_s": statistics.median(self.rates().values()),
            "ack_p50_ms": scaled_ms(self.p50_ns),
            "ack_p99_ms": scaled_ms(self.p99_ns),
        }

    def record(self) -> dict[str, list]:
        """Raw per-window data for the result file."""
        self._settle_all()
        return {
            "warmup": self.warmup,
            "units": list(self.units),
            "wall_s": [ns / 1e9 for ns in self.wall_ns],
            "ref_s": list(self.ref_s),
            "p50_ms": [None if v is None else v / 1e6 for v in self.p50_ns],
            "p99_ms": [None if v is None else v / 1e6 for v in self.p99_ns],
            "samples": list(self.samples),
        }


def scaled_time(fn: Callable[[], object]) -> tuple[float, object]:
    """Seconds one call of ``fn`` takes, scaled to the nominal host, and
    its result."""
    before = reference_s()
    start = now_ns()
    result = fn()
    elapsed = (now_ns() - start) / 1e9
    slowness = (before + reference_s()) / 2 / REFERENCE_S
    return elapsed / slowness, result


def time_calls(fn: Callable[[], object], repeats: int, times: list[float]) -> None:
    """Append the scaled seconds of ``repeats`` calls of ``fn`` to ``times``.

    A cheap set-up is timed a few times before every round rather than
    all at once, so the median over the run samples every phase of the
    host's speed instead of one.
    """
    before = reference_s()
    raw = []
    for _ in range(repeats):
        start = now_ns()
        fn()
        raw.append((now_ns() - start) / 1e9)
    slowness = (before + reference_s()) / 2 / REFERENCE_S
    times.extend(t / slowness for t in raw)


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def filesystem_type(path: Path) -> str:
    """The ``/proc/mounts`` type of the filesystem holding ``path``.

    WAL fsync costs nothing on tmpfs, so a durable-serving number means
    little without it.
    """
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for entry in mounts:
                fields = entry.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(scratch: Path) -> dict[str, object]:
    """Host facts recorded before a workload runs.

    A slow-host run then shows in its calibration time, and no number is
    read as parallel speedup on a host with one CPU.
    """
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "scratch_fs": filesystem_type(scratch),
        "calibration_s": calibrate(),
    }
