"""Outside-in tracing: spans around the public calls into each layer.

Nothing under ``src/`` records timing, so the traced run patches the
calls from here.  Methods are patched on their class; module-level
functions under the name the calling module bound them to.  Every patch
is undone on exit, including on error.

Per span name the :class:`Tracer` keeps the call count, total and self
time (duration minus the part child spans cover, tracked with a stack),
and a log-bucketed histogram for p50/p99.  It also keeps the raw spans
of the first :data:`RAW_ROOTS` root spans.  Spans recorded inside forked
pool workers are appended to per-pid spool files that the parent merges.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from benchmarks.gpsbench.measure import now_ns

#: Root spans whose full span trees are kept raw.
RAW_ROOTS = 2_000


@dataclass(frozen=True)
class Span:
    """One patched call: where it lives and what it is recorded as.

    ``when(args)`` limits recording to the calls that do the layer's
    work (a slot close only when the clock moves); ``observe(args,
    result, tracer)`` records a count at the same boundary.
    """

    name: str
    module: str
    owner: str | None
    attribute: str
    when: Callable[[tuple], bool] | None = None
    observe: Callable[[tuple, Any, "Tracer"], None] | None = None
    spool: bool = False


def _slot_closes(args: tuple) -> bool:
    engine, slot = args[0], args[1]
    return slot > engine.clock


def _busy_size(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.count("waterfill.busy", len(args[0]))


def _decision(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.count("admission.decisions", 1)
    tracer.count("admission.accepted", 1 if result.accepted else 0)


def _snapshot_bytes(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.count("snapshot.bytes", Path(result).stat().st_size)


def _clock(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.objects["vclock"] = args[0]


def _replayed(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.count("recover.replayed_lines", int(result))


#: The calls wrapped while the measured windows run.
SPANS: tuple[Span, ...] = (
    Span("service.ingest", "repro.online.service", "OnlineService", "ingest"),
    Span("parse", "repro.online.service", None, "json.loads"),
    Span("parse", "repro.online.service", None, "event_from_record"),
    Span("wal.append", "repro.online.durability.wal", "WriteAheadLog", "append"),
    Span("wal.fsync", "repro.online.durability.writers", "SyncWalWriter", "sync"),
    Span(
        "snapshot.write",
        "repro.online.durability.snapshot",
        "SnapshotStore",
        "write",
        observe=_snapshot_bytes,
    ),
    Span("snapshot.export", "repro.online.engine", "StreamingGPSServer", "export_state"),
    Span("engine.process", "repro.online.engine", "StreamingGPSServer", "process"),
    Span(
        "engine.slot_close",
        "repro.online.engine",
        "StreamingGPSServer",
        "advance_to",
        when=_slot_closes,
    ),
    Span(
        "waterfill",
        "repro.online.engine",
        None,
        "busy_gps_slot_allocation",
        observe=_busy_size,
    ),
    Span("registry.add_arrival", "repro.online.session", "SessionRegistry", "add_arrival"),
    Span("registry.commit_slot", "repro.online.session", "SessionRegistry", "commit_slot"),
    Span("registry.join", "repro.online.session", "SessionRegistry", "join"),
    Span("registry.leave", "repro.online.session", "SessionRegistry", "leave"),
    Span(
        "admission.decide",
        "repro.online.admission",
        "AdmissionController",
        "request_join",
        observe=_decision,
    ),
    Span(
        "admission.decide",
        "repro.online.admission",
        "AdmissionController",
        "request_renegotiate",
        observe=_decision,
    ),
    Span("admission.diagnose", "repro.analysis.context", "AnalysisContext", "diagnose"),
    Span("admission.leave", "repro.online.admission", "AdmissionController", "leave"),
    Span("emit", "repro.online.records", "JsonlSink", "emit"),
    Span("cluster.ingest", "repro.online.cluster.cluster", "ShardedOnlineCluster", "ingest"),
    Span("cluster.route", "repro.online.cluster.routing", "ShardRouter", "route"),
    Span("cluster.deliver", "repro.online.cluster.supervisor", "ShardSupervisor", "deliver"),
    Span("packet.push", "repro.packet.engine", "PacketEngine", "push"),
    Span(
        "vclock.advance",
        "repro.packet.vclock",
        "StreamingVirtualClock",
        "advance_to",
        observe=_clock,
    ),
    Span("vclock.stamp", "repro.packet.vclock", "StreamingVirtualClock", "stamp"),
    Span("vclock.register", "repro.packet.vclock", "StreamingVirtualClock", "register"),
    Span("gap.observe", "repro.packet.gap", "GapAccumulator", "observe"),
    Span("packet.finish", "repro.packet.engine", "PacketEngine", "finish"),
    Span("mc.dispatch", "repro.experiments.supervisor", "SupervisedRunner", "run"),
    Span("mc.sample", "repro.traffic.sources", "TrafficSource", "generate"),
    Span("mc.kernel", "repro.sim.batch", "BatchFluidGPSServer", "run", spool=True),
)

#: The calls wrapped while a durable service recovers.
RECOVERY_SPANS: tuple[Span, ...] = (
    Span("recover.wal_scan", "repro.online.durability.wal", "WriteAheadLog", "recover"),
    Span(
        "recover.snapshot_load",
        "repro.online.durability.snapshot",
        "SnapshotStore",
        "load_newest",
    ),
    Span("recover.from_state", "repro.online.engine", "StreamingGPSServer", "from_state"),
    Span(
        "recover.replay",
        "repro.online.durability.service",
        "DurableOnlineService",
        "replay",
        observe=_replayed,
    ),
)

#: Every span name, in report order.
SPAN_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys(s.name for s in SPANS + RECOVERY_SPANS)
)


def _bucket(ns: int) -> int:
    """Log-bucket index: four sub-buckets per power of two."""
    if ns < 8:
        return ns
    bits = ns.bit_length()
    return (bits << 2) | ((ns >> (bits - 3)) & 3)


def _bucket_mid(index: int) -> float:
    if index < 16:
        return float(index)
    bits, sub = index >> 2, index & 3
    low = (4 | sub) << (bits - 3)
    high = (5 + sub) << (bits - 3)
    return (low + high) / 2.0


class _JsonProxy:
    """Stands in for the ``json`` module inside one calling module, so
    only that module's ``json.loads`` calls are traced."""

    def __init__(self, module: Any, loads: Callable[..., Any]) -> None:
        self._module = module
        self.loads = loads

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """In-memory span statistics for one traced phase."""

    def __init__(self, spool: Path | None = None) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.objects: dict[str, Any] = {}
        self.raw: list[tuple] = []
        self.roots = 0
        self.root_ns = 0
        self.spool = spool
        self._pid = os.getpid()
        self._stack: list[list] = []

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a named counter."""
        self.counts[name] = self.counts.get(name, 0) + value

    def _entry(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0, {}]
        return entry

    def _record(
        self, name: str, entry: list, start: int, end: int, child: int
    ) -> None:
        duration = end - start
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        hist = entry[3]
        if duration < 8:
            bucket = duration
        else:  # _bucket, inlined: this runs once per span
            bits = duration.bit_length()
            bucket = (bits << 2) | ((duration >> (bits - 3)) & 3)
        hist[bucket] = hist.get(bucket, 0) + 1
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_name = parent[1]
        else:
            parent_name = None
        if self.roots < RAW_ROOTS:
            self.raw.append((name, start, end, parent_name, self.roots))
        if not stack:
            self.roots += 1

    def _spool(self, name: str, start: int, end: int, size: int) -> None:
        assert self.spool is not None
        line = json.dumps(
            {"name": name, "start_ns": start, "end_ns": end, "bytes": size}
        )
        with open(self.spool / f"spans-{os.getpid()}.jsonl", "a") as out:
            out.write(line + "\n")

    def wrap(self, span: Span, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A traced stand-in for ``fn``."""
        name, when, observe = span.name, span.when, span.observe
        entry = self._entry(name)
        stack = self._stack
        record = self._record

        if span.spool:

            def spooled(*args: Any, **kwargs: Any) -> Any:
                if os.getpid() == self._pid or self.spool is None:
                    return plain(*args, **kwargs)
                start = now_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    size = sum(getattr(arg, "nbytes", 0) for arg in args[1:])
                    self._spool(name, start, now_ns(), size)

        def plain(*args: Any, **kwargs: Any) -> Any:
            # For coverage a root span lasts as long as its caller is
            # inside the call, its own bookkeeping included, as its child
            # spans' bookkeeping already is; trace.overhead reports what
            # that bookkeeping costs.
            outer = now_ns()
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            root = not stack
            frame = [0, name]
            stack.append(frame)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                record(name, entry, start, end, frame[0])
                if root:
                    self.root_ns += now_ns() - outer
            if observe is not None:
                observe(args, result, self)
            return result

        return spooled if span.spool else plain

    def merge_spool(self) -> list[tuple[str, int, int, int]]:
        """Fold spans spooled by forked workers in; returns them as
        ``(name, start_ns, end_ns, input_bytes)``."""
        spans: list[tuple[str, int, int, int]] = []
        if self.spool is None:
            return spans
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for raw in path.read_text().splitlines():
                span = json.loads(raw)
                spans.append(
                    (span["name"], span["start_ns"], span["end_ns"], span["bytes"])
                )
            path.unlink()
        for name, start, end, _ in spans:
            entry = self._entry(name)
            duration = end - start
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration
            bucket = _bucket(duration)
            entry[3][bucket] = entry[3].get(bucket, 0) + 1
        return spans

    def quantile_s(self, name: str, q: float) -> float:
        """Approximate quantile of one span's durations, in seconds."""
        entry = self.stats.get(name)
        if entry is None or entry[0] == 0:
            return 0.0
        target = q * entry[0]
        seen = 0
        for bucket in sorted(entry[3]):
            seen += entry[3][bucket]
            if seen >= target:
                return _bucket_mid(bucket) / 1e9
        return _bucket_mid(max(entry[3])) / 1e9

    def span_stats(self, name: str) -> tuple[int, float]:
        """``(calls, self seconds)`` of one span name."""
        entry = self.stats.get(name)
        if entry is None:
            return 0, 0.0
        return entry[0], entry[2] / 1e9

    def dump(self) -> dict[str, Any]:
        """Everything recorded, for the trace file."""
        return {
            "spans": {
                name: {
                    "calls": entry[0],
                    "total_s": entry[1] / 1e9,
                    "self_s": entry[2] / 1e9,
                    "p50_s": self.quantile_s(name, 0.5),
                    "p99_s": self.quantile_s(name, 0.99),
                }
                for name, entry in self.stats.items()
            },
            "counts": dict(self.counts),
            "roots": self.roots,
            "root_s": self.root_ns / 1e9,
            "raw_fields": ["name", "start_ns", "end_ns", "parent", "root"],
            "raw": self.raw,
        }


def _targets(span: Span) -> list[tuple[Any, str]]:
    """``(namespace, attribute)`` pairs one span patches."""
    module = importlib.import_module(span.module)
    if span.owner is None:
        if span.attribute == "json.loads":
            return [(module, "json")]
        return [(module, span.attribute)]
    owner = getattr(module, span.owner)
    if span.name == "mc.sample":
        # Every concrete source class defines its own ``generate``.
        found, todo = [], [owner]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if span.attribute in vars(cls) and cls is not owner:
                found.append((cls, span.attribute))
        return found
    return [(owner, span.attribute)]


@contextmanager
def installed(tracer: Tracer, spans: tuple[Span, ...] = SPANS) -> Iterator[Tracer]:
    """Patch ``spans`` to record into ``tracer``; undo every patch on exit."""
    originals: list[tuple[Any, str, Any]] = []
    try:
        for span in spans:
            for namespace, attribute in _targets(span):
                original = vars(namespace)[attribute]
                originals.append((namespace, attribute, original))
                if span.attribute == "json.loads":
                    proxy = _JsonProxy(
                        original, tracer.wrap(span, original.loads)
                    )
                    setattr(namespace, attribute, proxy)
                elif isinstance(original, (classmethod, staticmethod)):
                    wrapped = tracer.wrap(span, original.__func__)
                    setattr(namespace, attribute, type(original)(wrapped))
                else:
                    setattr(namespace, attribute, tracer.wrap(span, original))
        yield tracer
    finally:
        for namespace, attribute, original in reversed(originals):
            setattr(namespace, attribute, original)


def patched_objects(
    spans: tuple[Span, ...] = SPANS + RECOVERY_SPANS,
) -> list[tuple[Any, str, Any]]:
    """The current object behind every patch target (for tests)."""
    out = []
    for span in spans:
        for namespace, attribute in _targets(span):
            out.append((namespace, attribute, vars(namespace)[attribute]))
    return out


class Interleave:
    """Alternates untraced and traced windows within one run.

    Odd windows run traced, even windows untraced (warm-up windows
    alternate too but do not count), so the tracing overhead is measured
    in the same process on the same state.  Pass :meth:`switch` as the
    windows' ``on_start``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._context: Any = None
        self.traced_windows: list[int] = []
        self._root_ns_at_open = 0
        self.window_root_ns: dict[int, int] = {}
        self._open_index = -1

    def switch(self, index: int) -> None:
        """Close the previous window's tracing; open window ``index``'s."""
        if self._context is not None:
            self.window_root_ns[self._open_index] = (
                self.tracer.root_ns - self._root_ns_at_open
            )
            self._context.__exit__(None, None, None)
            self._context = None
        if index > 0 and index % 2 == 1:
            self._context = installed(self.tracer)
            self._context.__enter__()
            self._open_index = index
            self._root_ns_at_open = self.tracer.root_ns
            self.traced_windows.append(index)

    def close(self) -> None:
        """Remove any patches still installed (error paths)."""
        self.switch(-1)


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    recovery: Tracer | None = None,
    recovery_wall_s: float = 0.0,
    extras: dict[str, float] | None = None,
) -> dict[str, float]:
    """Per-layer metric values for every span and extra count.

    ``<span>.share`` is self time over the wall time of the traced phase
    the span ran in: the measured windows, or the traced recoveries.
    Spans and counts a workload never reaches read 0.
    """
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        source, wall = tracer, traced_wall_s
        if name.startswith("recover."):
            source, wall = recovery, recovery_wall_s
        calls, self_s = (0, 0.0) if source is None else source.span_stats(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / wall if wall > 0 else 0.0
    for name in EXTRA_METRICS:
        out[name] = 0.0
    out.update(extras or {})
    return out


#: Per-layer counts beyond the span triples: name -> unit.
EXTRA_METRICS: dict[str, str] = {
    "wal.fsync.p99_us": "us",
    "wal.appends_per_fsync": "count",
    "wal.bytes_per_line": "B",
    "snapshot.write.p50_ms": "ms",
    "snapshot.bytes": "B",
    "recover.replayed_lines": "count",
    "recover.wall_s": "s",
    "engine.slot_close.p99_us": "us",
    "waterfill.busy_mean": "count",
    "admission.accept_ratio": "ratio",
    "admission.decide.p99_ms": "ms",
    "emit.bytes_per_line": "B",
    "cluster.shard_skew": "ratio",
    "packet.in_flight_max": "count",
    "vclock.busy_max": "count",
    "packet.rate_decay": "ratio",
    "mc.worker_util": "ratio",
    "mc.shm_bytes": "B",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def common_extras(tracer: Tracer) -> dict[str, float]:
    """Extra counts derived from span statistics alone."""
    out: dict[str, float] = {}
    appends, _ = tracer.span_stats("wal.append")
    fsyncs, _ = tracer.span_stats("wal.fsync")
    if fsyncs:
        out["wal.fsync.p99_us"] = tracer.quantile_s("wal.fsync", 0.99) * 1e6
        out["wal.appends_per_fsync"] = appends / fsyncs
    writes, _ = tracer.span_stats("snapshot.write")
    if writes:
        out["snapshot.write.p50_ms"] = tracer.quantile_s("snapshot.write", 0.5) * 1e3
        out["snapshot.bytes"] = tracer.counts.get("snapshot.bytes", 0) / writes
    closes, _ = tracer.span_stats("engine.slot_close")
    if closes:
        out["engine.slot_close.p99_us"] = (
            tracer.quantile_s("engine.slot_close", 0.99) * 1e6
        )
    fills, _ = tracer.span_stats("waterfill")
    if fills:
        out["waterfill.busy_mean"] = tracer.counts.get("waterfill.busy", 0) / fills
    decisions = tracer.counts.get("admission.decisions", 0)
    if decisions:
        out["admission.accept_ratio"] = (
            tracer.counts.get("admission.accepted", 0) / decisions
        )
        out["admission.decide.p99_ms"] = (
            tracer.quantile_s("admission.decide", 0.99) * 1e3
        )
    return out


def overhead_and_coverage(
    rates: dict[int, float], traced: list[int], root_ns: int, wall_ns: int
) -> dict[str, float]:
    """``trace.overhead`` and ``trace.coverage`` of the traced windows.

    Overhead is one minus the median traced window rate over the median
    untraced one.  Coverage is root-span time over the traced windows'
    wall time; what the root spans leave uncovered is time the feeder
    spent outside every call into the program (timestamps, ack
    bookkeeping, its loop).
    """
    with_trace = [rates[i] for i in traced if i in rates]
    without = [rates[i] for i in rates if i not in traced]
    out: dict[str, float] = {}
    if with_trace and without:
        out["trace.overhead"] = 1.0 - statistics.median(
            with_trace
        ) / statistics.median(without)
    if wall_ns:
        out["trace.coverage"] = root_ns / wall_ns
    return out
