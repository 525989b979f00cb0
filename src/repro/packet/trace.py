"""The JSONL ``PacketTrace`` wire format (pcap-style packet logs).

A packet trace is one header line followed by one line per packet, in
nondecreasing arrival order::

    {"kind": "packet-trace-header", "version": 1,
     "phis": [0.5, 0.25, 0.25], "rate": 1.0,
     "names": ["voice", "video", "data"]}
    {"kind": "packet", "time": 0.125, "session": 0, "size": 0.2}
    {"kind": "packet", "time": 0.125, "session": 2, "size": 1.0}
    ...

``rate`` and ``names`` are optional (``serve --packet`` cross-checks
``rate`` against the serving configuration when both are present).
The same lines feed three consumers: :func:`read_packet_trace` streams
them into :class:`repro.packet.engine.PacketEngine`, ``repro serve
--packet`` ingests them as online events (each line WAL-logged before
it is applied), and :class:`PacketTrace` materializes small traces for
tests and the oracle comparison.

Every reader, ``serve --packet`` included, checks lines against one
field table per kind, :data:`PACKET_SCHEMAS` (docs/ONLINE.md prints it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Union

from repro.errors import ValidationError
from repro.sim.packet import Packet
from repro.utils.validation import check_positive, check_weights
from repro.utils.wire import (
    NAME,
    NONNEGATIVE,
    POSITIVE,
    Field,
    Rule,
    Schema,
    read_lines,
    read_record,
    write_lines,
)

__all__ = [
    "PacketTrace",
    "PacketTraceHeader",
    "PACKET_SCHEMAS",
    "packet_from_record",
    "packet_to_record",
    "read_packet_trace",
    "write_packet_trace",
]

TRACE_FORMAT_VERSION = 1

_Source = Union[str, Path, IO[str], Iterable[str]]


@dataclass(frozen=True)
class PacketTraceHeader:
    """The trace preamble: weight vector plus optional rate/names."""

    phis: tuple[float, ...]
    rate: float | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        phis = tuple(check_weights("phis", list(self.phis)))
        object.__setattr__(self, "phis", phis)
        if self.rate is not None:
            check_positive("rate", self.rate)
            object.__setattr__(self, "rate", float(self.rate))
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != len(phis):
                raise ValidationError(
                    f"got {len(phis)} sessions but {len(names)} names"
                )
            object.__setattr__(self, "names", names)

    @property
    def num_sessions(self) -> int:
        """Number of sessions the trace addresses."""
        return len(self.phis)

    def to_record(self) -> dict[str, Any]:
        """The header's JSONL record."""
        record: dict[str, Any] = {
            "kind": "packet-trace-header",
            "version": TRACE_FORMAT_VERSION,
            "phis": list(self.phis),
        }
        if self.rate is not None:
            record["rate"] = self.rate
        if self.names is not None:
            record["names"] = list(self.names)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "PacketTraceHeader":
        """Parse a header record (strict on kind and version)."""
        return read_record(record, _HEADER_ONLY)


def packet_to_record(packet: Packet) -> dict[str, Any]:
    """One packet as its JSONL record."""
    return {
        "kind": "packet",
        "time": packet.arrival_time,
        "session": packet.session,
        "size": packet.size,
    }


def packet_from_record(record: dict[str, Any]) -> Packet:
    """Parse a packet record (``Packet`` validation applies)."""
    return read_record(record, _PACKET_ONLY)


_INDEX = Rule(
    "an integer >= 0",
    lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
)
_WEIGHTS = Rule(
    "a non-empty list of positive numbers",
    lambda v: isinstance(v, list) and bool(v) and all(map(POSITIVE.valid, v)),
)
_NAMES = Rule(
    "a list of names",
    lambda v: isinstance(v, list) and all(map(NAME.valid, v)),
)


#: The packet-trace wire vocabulary: each kind's field table (see
#: :mod:`repro.utils.wire`).
PACKET_SCHEMAS: dict[str, Schema] = {
    "packet": Schema(
        (
            Field("time", NONNEGATIVE, label="packet time"),
            Field("session", _INDEX, label="packet session"),
            Field("size", POSITIVE, label="packet size"),
        ),
        lambda time, session, size: Packet(session, float(size), float(time)),
    ),
    "packet-trace-header": Schema(
        (
            Field(
                "version",
                Rule(
                    f"the integer {TRACE_FORMAT_VERSION}",
                    lambda v: type(v) is int and v == TRACE_FORMAT_VERSION,
                ),
                label="packet-trace version",
            ),
            Field("phis", _WEIGHTS),
            Field("rate", POSITIVE, optional=True),
            Field("names", _NAMES, optional=True),
        ),
        lambda version, phis, rate, names: PacketTraceHeader(
            tuple(phis), rate, None if names is None else tuple(names)
        ),
    ),
}
_PACKET_ONLY = {"packet": PACKET_SCHEMAS["packet"]}
_HEADER_ONLY = {"packet-trace-header": PACKET_SCHEMAS["packet-trace-header"]}


def read_packet_trace(
    source: _Source,
) -> tuple[PacketTraceHeader, Iterator[Packet]]:
    """Open a JSONL packet trace for streaming.

    ``source`` is a path, an open text file, or any iterable of lines.
    The header is parsed eagerly (the first non-blank line *must* be
    one); packets come back as a lazy iterator that validates kinds,
    session ranges and arrival monotonicity as it goes — a million-
    packet trace is never materialized.
    """
    opened = isinstance(source, (str, Path))
    lines = open(source, "r", encoding="utf-8") if opened else source
    records = read_lines(lines, PACKET_SCHEMAS)

    def packets() -> Iterator[Packet]:
        try:
            yield from _checked_packets(header, records)
        finally:
            if opened:
                lines.close()

    try:
        header = next(records, None)
        if not isinstance(header, PacketTraceHeader):
            raise ValidationError(
                "packet trace is empty (no header line)"
                if header is None
                else "packet trace must open with a packet-trace-header line"
            )
    except BaseException:
        if opened:
            lines.close()
        raise
    return header, packets()


def _checked_packets(
    header: PacketTraceHeader, packets: Iterable[Any]
) -> Iterator[Packet]:
    """``packets`` in order, checked against the header's session count
    and for nondecreasing arrival times."""
    last_time = 0.0
    for packet in packets:
        if not isinstance(packet, Packet):
            raise ValidationError(
                "a packet trace holds one packet-trace-header line"
            )
        if packet.session >= header.num_sessions:
            raise ValidationError(
                f"packet session {packet.session} out of range "
                f"(trace declares {header.num_sessions} sessions)"
            )
        if packet.arrival_time < last_time:
            raise ValidationError(
                f"packet trace is out of order: arrival "
                f"{packet.arrival_time} after {last_time}"
            )
        last_time = packet.arrival_time
        yield packet


def write_packet_trace(
    destination: str | Path | IO[str],
    header: PacketTraceHeader,
    packets: Iterable[Packet],
) -> int:
    """Write a header plus packets as JSONL; returns packets written.

    Streams — ``packets`` may be any iterable, including a generator
    over millions of packets.
    """
    records = chain([header.to_record()], map(packet_to_record, packets))
    return write_lines(destination, records) - 1


@dataclass(frozen=True)
class PacketTrace:
    """A fully materialized packet trace (header + ordered packets).

    For workloads that fit in memory — tests, oracle comparisons,
    :meth:`repro.scenario.Scenario.to_packet_trace` output.  Large
    traces should stay on the streaming reader/writer.
    """

    header: PacketTraceHeader
    packets: tuple[Packet, ...]

    def __post_init__(self) -> None:
        packets = tuple(_checked_packets(self.header, self.packets))
        object.__setattr__(self, "packets", packets)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def total_size(self) -> float:
        """Total traffic carried by the trace."""
        return float(sum(p.size for p in self.packets))

    def write(self, destination: str | Path | IO[str]) -> int:
        """Serialize to JSONL; returns the number of packet lines."""
        return write_packet_trace(
            destination, self.header, self.packets
        )

    @classmethod
    def read(cls, source: _Source) -> "PacketTrace":
        """Materialize a JSONL trace (header validation included)."""
        header, packets = read_packet_trace(source)
        return cls(header=header, packets=tuple(packets))
