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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Union

from repro.errors import ValidationError
from repro.sim.packet import Packet
from repro.utils.validation import check_positive, check_weights

__all__ = [
    "PacketTrace",
    "PacketTraceHeader",
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
        if record.get("kind") != "packet-trace-header":
            raise ValidationError(
                "expected a packet-trace-header record, got kind="
                f"{record.get('kind')!r}"
            )
        version = record.get("version")
        if version != TRACE_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported packet-trace version {version!r} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        phis = record.get("phis")
        if not isinstance(phis, list) or not phis:
            raise ValidationError(
                "packet-trace header must carry a non-empty phis list"
            )
        for phi in phis:
            if not _is_number(phi):
                raise ValidationError(
                    f"packet-trace header phis must be numbers, got "
                    f"{phi!r}"
                )
        names = record.get("names")
        if names is not None and not isinstance(names, list):
            raise ValidationError(
                f"packet-trace header names must be a list, got "
                f"{names!r}"
            )
        return cls(
            phis=tuple(phis),
            rate=record.get("rate"),
            names=None if names is None else tuple(names),
        )


def _is_number(value: Any) -> bool:
    """Whether ``value`` decoded from a JSON number (a bool did not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    if record.get("kind") != "packet":
        raise ValidationError(
            f"expected a packet record, got kind={record.get('kind')!r}"
        )
    try:
        session, size, time = (
            record["session"], record["size"], record["time"]
        )
        if not (
            isinstance(session, int)
            and _is_number(session)
            and _is_number(size)
            and _is_number(time)
        ):
            raise TypeError(
                "session must be an integer, size and time numbers"
            )
        size, time = float(size), float(time)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(
            f"malformed packet record {record!r}: {exc}"
        ) from exc
    return Packet(session=session, size=size, arrival_time=time)


def _open_lines(source: _Source) -> tuple[Iterable[str], IO[str] | None]:
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8")
        return handle, handle
    return source, None


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
    lines, handle = _open_lines(source)
    iterator = iter(lines)
    header: PacketTraceHeader | None = None
    for line in iterator:
        stripped = line.strip()
        if not stripped:
            continue
        header = PacketTraceHeader.from_record(json.loads(stripped))
        break
    if header is None:
        if handle is not None:
            handle.close()
        raise ValidationError("packet trace is empty (no header line)")

    def packets() -> Iterator[Packet]:
        last_time = 0.0
        try:
            for line in iterator:
                stripped = line.strip()
                if not stripped:
                    continue
                packet = packet_from_record(json.loads(stripped))
                if packet.session >= header.num_sessions:
                    raise ValidationError(
                        f"packet session {packet.session} out of "
                        f"range (trace declares "
                        f"{header.num_sessions} sessions)"
                    )
                if packet.arrival_time < last_time:
                    raise ValidationError(
                        f"packet trace is out of order: arrival "
                        f"{packet.arrival_time} after {last_time}"
                    )
                last_time = packet.arrival_time
                yield packet
        finally:
            if handle is not None:
                handle.close()

    return header, packets()


def write_packet_trace(
    destination: str | Path | IO[str],
    header: PacketTraceHeader,
    packets: Iterable[Packet],
) -> int:
    """Write a header plus packets as JSONL; returns packets written.

    Streams — ``packets`` may be any iterable, including a generator
    over millions of packets.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_packet_trace(handle, header, packets)
    destination.write(json.dumps(header.to_record()))
    destination.write("\n")
    count = 0
    for packet in packets:
        destination.write(json.dumps(packet_to_record(packet)))
        destination.write("\n")
        count += 1
    return count


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
        packets = tuple(self.packets)
        last_time = 0.0
        for packet in packets:
            if packet.session >= self.header.num_sessions:
                raise ValidationError(
                    f"packet session {packet.session} out of range "
                    f"(trace declares {self.header.num_sessions} "
                    "sessions)"
                )
            if packet.arrival_time < last_time:
                raise ValidationError(
                    f"packet trace is out of order: arrival "
                    f"{packet.arrival_time} after {last_time}"
                )
            last_time = packet.arrival_time
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
