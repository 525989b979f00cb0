"""The JSONL packet-trace wire format: round-trips and validation."""

import io
import json

import pytest

from repro.errors import ValidationError
from repro.packet.trace import (
    PacketTrace,
    PacketTraceHeader,
    packet_from_record,
    packet_to_record,
    read_packet_trace,
    write_packet_trace,
)
from repro.sim.packet import Packet


def sample_trace():
    header = PacketTraceHeader(
        phis=(0.5, 0.25, 0.25),
        rate=2.0,
        names=("voice", "video", "data"),
    )
    packets = (
        Packet(session=0, size=0.2, arrival_time=0.125),
        Packet(session=2, size=1.0, arrival_time=0.125),
        Packet(session=1, size=0.7, arrival_time=3.5),
    )
    return PacketTrace(header=header, packets=packets)


class TestHeader:
    def test_round_trip(self):
        header = sample_trace().header
        assert (
            PacketTraceHeader.from_record(header.to_record()) == header
        )

    def test_optional_fields_omitted(self):
        record = PacketTraceHeader(phis=(1.0,)).to_record()
        assert "rate" not in record and "names" not in record

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            PacketTraceHeader.from_record({"kind": "packet"})

    def test_rejects_unknown_version(self):
        record = sample_trace().header.to_record()
        record["version"] = 99
        with pytest.raises(ValidationError, match="version"):
            PacketTraceHeader.from_record(record)

    @pytest.mark.parametrize("rate", [True, False, "1.0", [1.0]])
    def test_rejects_non_number_rate(self, rate):
        record = {
            "kind": "packet-trace-header",
            "version": 1,
            "phis": [0.5],
            "rate": rate,
        }
        with pytest.raises(
            ValidationError, match="rate must be finite and positive"
        ):
            PacketTraceHeader.from_record(record)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("version", True),
            ("version", 1.0),
            ("names", [1.0, True]),
            ("names", ["a", ""]),
            ("phis", [0.5, True]),
            ("phis", []),
        ],
    )
    def test_rejects_values_the_table_forbids(self, field, value):
        record = {
            "kind": "packet-trace-header",
            "version": 1,
            "phis": [0.5, 0.5],
            field: value,
        }
        with pytest.raises(ValidationError, match=field):
            PacketTraceHeader.from_record(record)

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValidationError, match="names"):
            PacketTraceHeader(phis=(0.5, 0.5), names=("only-one",))


class TestPacketRecords:
    def test_round_trip_is_bit_exact(self):
        packet = Packet(
            session=3, size=0.30000000000000004, arrival_time=1 / 3
        )
        again = packet_from_record(
            json.loads(json.dumps(packet_to_record(packet)))
        )
        assert again == packet

    def test_rejects_wrong_kind_and_missing_keys(self):
        with pytest.raises(ValidationError, match="kind"):
            packet_from_record({"kind": "arrival"})
        with pytest.raises(ValidationError, match="missing field"):
            packet_from_record({"kind": "packet", "time": 0.0})


class TestFileRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        assert trace.write(path) == len(trace)
        assert PacketTrace.read(path) == trace

    def test_float_stamps_survive_json_exactly(self, tmp_path):
        header = PacketTraceHeader(phis=(1.0,))
        packets = tuple(
            Packet(session=0, size=1e-9 + k * 0.1, arrival_time=k / 7)
            for k in range(20)
        )
        path = tmp_path / "floats.jsonl"
        write_packet_trace(path, header, packets)
        _, loaded = read_packet_trace(path)
        assert tuple(loaded) == packets

    def test_reader_is_lazy(self):
        # The packet iterator must not consume the source up front.
        trace = sample_trace()
        buffer = io.StringIO()
        trace.write(buffer)
        lines = iter(buffer.getvalue().splitlines())
        header, packets = read_packet_trace(lines)
        assert header == trace.header
        assert next(packets) == trace.packets[0]
        # Two packet lines remain unconsumed in the source iterator.
        assert next(lines).startswith('{"kind": "packet"')

    def test_blank_lines_are_skipped(self):
        trace = sample_trace()
        buffer = io.StringIO()
        trace.write(buffer)
        noisy = "\n\n".join(buffer.getvalue().splitlines())
        header, packets = read_packet_trace(io.StringIO(noisy))
        assert tuple(packets) == trace.packets

    @pytest.mark.parametrize("bad", ["[1]", '"x"', "not json", "1" * 5000])
    @pytest.mark.parametrize("where", ["header", "packet"])
    def test_bad_line_raises_with_its_number(self, bad, where):
        header = json.dumps(PacketTraceHeader(phis=(1.0,)).to_record())
        lines = [bad] if where == "header" else [header, "", bad]
        with pytest.raises(ValidationError, match=f"line {len(lines)}:"):
            _, packets = read_packet_trace(iter(lines))
            list(packets)

    def test_empty_source_raises(self):
        with pytest.raises(ValidationError, match="empty"):
            read_packet_trace(io.StringIO(""))

    def test_out_of_order_packets_raise(self):
        header = PacketTraceHeader(phis=(1.0,))
        lines = [
            json.dumps(header.to_record()),
            json.dumps(
                packet_to_record(
                    Packet(session=0, size=1.0, arrival_time=2.0)
                )
            ),
            json.dumps(
                packet_to_record(
                    Packet(session=0, size=1.0, arrival_time=1.0)
                )
            ),
        ]
        _, packets = read_packet_trace(iter(lines))
        with pytest.raises(ValidationError, match="out of order"):
            list(packets)

    def test_session_out_of_range_raises(self):
        header = PacketTraceHeader(phis=(1.0,))
        lines = [
            json.dumps(header.to_record()),
            json.dumps(
                packet_to_record(
                    Packet(session=1, size=1.0, arrival_time=0.0)
                )
            ),
        ]
        _, packets = read_packet_trace(iter(lines))
        with pytest.raises(ValidationError, match="out of range"):
            list(packets)


class TestMaterializedTrace:
    def test_validates_on_construction(self):
        header = PacketTraceHeader(phis=(1.0,))
        with pytest.raises(ValidationError, match="out of range"):
            PacketTrace(
                header=header,
                packets=(
                    Packet(session=5, size=1.0, arrival_time=0.0),
                ),
            )
        with pytest.raises(ValidationError, match="out of order"):
            PacketTrace(
                header=header,
                packets=(
                    Packet(session=0, size=1.0, arrival_time=1.0),
                    Packet(session=0, size=1.0, arrival_time=0.0),
                ),
            )

    def test_total_size_and_iteration(self):
        trace = sample_trace()
        assert trace.total_size == pytest.approx(1.9)
        assert list(trace) == list(trace.packets)
        assert len(trace) == 3
