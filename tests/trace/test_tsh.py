"""Tests for the TSH binary format."""

import io
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.checksum import internet_checksum
from repro.net.packet import HEADER_BYTES, PacketRecord, validate_packet
from repro.net.tcp import TCP_ACK, TCP_SYN
from repro.trace.tsh import (
    TSH_RECORD_BYTES,
    decode_record,
    encode_record,
    read_tsh,
    read_tsh_bytes,
    tsh_file_size,
    write_tsh,
    write_tsh_bytes,
)


def reference_record(packet: PacketRecord, interface: int = 1) -> bytes:
    """The per-field encoder: three structs and ``internet_checksum``.

    The oracle :func:`encode_record` must match byte for byte: timing
    header, IPv4 header packed with a zero checksum then stamped with
    the RFC 1071 sum of its bytes, and the 16-byte TCP prefix.
    """
    validate_packet(packet)
    seconds = int(packet.timestamp)
    micros = int(round((packet.timestamp - seconds) * 1_000_000))
    if micros >= 1_000_000:
        seconds += 1
        micros -= 1_000_000
    header = struct.pack(
        ">IB3s", seconds, interface & 0xFF, micros.to_bytes(3, "big")
    )
    bare_ip_header = struct.pack(
        ">BBHHHBBHII",
        0x45,
        0,
        packet.total_length(),
        packet.ip_id,
        0,
        packet.ttl,
        packet.protocol,
        0,
        packet.src_ip,
        packet.dst_ip,
    )
    checksum = internet_checksum(bare_ip_header)
    ip_header = bare_ip_header[:10] + checksum.to_bytes(2, "big") + bare_ip_header[12:]
    tcp_prefix = struct.pack(
        ">HHIIBBH",
        packet.src_port,
        packet.dst_port,
        packet.seq,
        packet.ack,
        0x50,
        packet.flags,
        packet.window,
    )
    return header + ip_header + tcp_prefix


# (field, largest encodable value), in validate_packet's checking order.
FIELD_LIMITS = (
    ("src_ip", 0xFFFFFFFF),
    ("dst_ip", 0xFFFFFFFF),
    ("src_port", 0xFFFF),
    ("dst_port", 0xFFFF),
    ("protocol", 0xFF),
    ("flags", 0xFF),
    ("ttl", 0xFF),
    ("ip_id", 0xFFFF),
    ("window", 0xFFFF),
    ("seq", 0xFFFFFFFF),
    ("ack", 0xFFFFFFFF),
    ("payload_len", 0xFFFF - HEADER_BYTES),
)
LAST_SECOND = 0xFFFFFFFF - 1  # leaves room for a microsecond spill


def _field(limit: int):
    return st.one_of(
        st.just(0), st.just(limit), st.integers(min_value=0, max_value=limit)
    )


timestamps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=LAST_SECOND, allow_nan=False),
    # Fractions that round up to the next whole second.
    st.integers(min_value=0, max_value=LAST_SECOND).map(lambda s: s + 0.9999996),
)
in_range_packets = st.builds(
    PacketRecord,
    timestamp=timestamps,
    **{name: _field(limit) for name, limit in FIELD_LIMITS},
)


def sample_packet(**overrides) -> PacketRecord:
    defaults = dict(
        timestamp=1234.567890,
        src_ip=0x0A000001,
        dst_ip=0xC0A80050,
        src_port=43210,
        dst_port=80,
        flags=TCP_SYN | TCP_ACK,
        payload_len=777,
        seq=0xDEADBEEF,
        ack=0x01020304,
        ttl=57,
        ip_id=0x4242,
        window=8760,
    )
    defaults.update(overrides)
    return PacketRecord(**defaults)


class TestRecordCodec:
    def test_record_is_44_bytes(self):
        assert len(encode_record(sample_packet())) == TSH_RECORD_BYTES == 44

    def test_roundtrip_all_fields(self):
        packet = sample_packet()
        decoded = decode_record(encode_record(packet))
        assert decoded.src_ip == packet.src_ip
        assert decoded.dst_ip == packet.dst_ip
        assert decoded.src_port == packet.src_port
        assert decoded.dst_port == packet.dst_port
        assert decoded.protocol == packet.protocol
        assert decoded.flags == packet.flags
        assert decoded.payload_len == packet.payload_len
        assert decoded.seq == packet.seq
        assert decoded.ack == packet.ack
        assert decoded.ttl == packet.ttl
        assert decoded.ip_id == packet.ip_id
        assert decoded.window == packet.window

    def test_timestamp_microsecond_precision(self):
        packet = sample_packet(timestamp=99.123456)
        decoded = decode_record(encode_record(packet))
        assert decoded.timestamp == pytest.approx(99.123456, abs=1e-6)

    def test_timestamp_rounding_carry(self):
        # 0.9999996 rounds to the next full second.
        packet = sample_packet(timestamp=10.9999996)
        decoded = decode_record(encode_record(packet))
        assert decoded.timestamp == pytest.approx(11.0, abs=1e-6)

    def test_ip_checksum_is_valid(self):
        record = encode_record(sample_packet())
        ip_header = record[8:28]
        # A correct IPv4 checksum makes the header sum verify to zero.
        assert internet_checksum(ip_header) == 0

    def test_decode_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            decode_record(bytes(43))

    def test_encode_validates_packet(self):
        with pytest.raises(ValueError):
            encode_record(sample_packet(src_port=70000))


class TestEncoderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(packet=in_range_packets, interface=st.integers(0, 0x1FF))
    @example(
        packet=PacketRecord(
            timestamp=0.0, **{name: 0 for name, _ in FIELD_LIMITS}
        ),
        interface=0,
    )
    @example(
        packet=PacketRecord(
            timestamp=LAST_SECOND + 0.9999996,
            **{name: limit for name, limit in FIELD_LIMITS},
        ),
        interface=0xFF,
    )
    def test_in_range_packets_encode_like_the_reference(self, packet, interface):
        assert encode_record(packet, interface) == reference_record(packet, interface)

    def test_checksum_sum_that_needs_a_second_carry_fold(self):
        # The header words sum to 0x2FFFF: the first fold gives 0x10001,
        # which only the second fold brings back into 16 bits.
        packet = sample_packet(
            payload_len=0, src_ip=0xFFFFFFFF, dst_ip=0, ttl=0, protocol=0,
            ip_id=0xBAD9,
        )
        assert encode_record(packet) == reference_record(packet)

    @settings(max_examples=200, deadline=None)
    @given(
        packet=in_range_packets,
        field=st.sampled_from(FIELD_LIMITS),
        above=st.booleans(),
        excess=st.integers(min_value=1, max_value=2**40),
    )
    def test_out_of_range_field_raises_validate_message(
        self, packet, field, above, excess
    ):
        name, limit = field
        setattr(packet, name, limit + excess if above else -excess)
        with pytest.raises(ValueError) as expected:
            validate_packet(packet)
        with pytest.raises(ValueError) as raised:
            encode_record(packet)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("timestamp", [-1e-6, -1.0, -1e9])
    def test_negative_timestamp_raises_validate_message(self, timestamp):
        packet = sample_packet(timestamp=timestamp)
        with pytest.raises(ValueError) as raised:
            encode_record(packet)
        assert str(raised.value) == f"negative timestamp: {timestamp}"

    def test_first_bad_field_is_named_when_several_are(self):
        packet = sample_packet(src_port=-1, payload_len=0x10000)
        with pytest.raises(ValueError, match="src_port out of range: -1"):
            encode_record(packet)


class _Failing(Exception):
    pass


def _packets_then_raise(count: int):
    for index in range(count):
        yield sample_packet(timestamp=float(index), ip_id=index & 0xFFFF)
    raise _Failing


class TestStreamIo:
    @pytest.mark.parametrize("count", [0, 1, 1488, 1489, 1490, 3500])
    def test_iterator_failure_leaves_every_earlier_record(self, count):
        buffer = io.BytesIO()
        with pytest.raises(_Failing):
            write_tsh(_packets_then_raise(count), buffer)
        data = buffer.getvalue()
        assert len(data) == count * TSH_RECORD_BYTES
        expected = b"".join(
            reference_record(sample_packet(timestamp=float(i), ip_id=i & 0xFFFF))
            for i in range(count)
        )
        assert data == expected

    def test_encoding_failure_leaves_every_earlier_record(self):
        packets = [sample_packet(timestamp=float(i)) for i in range(2000)]
        packets[1700] = sample_packet(window=-5)
        buffer = io.BytesIO()
        with pytest.raises(ValueError, match="window out of range: -5"):
            write_tsh(packets, buffer)
        assert buffer.getvalue() == write_tsh_bytes(packets[:1700])

    def test_batches_match_record_at_a_time_bytes(self):
        packets = [sample_packet(timestamp=i / 7, seq=i) for i in range(5000)]
        buffer = io.BytesIO()
        assert write_tsh(packets, buffer) == 5000
        assert buffer.getvalue() == b"".join(map(reference_record, packets))

    def test_write_read_many(self):
        packets = [sample_packet(timestamp=float(i)) for i in range(25)]
        data = write_tsh_bytes(packets)
        assert len(data) == 25 * TSH_RECORD_BYTES
        decoded = read_tsh_bytes(data)
        assert [p.timestamp for p in decoded] == [float(i) for i in range(25)]

    def test_write_returns_count(self):
        buffer = io.BytesIO()
        assert write_tsh([sample_packet()] * 3, buffer) == 3

    def test_read_empty(self):
        assert read_tsh_bytes(b"") == []

    def test_read_truncated_raises(self):
        data = write_tsh_bytes([sample_packet()])[:-1]
        with pytest.raises(ValueError, match="truncated"):
            list(read_tsh(io.BytesIO(data)))

    def test_file_size_formula(self):
        assert tsh_file_size(0) == 0
        assert tsh_file_size(100) == 4400

    def test_file_size_rejects_negative(self):
        with pytest.raises(ValueError):
            tsh_file_size(-1)
