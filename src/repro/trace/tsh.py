"""TSH (Time Sequence Header) trace format.

NLANR's TSH format stores one 44-byte record per packet:

======  ====  =====================================================
offset  size  field
======  ====  =====================================================
0       4     timestamp, seconds (big-endian)
4       1     interface number
5       3     timestamp, microseconds (24-bit big-endian)
8       20    IPv4 header (no options)
28      16    first 16 bytes of the TCP header
======  ====  =====================================================

The 16 TCP bytes cover source/destination ports, sequence and
acknowledgment numbers, data offset, flags, and window — everything the
flow-clustering compressor needs.  The checksum and urgent pointer are the
4 bytes that fall off the end; the paper's Van Jacobson adaptation also
drops the checksum.

Records are fixed-size, so ``file size = 44 * packets``; this is the
"Original TSH file" curve of Figure 1.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterable, Iterator

from repro.net.packet import (
    HEADER_BYTES,
    PROTO_TCP,
    PacketRecord,
    packet_from_row,
    validate_packet,
)

TSH_RECORD_BYTES = 44
"""On-disk bytes per packet in a TSH trace."""

_MICROSECOND = 1_000_000
_MAX_PAYLOAD = 0xFFFF - HEADER_BYTES

# The whole 44-byte record as one struct: timing header, IPv4 header and
# TCP prefix flattened.  One pack or unpack per record, and the
# unpack_from form never slices per-record byte copies.
_TSH_RECORD = struct.Struct(">IB3sBBHHHBBHIIHHIIBBH")
assert _TSH_RECORD.size == TSH_RECORD_BYTES

# The same 44 bytes with the interface number and the 24-bit microseconds
# packed as one u32, for the replay row encoder (no per-row 3-byte slice).
_TSH_ROW_RECORD = struct.Struct(">IIBBHHHBBHIIHHIIBBH")
assert _TSH_ROW_RECORD.size == TSH_RECORD_BYTES

_BATCH_RECORDS = 64 * 1024 // TSH_RECORD_BYTES
"""Records per ``write_tsh`` write: batches of at most 64 KiB."""


def encode_record(packet: PacketRecord, interface: int = 1) -> bytes:
    """Encode one packet as a 44-byte TSH record.

    One ``_TSH_RECORD.pack`` per record.  The IPv4 header checksum is
    the RFC 1071 sum of the header's ten 16-bit words, taken straight
    from the fields (version/IHL+TOS, total length, id, flags/fragment,
    TTL+protocol and the four address halves; the checksum word itself
    counts as zero), which equals ``internet_checksum`` over the packed
    header.  Ten words of at most 0xFFFF sum below 2**20, so two carry
    folds suffice.

    Every field is range-checked on every packet: ``struct`` rejects an
    out-of-range integer field, and :func:`validate_packet` then raises
    the ``ValueError`` that names it.  The timestamp sign and
    ``payload_len`` are checked explicitly, since ``struct`` never sees
    them directly.
    """
    timestamp = packet.timestamp
    payload_len = packet.payload_len
    if timestamp < 0 or not 0 <= payload_len <= _MAX_PAYLOAD:
        validate_packet(packet)
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * _MICROSECOND))
    if micros >= _MICROSECOND:  # rounding may spill into the next second
        seconds += 1
        micros -= _MICROSECOND
    total_length = HEADER_BYTES + payload_len
    ip_id, ttl, protocol = packet.ip_id, packet.ttl, packet.protocol
    src_ip, dst_ip = packet.src_ip, packet.dst_ip
    total = (
        0x4500
        + total_length
        + ip_id
        + (ttl << 8 | protocol)
        + (src_ip >> 16)
        + (src_ip & 0xFFFF)
        + (dst_ip >> 16)
        + (dst_ip & 0xFFFF)
    )
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    try:
        return _TSH_RECORD.pack(
            seconds,
            interface & 0xFF,
            micros.to_bytes(3, "big"),
            0x45,  # version 4, IHL 5
            0,  # TOS
            total_length,
            ip_id,
            0,  # flags / fragment offset
            ttl,
            protocol,
            ~total & 0xFFFF,
            src_ip,
            dst_ip,
            packet.src_port,
            packet.dst_port,
            packet.seq,
            packet.ack,
            0x50,  # data offset 5, no reserved bits
            packet.flags,
            packet.window,
        )
    except struct.error:
        validate_packet(packet)  # names the out-of-range field
        raise


def decode_record(record: bytes) -> PacketRecord:
    """Decode one 44-byte TSH record into a :class:`PacketRecord`."""
    if len(record) != TSH_RECORD_BYTES:
        raise ValueError(
            f"TSH record must be {TSH_RECORD_BYTES} bytes, got {len(record)}"
        )
    return decode_record_from(record)


def decode_record_from(buffer, offset: int = 0) -> PacketRecord:
    """Decode the 44-byte record at ``offset`` of ``buffer`` in place.

    The chunked reader calls it with ``unpack_from`` over one hoisted
    :class:`memoryview` instead of a sliced byte copy per record;
    :func:`decode_record` calls it on one whole record.
    """
    (
        seconds,
        _interface,
        micro_bytes,
        _ver_ihl,
        _tos,
        total_length,
        ip_id,
        _frag,
        ttl,
        protocol,
        _checksum,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        seq,
        ack,
        _offset,
        flags,
        window,
    ) = _TSH_RECORD.unpack_from(buffer, offset)
    return PacketRecord(
        timestamp=seconds + int.from_bytes(micro_bytes, "big") / _MICROSECOND,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        flags=flags,
        payload_len=max(0, total_length - HEADER_BYTES),
        seq=seq,
        ack=ack,
        ttl=ttl,
        ip_id=ip_id,
        window=window,
    )


# numpy structured view of the 44-byte record: packed, big-endian where
# multi-byte.  The 24-bit microsecond field is split into three u1s.
_TSH_DTYPE_FIELDS = [
    ("sec", ">u4"),
    ("iface", "u1"),
    ("usec_hi", "u1"),
    ("usec_mid", "u1"),
    ("usec_lo", "u1"),
    ("ver_ihl", "u1"),
    ("tos", "u1"),
    ("total_len", ">u2"),
    ("ip_id", ">u2"),
    ("frag", ">u2"),
    ("ttl", "u1"),
    ("proto", "u1"),
    ("cksum", ">u2"),
    ("src_ip", ">u4"),
    ("dst_ip", ">u4"),
    ("src_port", ">u2"),
    ("dst_port", ">u2"),
    ("seq", ">u4"),
    ("ack", ">u4"),
    ("offset", "u1"),
    ("flags", "u1"),
    ("window", ">u2"),
]
_tsh_dtype = None


def decode_columns(data):
    """Decode a block of whole 44-byte records into a ``PacketColumns``.

    The columnar twin of :func:`decode_record`: one vectorized parse per
    block (a structured-dtype ``frombuffer`` plus per-column casts).
    Field values — including the float timestamps, computed as
    ``seconds + micros / 1e6`` in IEEE doubles — are bit-identical to
    per-record decoding.  Raises ``ValueError`` when ``data`` is not a
    whole number of records.
    """
    import numpy as np

    from repro.net.columns import PacketColumns

    if len(data) % TSH_RECORD_BYTES:
        raise ValueError(
            f"TSH block must be a multiple of {TSH_RECORD_BYTES} bytes, "
            f"got {len(data)}"
        )
    global _tsh_dtype
    if _tsh_dtype is None:
        _tsh_dtype = np.dtype(_TSH_DTYPE_FIELDS)
    rows = np.frombuffer(data, dtype=_tsh_dtype)
    micros = (
        (rows["usec_hi"].astype(np.uint32) << 16)
        | (rows["usec_mid"].astype(np.uint32) << 8)
        | rows["usec_lo"]
    )
    return PacketColumns(
        timestamps=rows["sec"].astype(np.float64) + micros / _MICROSECOND,
        src_ip=rows["src_ip"].astype(np.uint32),
        dst_ip=rows["dst_ip"].astype(np.uint32),
        src_port=rows["src_port"].astype(np.uint16),
        dst_port=rows["dst_port"].astype(np.uint16),
        protocol=rows["proto"].copy(),
        flags=rows["flags"].copy(),
        payload_len=np.maximum(
            rows["total_len"].astype(np.int32) - HEADER_BYTES, 0
        ),
        seq=rows["seq"].astype(np.uint32),
        ack=rows["ack"].astype(np.uint32),
        ttl=rows["ttl"].copy(),
        ip_id=rows["ip_id"].astype(np.uint16),
        window=rows["window"].astype(np.uint16),
    )


def write_tsh(packets: Iterable[PacketRecord], stream: BinaryIO) -> int:
    """Write packets to a binary stream; returns the number written.

    Records are joined into batches of at most 64 KiB and
    each batch is written once.  If encoding or the packet iterator
    raises, the records encoded before it are still written, so the
    stream holds the same bytes a record-at-a-time writer would leave.
    """
    count = 0
    batch: list[bytes] = []
    append = batch.append
    try:
        for packet in packets:
            append(encode_record(packet))
            if len(batch) == _BATCH_RECORDS:
                stream.write(b"".join(batch))
                count += _BATCH_RECORDS
                batch.clear()
    finally:
        if batch:
            stream.write(b"".join(batch))
            count += len(batch)
    return count


def write_tsh_rows(batches: Iterable[list[tuple]], stream: BinaryIO) -> int:
    """Write batches of replay rows (see :mod:`repro.net.packet`) as TSH.

    Each batch is packed into one buffer and written once; no
    :class:`PacketRecord` is built.  The bytes equal
    :func:`write_tsh` over the rows' packets, interface 1: a row outside
    the fast path's checks (negative timestamp, payload or any packed
    field out of range) is re-encoded through :func:`encode_record`,
    which raises the same ``ValueError``.  If encoding or the batch
    iterator raises, the records encoded before it are still written.
    """
    count = 0
    pack_into = _TSH_ROW_RECORD.pack_into
    for rows in batches:
        buffer = bytearray(TSH_RECORD_BYTES * len(rows))
        offset = 0
        try:
            for row in rows:
                (
                    timestamp, src_ip, src_port, dst_ip, seq, _order, _position,
                    dst_port, flags, payload_len, ack, ip_id, ttl, window,
                ) = row
                if timestamp < 0 or not 0 <= payload_len <= _MAX_PAYLOAD:
                    buffer[offset : offset + TSH_RECORD_BYTES] = encode_record(
                        packet_from_row(row)
                    )
                    offset += TSH_RECORD_BYTES
                    continue
                seconds = int(timestamp)
                micros = int(round((timestamp - seconds) * _MICROSECOND))
                if micros >= _MICROSECOND:
                    seconds += 1
                    micros -= _MICROSECOND
                total_length = HEADER_BYTES + payload_len
                total = (
                    0x4500
                    + total_length
                    + ip_id
                    + (ttl << 8 | PROTO_TCP)
                    + (src_ip >> 16)
                    + (src_ip & 0xFFFF)
                    + (dst_ip >> 16)
                    + (dst_ip & 0xFFFF)
                )
                total = (total & 0xFFFF) + (total >> 16)
                total = (total & 0xFFFF) + (total >> 16)
                try:
                    pack_into(
                        buffer,
                        offset,
                        seconds,
                        0x1000000 | micros,  # interface 1, then microseconds
                        0x45,
                        0,
                        total_length,
                        ip_id,
                        0,
                        ttl,
                        PROTO_TCP,
                        ~total & 0xFFFF,
                        src_ip,
                        dst_ip,
                        src_port,
                        dst_port,
                        seq,
                        ack,
                        0x50,
                        flags,
                        window,
                    )
                except struct.error:
                    encode_record(packet_from_row(row))  # raises, naming the field
                    raise
                offset += TSH_RECORD_BYTES
        finally:
            stream.write(memoryview(buffer)[:offset])
            count += offset // TSH_RECORD_BYTES
    return count


def read_tsh(stream: BinaryIO) -> Iterator[PacketRecord]:
    """Yield packets from a binary TSH stream.

    Raises ``ValueError`` on a truncated trailing record.
    """
    while True:
        record = stream.read(TSH_RECORD_BYTES)
        if not record:
            return
        if len(record) != TSH_RECORD_BYTES:
            raise ValueError(
                f"truncated TSH record: expected {TSH_RECORD_BYTES} bytes, "
                f"got {len(record)}"
            )
        yield decode_record(record)


def write_tsh_bytes(packets: Iterable[PacketRecord]) -> bytes:
    """Serialize packets to a TSH byte string (for size measurements)."""
    buffer = io.BytesIO()
    write_tsh(packets, buffer)
    return buffer.getvalue()


def read_tsh_bytes(data: bytes) -> list[PacketRecord]:
    """Parse a TSH byte string into a list of packets."""
    return list(read_tsh(io.BytesIO(data)))


def tsh_file_size(packet_count: int) -> int:
    """On-disk size in bytes of a TSH trace with ``packet_count`` packets."""
    if packet_count < 0:
        raise ValueError("packet count cannot be negative")
    return packet_count * TSH_RECORD_BYTES
