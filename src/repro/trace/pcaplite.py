"""Minimal pcap reader/writer (headers only).

The library's native format is TSH (:mod:`repro.trace.tsh`); this module
exists for interoperability so generated or decompressed traces can be
inspected with standard tools.  It writes classic (non-ng) pcap files with
raw-IP link type, emitting for each packet a synthetic 40-byte TCP/IP
header whose ``total length`` field carries the true packet length (the
payload itself is not stored — snap length 40, exactly what a header
capture produces).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.net.columns import PacketColumns, concat_columns
from repro.net.packet import HEADER_BYTES, PacketRecord, validate_packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_RAW = 101  # raw IPv4/IPv6

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_IP_HEADER = struct.Struct(">BBHHHBBHII")
_TCP_HEADER = struct.Struct(">HHIIBBHHH")
_MICROSECOND = 1_000_000


def _packet_bytes(packet: PacketRecord) -> bytes:
    """The 40 header bytes of a packet as they would appear on the wire."""
    ip_header = _IP_HEADER.pack(
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
    tcp_header = _TCP_HEADER.pack(
        packet.src_port,
        packet.dst_port,
        packet.seq,
        packet.ack,
        0x50,
        packet.flags,
        packet.window,
        0,  # checksum
        0,  # urgent pointer
    )
    return ip_header + tcp_header


def write_pcap(packets: Iterable[PacketRecord], stream: BinaryIO) -> int:
    """Write a pcap file with 40-byte header snapshots; returns count."""
    write_pcap_header(stream)
    return write_pcap_records(packets, stream)


def write_pcap_header(stream: BinaryIO) -> None:
    """Write the pcap global header (once, before any record)."""
    stream.write(
        _GLOBAL_HEADER.pack(
            PCAP_MAGIC,
            PCAP_VERSION[0],
            PCAP_VERSION[1],
            0,  # thiszone
            0,  # sigfigs
            HEADER_BYTES,  # snaplen
            LINKTYPE_RAW,
        )
    )


def write_pcap_records(packets: Iterable[PacketRecord], stream: BinaryIO) -> int:
    """Append pcap records after :func:`write_pcap_header`; returns count."""
    count = 0
    for packet in packets:
        validate_packet(packet)
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * _MICROSECOND))
        if micros >= _MICROSECOND:
            seconds += 1
            micros -= _MICROSECOND
        payload = _packet_bytes(packet)
        stream.write(
            _RECORD_HEADER.pack(seconds, micros, len(payload), packet.total_length())
        )
        stream.write(payload)
        count += 1
    return count


_READ_CHUNK_BYTES = 1 << 16


def read_pcap(stream: BinaryIO) -> Iterator[PacketRecord]:
    """Yield packets from a pcap file written by :func:`write_pcap`.

    Only the subset this library writes is supported (little-endian,
    raw-IP link type, TCP/UDP headers present).  A thin file pump over
    the incremental :class:`~repro.trace.framing.PcapStreamDecoder` —
    the same decoder a ``repro serve`` socket source runs — so the file
    and live paths can never diverge on what they accept.
    """
    from repro.trace.framing import PcapStreamDecoder

    decoder = PcapStreamDecoder()
    while True:
        data = stream.read(_READ_CHUNK_BYTES)
        if not data:
            decoder.finish()
            return
        yield from decoder.feed(data)


def read_pcap_columns(
    path: str | Path, chunk_size: int
) -> Iterator[PacketColumns]:
    """A pcap file as columnar chunks of ``chunk_size`` packets — the
    pcap :func:`~repro.trace.reader.read_columns`, over the stream
    decoder's :meth:`~repro.trace.framing.PcapStreamDecoder.feed_columns`."""
    from repro.trace.framing import PcapStreamDecoder

    decoder = PcapStreamDecoder()
    pending: list[PacketColumns] = []
    held = 0
    with open(path, "rb") as stream:
        while data := stream.read(max(_READ_CHUNK_BYTES, chunk_size * 56)):
            columns = decoder.feed_columns(data)
            if not len(columns):
                continue
            pending.append(columns)
            held += len(columns)
            if held >= chunk_size:
                merged = concat_columns(pending)
                whole = held - held % chunk_size
                for start in range(0, whole, chunk_size):
                    yield merged.slice(start, start + chunk_size)
                pending = [merged.slice(whole, held)] if whole < held else []
                held -= whole
        decoder.finish()
    if held:
        yield concat_columns(pending)
