"""The packet record: a 40-byte TCP/IP header plus timing information.

The paper (section 1) assumes "the more common case of storing the TCP/IP
packet headers plus timing information only", with a mean packet length of
400 bytes but a stored header of 40 bytes (20 B IP + 20 B TCP).
``PacketRecord`` is the in-memory form of one such stored header.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.net.flowkey import FiveTuple
from repro.net.tcp import classify_flags, flags_to_str
from repro.net.ip import format_ipv4

HEADER_BYTES = 40
"""Stored bytes per packet header (20 B IPv4 + 20 B TCP, no options)."""

PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(slots=True)
class PacketRecord:
    """One captured packet header.

    Attributes
    ----------
    timestamp:
        Capture time in seconds (float, microsecond resolution is enough
        for TSH round-trips).
    src_ip, dst_ip:
        32-bit integer IPv4 addresses.
    src_port, dst_port:
        TCP/UDP port numbers.
    protocol:
        IP protocol number (6 for TCP).
    flags:
        Raw TCP flag byte (FIN/SYN/RST/PSH/ACK/URG bits).
    payload_len:
        TCP payload size in bytes (IP total length minus 40 header bytes).
    seq, ack:
        TCP sequence / acknowledgment numbers (mod 2**32).
    ttl:
        IP time-to-live.
    ip_id:
        IP identification field.
    window:
        TCP advertised window.
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP
    flags: int = 0
    payload_len: int = 0
    seq: int = 0
    ack: int = 0
    ttl: int = 64
    ip_id: int = 0
    window: int = 65535

    def five_tuple(self) -> FiveTuple:
        """The flow key of this packet (direction-sensitive)."""
        return FiveTuple(
            self.src_ip, self.dst_ip, self.protocol, self.src_port, self.dst_port
        )

    def total_length(self) -> int:
        """IP total length: stored header bytes plus payload bytes."""
        return HEADER_BYTES + self.payload_len

    def flag_class(self) -> int:
        """The paper's g1 class of this packet's TCP flags."""
        return int(classify_flags(self.flags))

    def reversed(self) -> "PacketRecord":
        """A copy with source and destination endpoints swapped."""
        return replace(
            self,
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def describe(self) -> str:
        """One-line human-readable rendering (debugging aid)."""
        return (
            f"{self.timestamp:.6f} "
            f"{format_ipv4(self.src_ip)}:{self.src_port} > "
            f"{format_ipv4(self.dst_ip)}:{self.dst_port} "
            f"[{flags_to_str(self.flags)}] len={self.payload_len}"
        )


def validate_packet(packet: PacketRecord) -> None:
    """Raise ``ValueError`` if a record is not encodable as a TSH header."""
    if packet.timestamp < 0:
        raise ValueError(f"negative timestamp: {packet.timestamp}")
    for label, value, limit in (
        ("src_ip", packet.src_ip, 0xFFFFFFFF),
        ("dst_ip", packet.dst_ip, 0xFFFFFFFF),
        ("src_port", packet.src_port, 0xFFFF),
        ("dst_port", packet.dst_port, 0xFFFF),
        ("protocol", packet.protocol, 0xFF),
        ("flags", packet.flags, 0xFF),
        ("ttl", packet.ttl, 0xFF),
        ("ip_id", packet.ip_id, 0xFFFF),
        ("window", packet.window, 0xFFFF),
        ("seq", packet.seq, 0xFFFFFFFF),
        ("ack", packet.ack, 0xFFFFFFFF),
    ):
        if not 0 <= value <= limit:
            raise ValueError(f"{label} out of range: {value}")
    if not 0 <= packet.payload_len <= 0xFFFF - HEADER_BYTES:
        raise ValueError(f"payload_len out of range: {packet.payload_len}")


# -- replay rows ---------------------------------------------------------------
#
# The decompressor synthesizes packets as plain tuples, not records:
#
#     (timestamp, src_ip, src_port, dst_ip, seq, order, position,
#      dst_port, flags, payload_len, ack, ip_id, ttl, window)
#
# The first seven fields are the replay's global merge key: the packet
# order key, then the flow's ``FlowSpec.order`` tuple and the packet's
# position in its flow, which make every key unique.  A plain
# ``list.sort()`` of rows is therefore the replay order, and no sort
# ever compares past the position.  Replayed packets are always TCP.


def packet_from_row(row: tuple) -> PacketRecord:
    """The :class:`PacketRecord` one replay row describes."""
    (
        timestamp, src_ip, src_port, dst_ip, seq, _order, _position,
        dst_port, flags, payload_len, ack, ip_id, ttl, window,
    ) = row
    return PacketRecord(
        timestamp, src_ip, dst_ip, src_port, dst_port, PROTO_TCP, flags,
        payload_len, seq, ack, ttl, ip_id, window,
    )


def packets_from_rows(rows: list[tuple]) -> list[PacketRecord]:
    """:func:`packet_from_row` over a batch of rows, in order."""
    return list(map(packet_from_row, rows))
