"""Flow keys.

The paper defines a packet flow as "a sequence of packets in which each
packet has the same value for a 5-tuple of source and destination IP
address, protocol number, and source and destination port number".

Two key forms are used:

* :class:`FiveTuple` — the direction-sensitive key straight from a packet;
* :meth:`FiveTuple.canonical` — a direction-insensitive key so that the
  two halves of a TCP conversation fall into the same bidirectional flow
  (the compressor models request/response dependence inside one flow).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.ip import format_ipv4

_HASH_PRIME = 0x100000001B3
_HASH_BASIS = 0xCBF29CE484222325
_HASH_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The classic (src ip, dst ip, protocol, src port, dst port) key."""

    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int

    def canonical(self) -> "FiveTuple":
        """Direction-insensitive form: lower endpoint ordered first.

        Endpoints are compared as (ip, port) pairs so that both directions
        of one conversation canonicalize identically.
        """
        forward = (self.src_ip, self.src_port)
        backward = (self.dst_ip, self.dst_port)
        if forward <= backward:
            return self
        return self.reversed()

    def reversed(self) -> "FiveTuple":
        """The same conversation seen from the opposite direction."""
        return FiveTuple(
            self.dst_ip, self.src_ip, self.protocol, self.dst_port, self.src_port
        )

    def is_forward_of(self, other: "FiveTuple") -> bool:
        """True when ``self`` equals ``other`` exactly (same direction)."""
        return self == other

    def describe(self) -> str:
        """Human-readable ``ip:port > ip:port proto`` rendering."""
        return (
            f"{format_ipv4(self.src_ip)}:{self.src_port} > "
            f"{format_ipv4(self.dst_ip)}:{self.dst_port} proto={self.protocol}"
        )


def flow_hash(key: FiveTuple) -> int:
    """A deterministic 64-bit FNV-1a hash of a 5-tuple.

    Section 3 stores in each linked-list node "a key (a hashing of source
    and destination IP addresses, source and destination port numbers, and
    protocol number)".  Python's builtin ``hash`` is salted per process, so
    a stable hash is provided for reproducibility and for the on-disk
    codec.
    """
    value = _HASH_BASIS
    for word in (
        key.src_ip,
        key.dst_ip,
        key.protocol,
        key.src_port,
        key.dst_port,
    ):
        for shift in (0, 8, 16, 24):
            value ^= (word >> shift) & 0xFF
            value = (value * _HASH_PRIME) & _HASH_MASK
    return value


# -- columnar (per-chunk) forms --------------------------------------------
#
# The columnar engine never builds FiveTuple objects on its hot path; a
# canonical flow is identified by a pair of integers packing the same
# information:
#
#   key_lo = lower endpoint (ip << 16 | port) << 8 | protocol   (56 bits)
#   key_hi = higher endpoint (ip << 16 | port)                  (48 bits)
#
# "lower" compares (ip, port) pairs exactly as FiveTuple.canonical does —
# lexicographic tuple order equals numeric order of ip << 16 | port since
# ports are 16-bit.  The pair is injective over canonical five-tuples, so
# dict identity on (key_lo, key_hi) matches dict identity on the
# canonical FiveTuple.


def canonical_key_columns(columns):
    """Per-row canonical key pair and direction of a chunk.

    Returns ``(key_lo, key_hi, forward)`` numpy arrays (two ``uint64``,
    one ``bool``); ``forward[i]`` is True
    when row ``i`` travels from the lower endpoint — two rows of one
    conversation share the key pair and differ in ``forward`` exactly
    when their :class:`FiveTuple` forms differ.
    """
    import numpy as np

    src_ip = np.asarray(columns.src_ip, dtype=np.uint64)
    dst_ip = np.asarray(columns.dst_ip, dtype=np.uint64)
    src_port = np.asarray(columns.src_port, dtype=np.uint64)
    dst_port = np.asarray(columns.dst_port, dtype=np.uint64)
    protocol = np.asarray(columns.protocol, dtype=np.uint64)
    forward_end = (src_ip << np.uint64(16)) | src_port
    backward_end = (dst_ip << np.uint64(16)) | dst_port
    forward = forward_end <= backward_end
    low = np.where(forward, forward_end, backward_end)
    high = np.where(forward, backward_end, forward_end)
    key_lo = (low << np.uint64(8)) | protocol
    return key_lo, high, forward
