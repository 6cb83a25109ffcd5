"""The ``.fctca`` segmented archive container.

Layout::

    header   : magic "FCTA", version, epoch (f64 seconds)
    segments : N back-to-back ``.fctc`` containers (codec.write_compressed)
    footer   : magic "FIDX", entry count, one index entry per segment
    trailer  : footer offset (u64), footer length (u32), magic "AEND"

The fixed-size trailer at the end of the file locates the footer, so a
reader seeks twice (trailer, footer) and then knows every segment's byte
range and coarse statistics without touching segment data.  Appending
truncates the old footer, writes new segments in its place, and rewrites
footer + trailer — segment bytes are never moved.

Two archive generations exist (``docs/FORMAT.md`` is the normative
spec): **v1** footers carry no backend information; **v2** footers (the
writer's default) add four backend-tag bytes per index entry recording
which :mod:`repro.core.backends` codec stored each section of the
segment's ``.fctc`` container.  The reader accepts both, and appending
to a v1 archive rewrites its footer as v2 in place — segment bytes are
never touched, so v1 segments keep decoding byte-identically.

Each :class:`SegmentIndexEntry` carries what the query planner needs to
*rule a segment out* without decoding it: the segment's byte range, its
time-seq timestamp bounds, flow/packet counts, per-flow packet-count and
RTT bounds, and an :class:`AddressSummary` of the destinations it
references (an exact sorted u32 set for small segments, a Bloom filter
above :data:`EXACT_SUMMARY_MAX` uniques).  Index checks are conservative:
a ``False`` is a guarantee the segment holds no match, a ``True`` only a
possibility.

All timestamps in the index are stored in the codec's 100 µs units and
are relative to the archive ``epoch`` — the same clock the segments'
time-seq records use.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable
from zlib import crc32

from repro.core.codec import quantize_rtt, quantize_timestamp
from repro.core.datasets import CompressedTrace
from repro.core.errors import ArchiveError

ARCHIVE_MAGIC = b"FCTA"
ARCHIVE_VERSION_V1 = 1  # legacy: no per-segment backend tags in the index
ARCHIVE_VERSION_V2 = 2  # four section-backend tag bytes per index entry
ARCHIVE_VERSION = ARCHIVE_VERSION_V2  # what the writer emits
FOOTER_MAGIC = b"FIDX"
TRAILER_MAGIC = b"AEND"

HEADER = struct.Struct(">4sB3xd")  # magic, version, pad, epoch seconds
TRAILER = struct.Struct(">QI4s")  # footer offset, footer length, magic
_FOOTER_HEAD = struct.Struct(">4sI")  # magic, entry count
_ENTRY_FIXED = struct.Struct(">QQIIIIIIIHHIBI")
_ENTRY_BACKENDS = struct.Struct(">4B")  # v2: one backend tag per section

RAW_SECTION_BACKENDS = (0, 0, 0, 0)
"""The tag tuple of an untagged (v1) segment: every section is raw."""

EXACT_SUMMARY_MAX = 512
"""Unique destinations up to which the summary stays an exact sorted set."""

BLOOM_BITS_PER_ADDRESS = 10
BLOOM_HASHES = 4

SUMMARY_EXACT = 0
SUMMARY_BLOOM = 1


def _bloom_bits(address: int, bit_count: int) -> Iterable[int]:
    key = struct.pack(">I", address)
    h1 = crc32(key)
    h2 = crc32(key, 0x9E3779B9) | 1  # odd step so all bits stay reachable
    return ((h1 + i * h2) % bit_count for i in range(BLOOM_HASHES))


@dataclass(frozen=True)
class AddressSummary:
    """Compact may-contain summary of a segment's destination addresses.

    ``SUMMARY_EXACT`` payloads are a sorted tuple of u32 addresses —
    membership and prefix-range checks are exact.  ``SUMMARY_BLOOM``
    payloads are a Bloom filter: membership may report false positives
    (never false negatives) and prefix checks degrade to "maybe".
    """

    mode: int
    addresses: tuple[int, ...] = ()
    bloom: bytes = b""

    @classmethod
    def build(
        cls, addresses: Iterable[int], exact_max: int = EXACT_SUMMARY_MAX
    ) -> "AddressSummary":
        unique = sorted(set(addresses))
        if len(unique) <= exact_max:
            return cls(mode=SUMMARY_EXACT, addresses=tuple(unique))
        bit_count = max(8, len(unique) * BLOOM_BITS_PER_ADDRESS)
        bit_count += -bit_count % 8
        bits = bytearray(bit_count // 8)
        for address in unique:
            for bit in _bloom_bits(address, bit_count):
                bits[bit >> 3] |= 1 << (bit & 7)
        return cls(mode=SUMMARY_BLOOM, bloom=bytes(bits))

    def may_contain(self, address: int) -> bool:
        """False guarantees the segment never references ``address``."""
        if self.mode == SUMMARY_EXACT:
            position = bisect_left(self.addresses, address)
            return (
                position < len(self.addresses)
                and self.addresses[position] == address
            )
        bit_count = len(self.bloom) * 8
        if bit_count == 0:
            return False
        return all(
            self.bloom[bit >> 3] & (1 << (bit & 7))
            for bit in _bloom_bits(address, bit_count)
        )

    def may_contain_range(self, low: int, high: int) -> bool:
        """False guarantees no referenced address falls in [low, high].

        Exact summaries answer precisely via a sorted-set range probe;
        Bloom filters cannot enumerate, so any non-degenerate range is a
        "maybe" (single-address ranges still use the membership test).
        """
        if low > high:
            return False
        if self.mode == SUMMARY_EXACT:
            position = bisect_left(self.addresses, low)
            return (
                position < len(self.addresses) and self.addresses[position] <= high
            )
        if low == high:
            return self.may_contain(low)
        return True

    def payload(self) -> bytes:
        if self.mode == SUMMARY_EXACT:
            return struct.pack(f">{len(self.addresses)}I", *self.addresses)
        return self.bloom

    @classmethod
    def from_payload(cls, mode: int, payload: bytes) -> "AddressSummary":
        if mode == SUMMARY_EXACT:
            if len(payload) % 4:
                raise ArchiveError(
                    f"exact address summary length not a multiple of 4: "
                    f"{len(payload)}"
                )
            return cls(
                mode=SUMMARY_EXACT,
                addresses=struct.unpack(f">{len(payload) // 4}I", payload),
            )
        if mode == SUMMARY_BLOOM:
            return cls(mode=SUMMARY_BLOOM, bloom=payload)
        raise ArchiveError(f"unknown address summary mode: {mode}")


@dataclass(frozen=True)
class SegmentIndexEntry:
    """One footer record: where a segment lives and what it can contain.

    ``section_backends`` (v2 footers) carries the wire tag of the
    backend that stored each of the segment's four ``.fctc`` sections,
    in :data:`~repro.core.codec.SECTION_NAMES` order — so ``archive
    info`` can report per-segment codecs without touching segment bytes.
    Entries parsed from a v1 footer report
    :data:`RAW_SECTION_BACKENDS`, which is exact: v1 segments store
    every section raw.
    """

    offset: int
    length: int
    time_min_units: int
    time_max_units: int
    flow_count: int
    short_flow_count: int
    packet_count: int
    min_flow_packets: int
    max_flow_packets: int
    min_rtt_units: int
    max_rtt_units: int
    address_count: int
    summary: AddressSummary
    section_backends: tuple[int, int, int, int] = RAW_SECTION_BACKENDS

    @property
    def time_min(self) -> float:
        """Earliest time-seq timestamp, seconds since the archive epoch."""
        return self.time_min_units / 10_000

    @property
    def time_max(self) -> float:
        """Latest time-seq timestamp, seconds since the archive epoch."""
        return self.time_max_units / 10_000

    @property
    def long_flow_count(self) -> int:
        return self.flow_count - self.short_flow_count

    @property
    def min_rtt(self) -> float:
        return self.min_rtt_units / 10_000

    @property
    def max_rtt(self) -> float:
        return self.max_rtt_units / 10_000

    def pack(self, version: int = ARCHIVE_VERSION) -> bytes:
        payload = self.summary.payload()
        packed = _ENTRY_FIXED.pack(
            self.offset,
            self.length,
            self.time_min_units,
            self.time_max_units,
            self.flow_count,
            self.short_flow_count,
            self.packet_count,
            self.min_flow_packets,
            self.max_flow_packets,
            self.min_rtt_units,
            self.max_rtt_units,
            self.address_count,
            self.summary.mode,
            len(payload),
        )
        if version >= ARCHIVE_VERSION_V2:
            packed += _ENTRY_BACKENDS.pack(*self.section_backends)
        return packed + payload

    @classmethod
    def unpack(
        cls, data: bytes, position: int, version: int = ARCHIVE_VERSION
    ) -> tuple["SegmentIndexEntry", int]:
        """Parse one entry at ``position``; returns (entry, next position)."""
        end = position + _ENTRY_FIXED.size
        if end > len(data):
            raise ArchiveError("truncated archive index entry")
        (
            offset,
            length,
            time_min_units,
            time_max_units,
            flow_count,
            short_flow_count,
            packet_count,
            min_flow_packets,
            max_flow_packets,
            min_rtt_units,
            max_rtt_units,
            address_count,
            summary_mode,
            summary_length,
        ) = _ENTRY_FIXED.unpack_from(data, position)
        section_backends = RAW_SECTION_BACKENDS
        if version >= ARCHIVE_VERSION_V2:
            if end + _ENTRY_BACKENDS.size > len(data):
                raise ArchiveError("truncated archive index entry backends")
            section_backends = _ENTRY_BACKENDS.unpack_from(data, end)
            end += _ENTRY_BACKENDS.size
        if end + summary_length > len(data):
            raise ArchiveError("truncated archive address summary")
        summary = AddressSummary.from_payload(
            summary_mode, bytes(data[end : end + summary_length])
        )
        entry = cls(
            offset=offset,
            length=length,
            time_min_units=time_min_units,
            time_max_units=time_max_units,
            flow_count=flow_count,
            short_flow_count=short_flow_count,
            packet_count=packet_count,
            min_flow_packets=min_flow_packets,
            max_flow_packets=max_flow_packets,
            min_rtt_units=min_rtt_units,
            max_rtt_units=max_rtt_units,
            address_count=address_count,
            summary=summary,
            section_backends=section_backends,
        )
        return entry, end + summary_length


def index_entry_for(
    compressed: CompressedTrace,
    offset: int,
    length: int,
    section_backends: tuple[int, int, int, int] = RAW_SECTION_BACKENDS,
) -> SegmentIndexEntry:
    """Build the footer entry describing one serialized segment.

    Bounds are computed over the *quantized* (on-disk) values so the
    index is exact with respect to what a decoder will see — a query
    compared against these bounds can never miss a decoded record.
    ``section_backends`` records the wire tags the segment's serializer
    actually used (:attr:`~repro.core.codec.ContainerWriteResult.backend_tags`).
    """
    columns = compressed.time_seq
    if not columns:
        raise ArchiveError("refusing to index an empty segment")
    # Both quantizers are monotone (saturation included), so quantizing
    # the raw extremes gives the extremes of the quantized values.
    timestamps, rtts = columns.timestamps, columns.rtts
    flow_packets = compressed.flow_packets()
    return SegmentIndexEntry(
        offset=offset,
        length=length,
        time_min_units=quantize_timestamp(min(timestamps)),
        time_max_units=quantize_timestamp(max(timestamps)),
        flow_count=len(timestamps),
        short_flow_count=len(timestamps) - sum(columns.long),
        packet_count=compressed.original_packet_count,
        min_flow_packets=min(flow_packets),
        max_flow_packets=max(flow_packets),
        min_rtt_units=quantize_rtt(min(rtts)),
        max_rtt_units=quantize_rtt(max(rtts)),
        address_count=len(compressed.addresses),
        summary=AddressSummary.build(compressed.addresses),
        section_backends=tuple(section_backends),
    )


def pack_footer(
    entries: Iterable[SegmentIndexEntry], version: int = ARCHIVE_VERSION
) -> bytes:
    """Serialize the footer (index head + every entry)."""
    packed = [entry.pack(version) for entry in entries]
    return _FOOTER_HEAD.pack(FOOTER_MAGIC, len(packed)) + b"".join(packed)


def unpack_footer(
    data: bytes, version: int = ARCHIVE_VERSION
) -> list[SegmentIndexEntry]:
    """Parse a footer produced by :func:`pack_footer`.

    ``version`` is the archive header's version byte — v1 footers have
    no per-entry backend tags, so entries come back with
    :data:`RAW_SECTION_BACKENDS`.
    """
    if len(data) < _FOOTER_HEAD.size:
        raise ArchiveError("truncated archive footer")
    magic, count = _FOOTER_HEAD.unpack_from(data, 0)
    if magic != FOOTER_MAGIC:
        raise ArchiveError(f"bad archive footer magic: {magic!r}")
    entries: list[SegmentIndexEntry] = []
    position = _FOOTER_HEAD.size
    for _ in range(count):
        entry, position = SegmentIndexEntry.unpack(data, position, version)
        entries.append(entry)
    if position != len(data):
        raise ArchiveError("trailing bytes after archive footer")
    return entries
