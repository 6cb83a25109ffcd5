"""Incremental (sans-IO) frame decoders for capture byte streams.

Every reader in the library used to own its buffering: the chunked TSH
reader carried partial-record tails between ``read`` calls, the pcap
reader assumed a seekable stream it could ``read`` exactly-n bytes from.
A live tap has neither luxury — bytes arrive in whatever slices the
kernel hands a socket or a growing file, and the decoder must accept
them *all*, emit the packets that are complete, and hold the remainder.

This module is that buffering, factored out once and shared:

:class:`RecordChunker`
    Fixed-size record framing (TSH's 44-byte records): bytes in, blocks
    of whole records out, partial tail carried.  The chunked TSH file
    reader (:mod:`repro.trace.reader`) and the TSH stream decoder are
    both built on it.

:class:`LengthFramer`
    The socket transport framing of ``repro serve``: each frame is a
    4-byte big-endian payload length followed by the payload; a
    zero-length frame marks a clean end of stream.  Payloads are
    *transport* chunking only — consecutive payloads concatenate into
    one continuous TSH or pcap byte stream.

:class:`TshStreamDecoder` / :class:`PcapStreamDecoder`
    Format decoders: feed arbitrary byte slices, get the completed
    packets back — as a :class:`~repro.net.columns.PacketColumns`
    chunk from ``feed_columns`` (what the serve daemon queues) or as
    :class:`~repro.net.packet.PacketRecord` lists from ``feed``.  The
    TSH decoder rides the vectorized block decoder
    (:func:`~repro.trace.tsh.decode_columns`), so a socket feed keeps
    the columnar hot path and records are only a view of the columns.
    The pcap decoder is the incremental core
    :func:`~repro.trace.pcaplite.read_pcap` and
    :func:`~repro.trace.pcaplite.read_pcap_columns` wrap; its
    ``feed_columns`` decodes runs of the fixed 56-byte records this
    library writes through one structured numpy view.

All four are sans-IO: no sockets, no files, no event loop — any driver
(asyncio today, a selectors loop tomorrow) can pump them.
"""

from __future__ import annotations

import struct

from repro.net.columns import PacketColumns, columns_from_records, concat_columns
from repro.net.packet import HEADER_BYTES, PacketRecord
from repro.trace.pcaplite import LINKTYPE_RAW, PCAP_MAGIC
from repro.trace.tsh import TSH_RECORD_BYTES, decode_columns

FRAME_HEADER = struct.Struct(">I")
"""Socket frame header: one big-endian u32 payload length."""

DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024
"""Reject frames above this payload size (a corrupt or hostile peer)."""

FORMAT_TSH = "tsh"
FORMAT_PCAP = "pcap"
STREAM_FORMATS = (FORMAT_TSH, FORMAT_PCAP)

_PCAP_GLOBAL = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")
_PCAP_IP = struct.Struct(">BBHHHBBHII")
_PCAP_TCP = struct.Struct(">HHIIBBHHH")
_MICROSECOND = 1_000_000
_MAX_ORIGINAL = HEADER_BYTES + 2**31 - 1  # payload_len is an int32 column

# One pcap record as this library writes it: the record header, then a
# 40-byte TCP/IP snapshot (captured length 40).
_PCAP_FIXED_BYTES = _PCAP_RECORD.size + HEADER_BYTES
_PCAP_FIXED_FIELDS = [
    ("sec", "<u4"), ("usec", "<u4"), ("captured", "<u4"), ("original", "<u4"),
    ("ver_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ip_id", ">u2"),
    ("frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("ip_check", ">u2"),
    ("src_ip", ">u4"), ("dst_ip", ">u4"),
    ("src_port", ">u2"), ("dst_port", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
    ("offset", "u1"), ("flags", "u1"), ("window", ">u2"), ("tcp_check", ">u2"),
    ("urgent", ">u2"),
]
_pcap_fixed_dtype = None
# A fixed run is checked 16 records first, then up to this many: an odd
# record right after a short run wastes little.
_PCAP_RUN_PROBE = 16
_PCAP_RUN_MAX = 8192


class FrameDecodeError(ValueError):
    """A byte stream violates its declared framing or format."""


class RecordChunker:
    """Re-block an arbitrary byte feed into whole fixed-size records.

    ``feed`` returns the largest prefix of buffered bytes that is a
    whole number of records (possibly ``b""``); the sub-record tail is
    carried into the next call.  ``finish`` raises
    :class:`FrameDecodeError` if a partial record is left over — the
    shared truncation check of the file readers and the live decoders.
    """

    __slots__ = ("record_bytes", "label", "_pending")

    def __init__(self, record_bytes: int, *, label: str = "record") -> None:
        if record_bytes < 1:
            raise ValueError(f"record_bytes must be >= 1: {record_bytes}")
        self.record_bytes = record_bytes
        self.label = label
        self._pending = b""

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes not yet forming a whole record."""
        return len(self._pending)

    def feed(self, data: bytes) -> bytes:
        buffer = self._pending + data if self._pending else bytes(data)
        usable = len(buffer) - len(buffer) % self.record_bytes
        self._pending = buffer[usable:]
        return buffer[:usable]

    def finish(self) -> None:
        if self._pending:
            raise FrameDecodeError(
                f"truncated {self.label}: expected {self.record_bytes} "
                f"bytes, got {len(self._pending)}"
            )


class LengthFramer:
    """Decode the length-prefixed socket transport of ``repro serve``.

    ``feed`` returns the payload byte strings of every frame completed
    by the new data, in order.  A zero-length frame is the clean
    end-of-stream marker: :attr:`eof` becomes true and any bytes after
    it are a protocol error.  ``finish`` validates that the stream
    ended on a frame boundary (a peer that closed mid-frame raises).
    """

    __slots__ = ("max_frame_bytes", "_buffer", "_eof")

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError(f"max_frame_bytes must be >= 1: {max_frame_bytes}")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = b""
        self._eof = False

    @property
    def eof(self) -> bool:
        """True once the zero-length end-of-stream frame was seen."""
        return self._eof

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        if self._eof and data:
            raise FrameDecodeError("bytes after the end-of-stream frame")
        self._buffer += data
        payloads: list[bytes] = []
        while len(self._buffer) >= FRAME_HEADER.size:
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise FrameDecodeError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if length == 0:
                self._eof = True
                if len(self._buffer) > FRAME_HEADER.size:
                    raise FrameDecodeError("bytes after the end-of-stream frame")
                self._buffer = b""
                break
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            payloads.append(self._buffer[FRAME_HEADER.size : end])
            self._buffer = self._buffer[end:]
        return payloads

    def finish(self) -> None:
        if self._buffer:
            raise FrameDecodeError(
                f"stream ended inside a frame ({len(self._buffer)} "
                "buffered byte(s))"
            )


def frame(payload: bytes) -> bytes:
    """Wrap one payload in the serve socket framing (client-side helper)."""
    return FRAME_HEADER.pack(len(payload)) + payload


END_OF_STREAM = FRAME_HEADER.pack(0)
"""The clean end-of-stream frame a well-behaved client sends last."""


class TshStreamDecoder:
    """Incremental TSH decoder: arbitrary byte slices in, packets out.

    Thin composition of :class:`RecordChunker` and the block decoder —
    each ``feed_columns`` decodes every completed 44-byte record in one
    vectorized numpy pass, exactly the bytes-to-packets path of the
    chunked file reader.  ``feed`` is the same chunk materialized as records.
    """

    format = FORMAT_TSH
    __slots__ = ("_chunker", "_empty")

    def __init__(self) -> None:
        self._chunker = RecordChunker(TSH_RECORD_BYTES, label="TSH record")
        self._empty: PacketColumns | None = None

    @property
    def pending_bytes(self) -> int:
        return self._chunker.pending_bytes

    def feed_columns(self, data: bytes) -> PacketColumns:
        """Every record ``data`` completes, as one (maybe empty) chunk."""
        block = self._chunker.feed(data)
        if block:
            return decode_columns(block)
        # A sub-record feed completes nothing; reuse one decoded empty
        # chunk rather than paying a vectorized decode of zero rows.
        if self._empty is None:
            self._empty = decode_columns(block)
        return self._empty

    def feed(self, data: bytes) -> list[PacketRecord]:
        return self.feed_columns(data).to_records()

    def finish(self) -> None:
        self._chunker.finish()


class PcapStreamDecoder:
    """Incremental pcap decoder for the subset this library writes.

    Consumes the 24-byte global header, then per-record headers and
    bodies, from arbitrarily sliced input.  Only little-endian classic
    pcap with the raw-IP link type and whole TCP/IP headers is accepted
    (what :func:`repro.trace.pcaplite.write_pcap` emits); anything else
    raises :class:`FrameDecodeError` — on a live socket a wrong-format
    peer must fail fast, not feed garbage packets into an archive.
    """

    format = FORMAT_PCAP
    __slots__ = ("_buffer", "_header_done")

    def __init__(self) -> None:
        self._buffer = b""
        self._header_done = False

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[PacketRecord]:
        """Every packet ``data`` completes, one record at a time."""
        return self._decode(data, runs=False)

    def feed_columns(self, data: bytes) -> PacketColumns:
        """Every packet ``data`` completes, as one (maybe empty) chunk.

        Runs of fixed 56-byte records decode through one structured
        numpy view; any other record shape takes :meth:`feed`'s record
        step.  Rows, and the error raised at a malformed record, are
        :meth:`feed`'s.
        """
        pieces = self._decode(data, runs=True)
        chunks: list[PacketColumns] = []
        records: list[PacketRecord] = []
        for piece in pieces:
            if isinstance(piece, PacketColumns):
                if records:
                    chunks.append(columns_from_records(records))
                    records = []
                chunks.append(piece)
            else:
                records.append(piece)
        if records or not chunks:
            chunks.append(columns_from_records(records))
        return concat_columns(chunks)

    def _decode(self, data: bytes, runs: bool) -> list:
        """Decode what ``data`` completes: records, plus column blocks for
        the fixed-record runs when ``runs`` is set."""
        buffer = self._buffer + data if self._buffer else bytes(data)
        pieces: list = []
        # Walk the buffer by offset and trim it once per feed: re-slicing
        # after every record would copy the rest of the buffer each time.
        offset = 0
        try:
            if not self._header_done:
                if len(buffer) < _PCAP_GLOBAL.size:
                    return pieces
                magic, _major, _minor, _zone, _sigfigs, _snaplen, linktype = (
                    _PCAP_GLOBAL.unpack_from(buffer)
                )
                if magic != PCAP_MAGIC:
                    raise FrameDecodeError(f"unsupported pcap magic: {magic:#x}")
                if linktype != LINKTYPE_RAW:
                    raise FrameDecodeError(f"unsupported link type: {linktype}")
                offset = _PCAP_GLOBAL.size
                self._header_done = True
            while len(buffer) - offset >= _PCAP_RECORD.size:
                seconds, micros, captured, original = _PCAP_RECORD.unpack_from(
                    buffer, offset
                )
                if runs and captured == HEADER_BYTES and original <= _MAX_ORIGINAL:
                    run = _fixed_run(buffer, offset)
                    if run:
                        pieces.append(_decode_fixed_run(buffer, offset, run))
                        offset += run * _PCAP_FIXED_BYTES
                        continue
                if captured < HEADER_BYTES:
                    raise FrameDecodeError(
                        f"record too short for TCP/IP headers: {captured}"
                    )
                if original > _MAX_ORIGINAL:
                    raise FrameDecodeError(f"record length out of range: {original}")
                body = offset + _PCAP_RECORD.size
                if len(buffer) < body + captured:
                    break
                pieces.append(
                    _decode_pcap_body(seconds, micros, original, buffer, body)
                )
                offset = body + captured
            return pieces
        finally:
            self._buffer = buffer[offset:]

    def finish(self) -> None:
        if self._buffer or not self._header_done:
            what = "global header" if not self._header_done else "record"
            raise FrameDecodeError(
                f"truncated pcap {what} ({len(self._buffer)} buffered byte(s))"
            )


def _fixed_run(buffer: bytes, offset: int) -> int:
    """How many whole fixed 56-byte records start at ``offset``, in a row."""
    import numpy as np

    global _pcap_fixed_dtype
    if _pcap_fixed_dtype is None:
        _pcap_fixed_dtype = np.dtype(_PCAP_FIXED_FIELDS)
    available = min((len(buffer) - offset) // _PCAP_FIXED_BYTES, _PCAP_RUN_MAX)
    for count in (min(available, _PCAP_RUN_PROBE), available):
        rows = np.frombuffer(buffer, dtype=_pcap_fixed_dtype, count=count, offset=offset)
        fixed = (rows["captured"] == HEADER_BYTES) & (rows["original"] <= _MAX_ORIGINAL)
        if not fixed.all():
            return int(fixed.argmin())
    return available


def _decode_fixed_run(buffer: bytes, offset: int, count: int) -> PacketColumns:
    """``count`` fixed records at ``offset`` as a chunk — the values
    :func:`_decode_pcap_body` gives, column by column."""
    import numpy as np

    rows = np.frombuffer(buffer, dtype=_pcap_fixed_dtype, count=count, offset=offset)
    return PacketColumns(
        timestamps=rows["sec"].astype(np.float64) + rows["usec"] / _MICROSECOND,
        src_ip=rows["src_ip"].astype(np.uint32),
        dst_ip=rows["dst_ip"].astype(np.uint32),
        src_port=rows["src_port"].astype(np.uint16),
        dst_port=rows["dst_port"].astype(np.uint16),
        protocol=rows["proto"].copy(),
        flags=rows["flags"].copy(),
        payload_len=np.maximum(
            rows["original"].astype(np.int64) - HEADER_BYTES, 0
        ).astype(np.int32),
        seq=rows["seq"].astype(np.uint32),
        ack=rows["ack"].astype(np.uint32),
        ttl=rows["ttl"].copy(),
        ip_id=rows["ip_id"].astype(np.uint16),
        window=rows["window"].astype(np.uint16),
    )


def _decode_pcap_body(
    seconds: int, micros: int, original: int, buffer: bytes, offset: int
) -> PacketRecord:
    """Decode the captured 40-byte header snapshot at ``offset``."""
    (
        _ver_ihl,
        _tos,
        _total_length,
        ip_id,
        _frag,
        ttl,
        protocol,
        _checksum,
        src_ip,
        dst_ip,
    ) = _PCAP_IP.unpack_from(buffer, offset)
    (src_port, dst_port, seq, ack, _off, flags, window, _ck, _urg) = (
        _PCAP_TCP.unpack_from(buffer, offset + 20)
    )
    return PacketRecord(
        timestamp=seconds + micros / _MICROSECOND,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        flags=flags,
        payload_len=max(0, original - HEADER_BYTES),
        seq=seq,
        ack=ack,
        ttl=ttl,
        ip_id=ip_id,
        window=window,
    )


def stream_decoder(format: str):
    """Build the decoder for a serve source format name."""
    if format == FORMAT_TSH:
        return TshStreamDecoder()
    if format == FORMAT_PCAP:
        return PcapStreamDecoder()
    raise ValueError(
        f"unknown stream format {format!r} (expected one of "
        f"{'/'.join(STREAM_FORMATS)})"
    )
