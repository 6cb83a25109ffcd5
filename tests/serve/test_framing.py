"""The sans-IO frame decoders behind both the file readers and serve.

The invariant every test here leans on: feeding a byte stream in
*arbitrary* slices must decode exactly what one whole-buffer pass
decodes — that equivalence is what lets sockets, tails, and files share
one implementation.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.columns import PacketColumns
from repro.trace.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    END_OF_STREAM,
    FrameDecodeError,
    LengthFramer,
    PcapStreamDecoder,
    RecordChunker,
    TshStreamDecoder,
    frame,
    stream_decoder,
)
from repro.trace.pcaplite import write_pcap
from repro.trace.tsh import TSH_RECORD_BYTES, read_tsh_bytes


def _slices(data: bytes, sizes) -> list[bytes]:
    """Cut ``data`` into slices cycling through ``sizes``."""
    out, position, index = [], 0, 0
    while position < len(data):
        step = sizes[index % len(sizes)]
        out.append(data[position : position + step])
        position += step
        index += 1
    return out


class TestRecordChunker:
    def test_rejects_bad_record_size(self):
        with pytest.raises(ValueError):
            RecordChunker(0)

    @pytest.mark.parametrize("sizes", [[1], [7, 13], [44], [100], [3, 44, 1]])
    def test_reassembles_any_slicing(self, sizes):
        records = b"".join(bytes([i]) * TSH_RECORD_BYTES for i in range(9))
        chunker = RecordChunker(TSH_RECORD_BYTES)
        output = b"".join(chunker.feed(piece) for piece in _slices(records, sizes))
        chunker.finish()
        assert output == records
        assert chunker.pending_bytes == 0

    def test_finish_raises_on_partial_record_with_label(self):
        chunker = RecordChunker(TSH_RECORD_BYTES, label="TSH record")
        chunker.feed(b"\x00" * 10)
        with pytest.raises(FrameDecodeError, match="truncated TSH record"):
            chunker.finish()


class TestLengthFramer:
    def test_roundtrip_arbitrary_slicing(self):
        payloads = [b"alpha", b"b" * 1000, b"x"]
        wire = b"".join(frame(p) for p in payloads) + END_OF_STREAM
        for sizes in ([1], [3, 5], [4096]):
            framer = LengthFramer()
            seen: list[bytes] = []
            for piece in _slices(wire, sizes):
                seen.extend(framer.feed(piece))
            framer.finish()
            assert seen == payloads
            assert framer.eof

    def test_bytes_after_end_of_stream_rejected(self):
        framer = LengthFramer()
        framer.feed(END_OF_STREAM)
        with pytest.raises(FrameDecodeError, match="after the end-of-stream"):
            framer.feed(b"more")

    def test_trailing_bytes_with_end_of_stream_rejected(self):
        framer = LengthFramer()
        with pytest.raises(FrameDecodeError, match="after the end-of-stream"):
            framer.feed(END_OF_STREAM + b"junk")

    def test_oversized_frame_rejected(self):
        framer = LengthFramer(max_frame_bytes=16)
        with pytest.raises(FrameDecodeError, match="exceeds"):
            framer.feed(frame(b"y" * 17))
        assert LengthFramer().max_frame_bytes == DEFAULT_MAX_FRAME_BYTES

    def test_finish_mid_frame_raises(self):
        framer = LengthFramer()
        framer.feed(frame(b"abcdef")[:4])
        with pytest.raises(FrameDecodeError, match="ended inside a frame"):
            framer.finish()

    def test_finish_clean_without_eof_marker(self):
        # A client that just closes on a frame boundary is legal.
        framer = LengthFramer()
        assert framer.feed(frame(b"ok")) == [b"ok"]
        framer.finish()
        assert not framer.eof


class TestStreamDecoders:
    @pytest.fixture(scope="class")
    def trace(self, workload):
        return workload[0]

    @pytest.mark.parametrize("sizes", [[1], [17, 301], [65536]])
    def test_tsh_decoder_matches_file_reader(self, workload, sizes):
        trace, data = workload
        decoder = TshStreamDecoder()
        packets = []
        for piece in _slices(data, sizes):
            packets.extend(decoder.feed(piece))
        decoder.finish()
        assert packets == read_tsh_bytes(data)
        assert len(packets) == len(trace)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 500), min_size=1, max_size=6))
    def test_tsh_feed_columns_is_feed(self, workload, sizes):
        data = workload[1][: 300 * TSH_RECORD_BYTES]
        by_columns, by_records = TshStreamDecoder(), TshStreamDecoder()
        packets = []
        for piece in _slices(data, sizes):
            columns = by_columns.feed_columns(piece)
            assert isinstance(columns, PacketColumns)
            records = columns.to_records()
            assert records == by_records.feed(piece)
            packets.extend(records)
        by_columns.finish()
        assert packets == read_tsh_bytes(data)

    def test_tsh_feed_columns_empty_and_sub_record(self, workload):
        data = workload[1]
        decoder = TshStreamDecoder()
        assert len(decoder.feed_columns(b"")) == 0
        assert len(decoder.feed_columns(data[: TSH_RECORD_BYTES - 1])) == 0
        assert decoder.pending_bytes == TSH_RECORD_BYTES - 1
        whole = decoder.feed_columns(data[TSH_RECORD_BYTES - 1 : 2 * TSH_RECORD_BYTES])
        assert whole.to_records() == read_tsh_bytes(data[: 2 * TSH_RECORD_BYTES])
        assert decoder.feed(b"") == []

    def test_tsh_decoder_truncation(self):
        decoder = TshStreamDecoder()
        decoder.feed(b"\x01" * 10)
        assert decoder.pending_bytes == 10
        with pytest.raises(FrameDecodeError, match="truncated TSH record"):
            decoder.finish()

    # The last slicing feeds the whole file at once.
    @pytest.mark.parametrize(
        "sizes", [[1], [13, 509], [65536], [7], [56], [1 << 30]]
    )
    def test_pcap_decoder_matches_file_reader(self, trace, sizes):
        buffer = io.BytesIO()
        write_pcap(list(trace), buffer)
        data = buffer.getvalue()
        decoder = PcapStreamDecoder()
        packets = []
        for piece in _slices(data, sizes):
            packets.extend(decoder.feed(piece))
            assert decoder.pending_bytes < 56  # at most one partial record
        decoder.finish()
        assert len(packets) == len(trace)
        buffer.seek(0)
        from repro.trace.pcaplite import read_pcap

        assert packets == list(read_pcap(buffer))

    def test_pcap_feed_columns(self, workload):
        packets = read_tsh_bytes(workload[1])[:50]
        buffer = io.BytesIO()
        write_pcap(packets, buffer)
        decoder = PcapStreamDecoder()
        assert len(decoder.feed_columns(buffer.getvalue()[:30])) == 0
        columns = decoder.feed_columns(buffer.getvalue()[30:])
        assert isinstance(columns, PacketColumns)
        assert columns.to_records() == packets

    def test_pcap_decoder_bad_magic(self):
        decoder = PcapStreamDecoder()
        with pytest.raises(FrameDecodeError, match="magic"):
            decoder.feed(b"\x00" * 24)

    def test_pcap_decoder_truncated_global_header(self):
        decoder = PcapStreamDecoder()
        decoder.feed(b"\xd4")
        with pytest.raises(FrameDecodeError, match="global header"):
            decoder.finish()

    def test_pcap_decoder_truncated_record(self, trace):
        buffer = io.BytesIO()
        write_pcap(list(trace)[:2], buffer)
        decoder = PcapStreamDecoder()
        decoder.feed(buffer.getvalue()[:-3])
        with pytest.raises(FrameDecodeError, match="record"):
            decoder.finish()

    def test_pcap_decoder_record_length_out_of_range(self, trace):
        buffer = io.BytesIO()
        write_pcap(list(trace)[:2], buffer)
        data = bytearray(buffer.getvalue())
        data[39] ^= 0xFF  # top byte of the first record's original length
        with pytest.raises(FrameDecodeError, match="out of range"):
            PcapStreamDecoder().feed(bytes(data))

    def test_factory(self):
        assert stream_decoder("tsh").format == "tsh"
        assert stream_decoder("pcap").format == "pcap"
        with pytest.raises(ValueError, match="unknown stream format"):
            stream_decoder("erf")


class TestReaderSharing:
    """The file readers now run on the same chunker — same errors."""

    def test_tsh_reader_truncation_message_preserved(self, workload):
        _, data = workload
        with pytest.raises(ValueError, match="truncated TSH record"):
            read_tsh_bytes(data[:100])
