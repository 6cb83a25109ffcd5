"""StreamingCompressor.flush_segment — the rotate-without-finish primitive."""

from __future__ import annotations

import pytest

from repro.core.streaming import StreamingCompressor
from repro.synth import generate_web_trace

from tests.compress_oracle import FlowClusterCompressor


@pytest.fixture(scope="module")
def packets():
    return list(generate_web_trace(duration=4.0, flow_rate=25.0, seed=3))


class TestFlushSegment:
    def test_empty_flush_returns_none_and_keeps_accepting(self, packets):
        compressor = StreamingCompressor()
        assert compressor.flush_segment() is None
        assert compressor.segments_flushed == 0
        compressor.feed(packets[:5])  # the engine swap left a live feed path
        assert compressor.flush_segment() is not None
        assert compressor.segments_flushed == 1

    def test_segments_match_independent_compressions(self, packets):
        """Each inter-flush run compresses exactly as its own batch
        would on the shared base_time — the archive-identity invariant."""
        split = len(packets) // 2
        compressor = StreamingCompressor()
        compressor.feed(packets[:split])
        first = compressor.flush_segment(name="part-0")
        compressor.feed(packets[split:])
        second = compressor.flush_segment(name="part-1")

        base = packets[0].timestamp

        def batch(run, name):
            compressor = FlowClusterCompressor(name=name, base_time=base)
            for packet in run:
                compressor.add_packet(packet)
            return compressor.finish()

        def alike(sealed, expected):
            assert sealed.name == expected.name
            assert sealed.short_templates == expected.short_templates
            assert sealed.long_templates == expected.long_templates
            assert sealed.time_seq == expected.time_seq
            assert sealed.addresses.addresses() == expected.addresses.addresses()
            assert sealed.original_packet_count == expected.original_packet_count

        alike(first, batch(packets[:split], "part-0"))
        alike(second, batch(packets[split:], "part-1"))

    def test_base_time_carries_across_flushes(self, packets):
        compressor = StreamingCompressor()
        compressor.feed(packets[:10])
        base = compressor.base_time
        compressor.flush_segment()
        assert compressor.base_time == base  # fresh engine, same clock
        compressor.feed(packets[10:20])
        assert compressor.base_time == base

    def test_flush_then_finish_counts_everything_once(self, packets):
        compressor = StreamingCompressor()
        compressor.feed(packets)
        compressor.flush_segment()
        trailing = compressor.finish()
        assert not trailing.time_seq  # nothing fed since the flush
        assert compressor.streaming_stats.packets_fed == len(packets)

    def test_default_name_gains_running_ordinal(self, packets):
        compressor = StreamingCompressor(name="live")
        compressor.feed(packets[:10])
        first = compressor.flush_segment()
        compressor.feed(packets[10:20])
        second = compressor.flush_segment(name="explicit")
        assert first.name == "live"
        assert second.name == "explicit"
        assert compressor.segments_flushed == 2
