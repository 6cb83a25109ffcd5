"""Tests for the streaming compression engine."""

import pytest

from repro.core.codec import serialize_compressed
from repro.core.compressor import CompressorConfig, TemplateMatcher, compress_trace
from repro.core.datasets import ShortFlowTemplate
from repro.core.errors import CompressionError
from repro.core.streaming import StreamingCompressor, compress_tsh_file
from repro.synth import generate_web_trace
from repro.trace.trace import Trace

from tests.conftest import make_web_flow


@pytest.fixture(scope="module")
def web_trace():
    return generate_web_trace(duration=4.0, flow_rate=30.0, seed=3)


@pytest.fixture(scope="module")
def web_tsh(web_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("streaming") / "web.tsh"
    web_trace.save_tsh(path)
    return path


class TestStreamingCompressor:
    @pytest.mark.parametrize("chunk_size", [1, 13, 500])
    def test_chunked_feed_matches_batch(self, web_trace, chunk_size):
        batch = serialize_compressed(compress_trace(web_trace))
        compressor = StreamingCompressor(name=web_trace.name)
        packets = web_trace.packets
        for start in range(0, len(packets), chunk_size):
            compressor.feed(packets[start : start + chunk_size])
        assert serialize_compressed(compressor.finish()) == batch

    def test_feed_counts(self, web_trace):
        compressor = StreamingCompressor()
        fed = compressor.feed(web_trace.packets[:100])
        assert fed == 100
        assert compressor.streaming_stats.packets_fed == 100
        assert compressor.streaming_stats.chunks_fed == 1
        assert compressor.streaming_stats.peak_active_flows >= 1
        assert compressor.active_flows <= compressor.streaming_stats.peak_active_flows

    def test_add_after_finish_raises(self):
        packets = make_web_flow()
        compressor = StreamingCompressor()
        compressor.feed(packets)
        compressor.finish()
        with pytest.raises(CompressionError):
            compressor.add_packet(packets[0])

    def test_iterator_feed_matches_batch(self, web_trace):
        streamed = compress_trace(iter(web_trace.packets), name=web_trace.name)
        batch = compress_trace(web_trace)
        assert serialize_compressed(streamed) == serialize_compressed(batch)


class TestCompressTshFile:
    def test_matches_batch_bytes(self, web_tsh):
        # Compare against a batch run over the *file* — TSH stores µs
        # resolution, so the saved trace is the common ground truth.
        loaded = Trace.load_tsh(web_tsh)
        compressor = compress_tsh_file(web_tsh, chunk_size=64, name=loaded.name)
        batch = serialize_compressed(compress_trace(loaded))
        assert serialize_compressed(compressor.output) == batch

    def test_name_defaults_to_stem(self, web_tsh):
        compressor = compress_tsh_file(web_tsh)
        assert compressor.output.name == "web"

    def test_stats_populated(self, web_trace, web_tsh):
        compressor = compress_tsh_file(web_tsh, chunk_size=256)
        assert compressor.streaming_stats.packets_fed == len(web_trace)
        assert compressor.streaming_stats.chunks_fed >= len(web_trace) // 256
        assert 0 < compressor.streaming_stats.peak_active_flows < len(web_trace)


class TestIdleEvictionOrdering:
    def test_out_of_order_open_is_still_evicted(self):
        from repro.net.tcp import TCP_ACK, TCP_SYN
        from repro.net.packet import PacketRecord

        config = CompressorConfig(idle_timeout=10.0)
        compressor = StreamingCompressor(config)
        client_a, client_b, server = 0x8D5A0101, 0x8D5A0102, 0xC0A80050
        compressor.add_packet(
            PacketRecord(100.0, client_a, server, 2000, 80, flags=TCP_SYN)
        )
        # Out-of-order packet opens a flow *behind* the clock; the idle
        # bound must drop so the next scan still sees it as stale.
        compressor.add_packet(
            PacketRecord(30.0, client_b, server, 2001, 80, flags=TCP_SYN)
        )
        compressor.add_packet(
            PacketRecord(102.0, client_a, server, 2000, 80, flags=TCP_ACK)
        )
        assert compressor.active_flows == 1  # only flow A remains open
        assert compressor.output.flow_count() == 1  # flow B was evicted


class TestTemplateMatcher:
    def test_prepopulated_index(self):
        templates = [ShortFlowTemplate((1, 2, 3)), ShortFlowTemplate((9, 9))]
        matcher = TemplateMatcher(templates, CompressorConfig())
        assert matcher.find((1, 2, 3)) == 0
        assert matcher.find((9, 9)) == 1
        assert matcher.find((7, 7, 7, 7)) is None

    def test_add_registers_for_search(self):
        templates: list[ShortFlowTemplate] = []
        matcher = TemplateMatcher(templates, CompressorConfig())
        index = matcher.add((5, 6, 7))
        assert index == 0
        assert templates[0].values == (5, 6, 7)
        assert matcher.find((5, 6, 7)) == 0
