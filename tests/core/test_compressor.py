"""Tests for the online flow-clustering compressor (section 3).

These run the production engine; its byte identity with the readable
reference in ``tests/compress_oracle.py`` is the differential suites' job.
"""

import pytest

from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig, compress_trace
from repro.core.datasets import DatasetId
from repro.core.errors import CompressionError
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_SYN
from repro.trace.trace import Trace

from tests.conftest import CLIENT_IP, SERVER_IP, make_web_flow


def compress_packets(packets, config=None):
    compressor = ColumnarFlowCompressor(config)
    for packet in sorted(packets, key=lambda p: p.timestamp):
        compressor.add_packet(packet)
    return compressor, compressor.finish()


class TestBasicCompression:
    def test_single_flow_one_template(self, web_flow_packets):
        compressor, compressed = compress_packets(web_flow_packets)
        assert len(compressed.short_templates) == 1
        assert len(compressed.time_seq) == 1
        assert compressed.time_seq[0].dataset is DatasetId.SHORT
        assert compressor.stats.flows_closed == 1

    def test_identical_flows_share_template(self):
        packets = []
        for index in range(30):
            packets.extend(
                make_web_flow(start=index * 1.0, client_port=2000 + index)
            )
        compressor, compressed = compress_packets(packets)
        assert len(compressed.short_templates) == 1
        assert len(compressed.time_seq) == 30
        assert compressor.stats.template_hits == 29
        assert compressor.stats.hit_ratio() == pytest.approx(29 / 30)

    def test_template_matches_characterization(self, web_flow_packets):
        _, compressed = compress_packets(web_flow_packets)
        assert compressed.short_templates[0].values == (
            4, 16, 32, 37, 34, 38, 32, 52,
        )

    def test_address_dataset_unique_destinations(self):
        packets = []
        for index in range(10):
            packets.extend(
                make_web_flow(
                    start=index * 1.0,
                    client_port=2000 + index,
                    server_ip=SERVER_IP + (index % 3),
                )
            )
        _, compressed = compress_packets(packets)
        assert len(compressed.addresses) == 3

    def test_timestamps_relative_to_trace_start(self):
        packets = make_web_flow(start=5000.0)
        _, compressed = compress_packets(packets)
        assert compressed.time_seq[0].timestamp == 0.0

    def test_rtt_recorded_for_short_flow(self, web_flow_packets):
        _, compressed = compress_packets(web_flow_packets)
        assert compressed.time_seq[0].rtt == pytest.approx(0.05, abs=1e-9)

    def test_original_packet_count(self, web_flow_packets):
        _, compressed = compress_packets(web_flow_packets)
        assert compressed.original_packet_count == len(web_flow_packets)


class TestShortLongSplit:
    def test_long_flow_goes_verbatim(self):
        # 60 same-direction packets then a FIN: a long flow.
        packets = [
            PacketRecord(
                float(i) * 0.01, CLIENT_IP, SERVER_IP, 2000, 80,
                flags=TCP_ACK, payload_len=1460,
            )
            for i in range(60)
        ]
        packets.append(
            PacketRecord(0.61, CLIENT_IP, SERVER_IP, 2000, 80, flags=0x11)
        )
        compressor, compressed = compress_packets(packets)
        assert compressor.stats.long_flows == 1
        assert len(compressed.long_templates) == 1
        assert compressed.long_templates[0].n == 61
        assert compressed.time_seq[0].dataset is DatasetId.LONG
        assert compressed.time_seq[0].rtt == 0.0  # not filled for long flows

    def test_long_template_keeps_inter_packet_times(self):
        packets = [
            PacketRecord(float(i) * 0.5, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK)
            for i in range(55)
        ]
        _, compressed = compress_packets(packets)
        template = compressed.long_templates[0]
        assert template.gaps[0] == pytest.approx(0.5)
        assert template.gaps[-1] == 0.0

    def test_cutoff_boundary(self):
        # Exactly 50 packets stays short; 51 goes long.
        def flow_of(n, port):
            return [
                PacketRecord(float(i) * 0.01, CLIENT_IP, SERVER_IP, port, 80, flags=TCP_ACK)
                for i in range(n)
            ]
        compressor, _ = compress_packets(flow_of(50, 2000))
        assert compressor.stats.short_flows == 1
        compressor, _ = compress_packets(flow_of(51, 2001))
        assert compressor.stats.long_flows == 1

    def test_custom_cutoff(self):
        packets = make_web_flow()  # 8 packets
        config = CompressorConfig(short_flow_max=5)
        compressor, _ = compress_packets(packets, config)
        assert compressor.stats.long_flows == 1


class TestSimilarityMerging:
    def test_similar_vectors_merge(self):
        # Two flows identical except one payload-class bit: distance 1 <
        # d_max = 8.
        a = make_web_flow(start=0.0, client_port=2000)
        b = make_web_flow(start=10.0, client_port=2001)
        _, compressed_exact = compress_packets(a + b)
        assert len(compressed_exact.short_templates) == 1

    def test_zero_percent_still_merges_exact(self):
        a = make_web_flow(start=0.0, client_port=2000)
        b = make_web_flow(start=10.0, client_port=2001)
        config = CompressorConfig(similarity_percent=0.0)
        _, compressed = compress_packets(a + b, config)
        assert len(compressed.short_templates) == 1

    def test_different_length_flows_never_merge(self):
        a = make_web_flow(start=0.0, client_port=2000, data_packets=2)
        b = make_web_flow(start=10.0, client_port=2001, data_packets=6)
        _, compressed = compress_packets(a + b)
        assert len(compressed.short_templates) == 2


class TestLifecycle:
    def test_add_after_finish_rejected(self, web_flow_packets):
        compressor, _ = compress_packets(web_flow_packets)
        with pytest.raises(CompressionError):
            compressor.add_packet(web_flow_packets[0])

    def test_finish_idempotent(self, web_flow_packets):
        compressor, compressed = compress_packets(web_flow_packets)
        assert compressor.finish() is compressed

    def test_unterminated_flow_flushed(self):
        packets = make_web_flow()[:-1]  # no FIN
        compressor, compressed = compress_packets(packets)
        assert compressor.stats.flows_closed == 1
        assert len(compressed.time_seq) == 1

    def test_idle_timeout_closes_flow(self):
        config = CompressorConfig(idle_timeout=5.0)
        compressor = ColumnarFlowCompressor(config)
        compressor.add_packet(
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_SYN)
        )
        compressor.add_packet(
            PacketRecord(100.0, CLIENT_IP, SERVER_IP, 2001, 80, flags=TCP_SYN)
        )
        assert compressor.stats.flows_closed == 1

    def test_compress_trace_wrapper(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        assert compressed.name == "multi-flow"
        assert compressed.flow_count() == 50


class TestConfigValidation:
    def test_bad_short_flow_max(self):
        with pytest.raises(ValueError):
            CompressorConfig(short_flow_max=0)

    def test_bad_idle_timeout(self):
        with pytest.raises(ValueError):
            CompressorConfig(idle_timeout=0.0)

    def test_nan_idle_timeout(self):
        # A NaN timeout fails every idle test: that compressor never evicts.
        with pytest.raises(ValueError, match="idle_timeout must be positive: nan"):
            CompressorConfig(idle_timeout=float("nan"))


class TestBaseTimeAnchor:
    """Regression: the time-seq base must be the *earliest* timestamp.

    A mildly out-of-order trace whose first-seen packet is not the
    earliest used to clamp earlier flows' offsets to 0.0, collapsing
    distinct start times and reordering flows on decompression.
    """

    @staticmethod
    def _jittered_packets():
        # Flow A is seen first (t=1.0) but flow B actually started
        # earlier (t=0.98) and its opener arrives late.
        flow_a = make_web_flow(start=1.0, client_port=2000)
        flow_b = make_web_flow(start=0.98, client_port=2001)
        packets = flow_a[:1] + flow_b[:1] + sorted(
            flow_a[1:] + flow_b[1:], key=lambda p: p.timestamp
        )
        return packets

    def test_offsets_anchor_on_earliest_timestamp(self):
        compressor = ColumnarFlowCompressor()
        for packet in self._jittered_packets():
            compressor.add_packet(packet)
        compressed = compressor.finish()
        offsets = sorted(record.timestamp for record in compressed.time_seq)
        assert offsets == pytest.approx([0.0, 0.02])

    def test_no_negative_clamp_collapse(self):
        """Distinct start times must stay distinct (the old clamp merged
        them at 0.0 and the decompressor reordered the flows)."""
        compressor = ColumnarFlowCompressor()
        for packet in self._jittered_packets():
            compressor.add_packet(packet)
        compressed = compressor.finish()
        timestamps = [record.timestamp for record in compressed.time_seq]
        assert len(set(timestamps)) == len(timestamps)

    def test_explicit_base_still_authoritative(self):
        """An externally supplied base (archive epoch) must not move."""
        compressor = ColumnarFlowCompressor(base_time=1.0)
        for packet in self._jittered_packets():
            compressor.add_packet(packet)
        compressed = compressor.finish()
        # The flow that started before the epoch clamps to it.
        assert min(r.timestamp for r in compressed.time_seq) == 0.0

    def test_streaming_matches_batch_on_jitter(self):
        from repro.core.codec import serialize_compressed
        from repro.core.streaming import StreamingCompressor

        packets = self._jittered_packets()
        _, batch = compress_packets_in_order(packets)
        streaming = StreamingCompressor()
        for start in range(0, len(packets), 3):
            streaming.feed(packets[start : start + 3])
        assert serialize_compressed(streaming.finish()) == serialize_compressed(
            batch
        )

    def test_rebase_shifts_already_closed_flows(self):
        """A flow closed *before* the earlier timestamp shows up must be
        shifted retroactively."""
        config = CompressorConfig()
        compressor = ColumnarFlowCompressor(config)
        for packet in make_web_flow(start=5.0, client_port=2000):
            compressor.add_packet(packet)  # closes via FIN at base 5.0
        assert compressor.output.time_seq[0].timestamp == 0.0
        for packet in make_web_flow(start=4.5, client_port=2001):
            compressor.add_packet(packet)
        compressed = compressor.finish()
        offsets = sorted(record.timestamp for record in compressed.time_seq)
        assert offsets == pytest.approx([0.0, 0.5])


class TestIdleEvictionBoundary:
    """Regression: a flow is active at the moment its own packet arrives.

    Eviction used to run before the incoming packet was appended, so a
    flow whose next packet arrived just past ``idle_timeout`` was closed
    and split in two even though the packet proves it alive at ``now``.
    """

    @staticmethod
    def _boundary_packets(gap: float):
        return [
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_SYN),
            PacketRecord(gap, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK),
        ]

    def test_own_packet_does_not_split_flow(self):
        config = CompressorConfig(idle_timeout=10.0)
        compressor = ColumnarFlowCompressor(config)
        for packet in self._boundary_packets(10.5):
            compressor.add_packet(packet)
        compressed = compressor.finish()
        assert compressed.flow_count() == 1
        assert compressed.short_templates[0].n == 2

    def test_other_flows_still_evicted_at_boundary(self):
        config = CompressorConfig(idle_timeout=10.0)
        compressor = ColumnarFlowCompressor(config)
        compressor.add_packet(
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2001, 80, flags=TCP_SYN)
        )
        for packet in self._boundary_packets(10.5):
            compressor.add_packet(packet)
        # The silent flow 2001 is closed by flow 2000's late packet; flow
        # 2000 itself stays open (its packet *is* the clock tick).
        assert compressor.stats.flows_closed == 1
        assert compressor.active_flows == 1

    def test_streaming_matches_batch_at_boundary(self):
        from repro.core.codec import serialize_compressed
        from repro.core.streaming import StreamingCompressor

        config = CompressorConfig(idle_timeout=10.0)
        packets = [
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2001, 80, flags=TCP_SYN),
            *self._boundary_packets(10.5),
            PacketRecord(30.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK),
        ]
        _, batch = compress_packets_in_order(packets, config)
        for chunk in (1, 2, 4):
            streaming = StreamingCompressor(config)
            for start in range(0, len(packets), chunk):
                streaming.feed(packets[start : start + chunk])
            assert serialize_compressed(
                streaming.finish()
            ) == serialize_compressed(batch)


def compress_packets_in_order(packets, config=None):
    """Like :func:`compress_packets` but preserving arrival order."""
    compressor = ColumnarFlowCompressor(config)
    for packet in packets:
        compressor.add_packet(packet)
    return compressor, compressor.finish()
