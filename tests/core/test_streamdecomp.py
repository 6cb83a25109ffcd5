"""Unit: the streaming decompressor (bounded-memory replay engine)."""

import pytest

from repro.core.compressor import compress_trace
from repro.core.datasets import (
    AddressTable,
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)
from repro.core.decompressor import DecompressorConfig, decompress_trace
from repro.core import replay
from repro.core.replay import StreamingDecompressor
from repro.trace.tsh import write_tsh_bytes

from tests.conftest import make_timed_flows


def staggered_compressed(count: int = 40, spacing: float = 10.0) -> CompressedTrace:
    """Many identical flows, far apart in time: tiny concurrent fan-out."""
    return compress_trace(iter(make_timed_flows(count, spacing=spacing)))


class TestByteIdentity:
    def test_matches_batch_on_handmade_flows(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        batch = decompress_trace(compressed)
        streamed = list(StreamingDecompressor(compressed).packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)

    def test_matches_batch_on_generated_trace(self, small_web_trace):
        compressed = compress_trace(small_web_trace)
        batch = decompress_trace(compressed)
        streamed = list(StreamingDecompressor(compressed).packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)

    def test_config_passes_through(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        config = DecompressorConfig(seed=99, default_rtt=0.2)
        batch = decompress_trace(compressed, config)
        streamed = list(StreamingDecompressor(compressed, config).packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)

    def test_long_flow_interleaving(self):
        """A long flow spanning many short flows must merge correctly."""
        compressed = CompressedTrace(name="t")
        compressed.short_templates.append(ShortFlowTemplate((4, 16, 32, 53)))
        values = tuple([32] * 60)
        gaps = tuple([1.0] * 59 + [0.0])
        compressed.long_templates.append(LongFlowTemplate(values, gaps))
        compressed.addresses.intern(0xC0A80050)
        compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.LONG, 0, 0))
        for start in range(1, 50):
            compressed.time_seq.append(
                TimeSeqRecord(float(start), DatasetId.SHORT, 0, 0, rtt=0.01)
            )
        batch = decompress_trace(compressed)
        streamed = list(StreamingDecompressor(compressed).packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)

    def test_same_timestamp_direction_flips_match_batch(self):
        """Zero-quantized gaps + dependent packets: the tie-reorder bug.

        A long flow whose stored gaps quantize to zero puts a dependent
        (direction-flipping) run of packets on a single timestamp.  The
        batch path's global sort reorders that tie by ``merge_sort_key``
        (direction flips change ``src_ip``/``src_port`` mid-tie), while
        a heap merge holding one packet per flow cannot.  Regression for
        the divergence the incast scenarios exposed: ``synthesize_flow``
        now reconciles ties at the source, so both paths agree.
        """
        compressed = CompressedTrace(name="t")
        values = tuple([32] * 8)  # g2=0 each: every packet flips direction
        gaps = tuple([0.0] * 8)
        compressed.long_templates.append(LongFlowTemplate(values, gaps))
        compressed.addresses.intern(0xC0A80050)
        compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.LONG, 0, 0))
        batch = decompress_trace(compressed)
        # The scenario really is one big timestamp tie with both
        # directions in it — the case the heap merge alone cannot order.
        assert len({p.timestamp for p in batch.packets}) == 1
        assert len({p.src_ip for p in batch.packets}) == 2
        streamed = list(StreamingDecompressor(compressed))
        assert streamed == batch.packets


class TestBoundedness:
    @pytest.fixture(autouse=True)
    def one_packet_batches(self, monkeypatch):
        """One-flow batches: the merge admits flows as the frontier needs."""
        monkeypatch.setattr(replay, "REPLAY_BATCH_PACKETS", 1)

    def test_peak_open_flows_tracks_fan_out_not_trace_length(self):
        compressed = staggered_compressed(count=40)
        engine = StreamingDecompressor(compressed)
        packets = sum(1 for _ in engine.packets())
        assert packets == compressed.packet_count()
        # Flows are 10 s apart and each lasts well under a second: the
        # merge should never hold more than a handful of open flows.
        assert engine.stats.peak_open_flows <= 3
        assert engine.stats.flows_replayed == compressed.flow_count()
        assert engine.stats.packets_emitted == packets

    def test_emission_is_lazy(self):
        compressed = staggered_compressed(count=40)
        engine = StreamingDecompressor(compressed)
        stream = engine.packets()
        for _ in range(5):
            next(stream)
        # Only the frontier's flows have been replayed so far.
        assert engine.stats.flows_replayed < compressed.flow_count()

    def test_rows_held_stay_within_one_batch_plus_carry(
        self, small_web_trace, monkeypatch
    ):
        compressed = compress_trace(small_web_trace)
        longest = max(
            len(template.values)
            for template in [*compressed.short_templates, *compressed.long_templates]
        )
        for batch in (1, 7, 300):
            monkeypatch.setattr(replay, "REPLAY_BATCH_PACKETS", batch)
            engine = StreamingDecompressor(compressed)
            assert sum(1 for _ in engine.packets()) == compressed.packet_count()
            stats = engine.stats
            # A batch takes whole flows, so it ends within one flow of
            # the batch size; everything else held is carried rows.
            assert stats.peak_rows_held <= batch + longest - 1 + stats.peak_carried_rows
            assert stats.peak_rows_held < compressed.packet_count()


class TestLifecycle:
    def test_each_packets_call_restarts(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        engine = StreamingDecompressor(compressed)
        first = list(engine.packets())
        second = list(engine.packets())
        assert write_tsh_bytes(first) == write_tsh_bytes(second)
        assert engine.stats.packets_emitted == len(second)

    def test_iter_protocol(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        assert len(list(StreamingDecompressor(compressed))) == len(
            decompress_trace(compressed)
        )

    def test_empty_container_yields_nothing(self):
        compressed = CompressedTrace(name="empty", addresses=AddressTable())
        assert list(StreamingDecompressor(compressed).packets()) == []

    def test_name_mirrors_batch(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        engine = StreamingDecompressor(compressed)
        assert engine.name == decompress_trace(compressed).name

    def test_validates_on_construction(self):
        compressed = CompressedTrace(name="broken")
        compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.SHORT, 5, 0))
        with pytest.raises(ValueError):
            StreamingDecompressor(compressed)
