"""Property: streaming and batch decompression are byte-identical.

The streaming decompressor promises the exact packet sequence of
:func:`decompress_trace` for any compressed input — Web and P2P
traffic, serialized round-trips, arbitrary decompressor configs — while
holding one merge batch plus its carried rows.  The archive replay
makes the same promise against the per-segment batch reference, and
every replay path against the per-packet heap-merge oracle in
``tests/replay_oracle.py``.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.archive import ArchiveReader, ArchiveWriter, build_archive
from repro.core import replay
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.compressor import compress_trace
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)
from repro.core.decompressor import (
    DecompressorConfig,
    decompress_trace,
    merge_sort_key,
)
from repro.core.replay import StreamingDecompressor, iter_decompressed
from repro.query import (
    DestinationPrefix,
    FlowKind,
    MatchAll,
    QueryEngine,
    QueryStats,
    TimeRange,
)
from repro.synth import generate_p2p_trace, generate_web_trace
from repro.synth.scenarios import get_scenario, scenario_names
from repro.trace.tsh import write_tsh_bytes

from tests.compress_oracle import FlowClusterCompressor
from tests.conftest import make_timed_flows
from tests.replay_oracle import (
    oracle_archive_packets,
    oracle_decompress,
    oracle_merge,
)


def _assert_stream_equals_batch(compressed, config=None):
    batch = decompress_trace(compressed, config)
    engine = StreamingDecompressor(compressed, config)
    streamed = list(engine.packets())
    assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)
    assert engine.stats.packets_emitted == len(batch)
    return engine


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_web_trace_replay_equivalence(seed):
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    _assert_stream_equals_batch(compress_trace(trace))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_p2p_trace_replay_equivalence(seed):
    trace = generate_p2p_trace(duration=1.5, session_rate=6.0, seed=seed)
    _assert_stream_equals_batch(compress_trace(trace))


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    decomp_seed=st.integers(min_value=0, max_value=2**32),
    default_rtt=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
)
def test_replay_equivalence_under_configs(seed, decomp_seed, default_rtt):
    trace = generate_web_trace(duration=1.0, flow_rate=25.0, seed=seed)
    config = DecompressorConfig(seed=decomp_seed, default_rtt=default_rtt)
    _assert_stream_equals_batch(compress_trace(trace), config)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_serialized_roundtrip_replays_identically(seed):
    """In-memory container and its codec round-trip stream the same."""
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    compressed = compress_trace(trace)
    roundtripped = deserialize_compressed(serialize_compressed(compressed))
    direct = write_tsh_bytes(iter_decompressed(compressed))
    assert write_tsh_bytes(iter_decompressed(roundtripped)) == direct


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    segment_span=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
)
def test_archive_replay_matches_per_segment_batch(tmp_path_factory, seed, segment_span):
    trace = generate_web_trace(duration=4.0, flow_rate=20.0, seed=seed)
    path = (
        tmp_path_factory.mktemp("prop-replay")
        / f"t-{seed}-{segment_span:.2f}.fctca"
    )
    build_archive(
        path, iter(trace.packets), segment_span=segment_span,
        segment_packets=10_000,
    )
    reference = []
    with ArchiveReader(path) as reader:
        for index in range(reader.segment_count):
            reference.extend(decompress_trace(reader.load_segment(index)).packets)
    reference.sort(key=merge_sort_key)
    with ArchiveReader(path) as reader:
        streamed = write_tsh_bytes(reader.iter_packets())
    assert streamed == write_tsh_bytes(reference)


# -- the batch-sort merge against the per-packet heap oracle ----------------
#
# ``tests/replay_oracle.py`` keeps the replay engine as it was before
# the batch-sort merge: per-packet synthesis and a k-way heap merge.
# Every case runs at batch sizes 1 and 7 (so rows are carried across
# nearly every batch) and at the default size.

BATCH_SIZES = [1, 7, replay.REPLAY_BATCH_PACKETS]


@contextmanager
def batch_size(packets):
    with mock.patch.object(replay, "REPLAY_BATCH_PACKETS", packets):
        yield


def _assert_matches_oracle(compressed, config=None):
    expected = oracle_decompress(compressed, config)
    assert list(iter_decompressed(compressed, config)) == expected
    assert decompress_trace(compressed, config).packets == expected
    return expected


def _compress(packets):
    engine = FlowClusterCompressor(base_time=0.0)
    for packet in packets:
        engine.add_packet(packet)
    return engine.finish()


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("seed", [3, 41])
def test_web_and_p2p_match_oracle(batch, seed):
    web = compress_trace(generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed))
    p2p = compress_trace(generate_p2p_trace(duration=1.5, session_rate=6.0, seed=seed))
    config = DecompressorConfig(seed=seed, default_rtt=0.02)
    with batch_size(batch):
        assert _assert_matches_oracle(web)
        assert _assert_matches_oracle(p2p)
        _assert_matches_oracle(web, config)


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("name", scenario_names())
def test_scenarios_match_oracle(batch, name):
    trace = get_scenario(name).build(duration=1.2, flow_rate=24.0, seed=97)
    with batch_size(batch):
        assert _assert_matches_oracle(compress_trace(trace))


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_serialized_roundtrip_matches_oracle(batch):
    compressed = compress_trace(
        generate_web_trace(duration=1.5, flow_rate=25.0, seed=5)
    )
    roundtripped = deserialize_compressed(serialize_compressed(compressed))
    with batch_size(batch):
        assert _assert_matches_oracle(roundtripped) == oracle_decompress(compressed)


def _write_segments(path, starts, spacing):
    with ArchiveWriter.create(path, epoch=0.0) as writer:
        for start in starts:
            writer.write_segment(
                _compress(make_timed_flows(3, spacing=spacing, start=start))
            )


def _rolling_archive(path):
    trace = generate_web_trace(duration=4.0, flow_rate=20.0, seed=8)
    build_archive(
        path, iter(trace.packets), segment_span=0.7, segment_packets=10_000
    )


ARCHIVES = {
    "rolling": _rolling_archive,
    "overlapping": lambda path: _write_segments(path, (2.0, 0.0), 4.0),
    "behind-an-earlier-run": lambda path: _write_segments(
        path, (0.0, 10.0, 5.0), 2.5
    ),
}


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("kind", sorted(ARCHIVES))
def test_archive_replay_matches_oracle(tmp_path, batch, kind):
    path = tmp_path / f"{kind}.fctca"
    ARCHIVES[kind](path)
    with ArchiveReader(path) as reader:
        assert reader.segment_count > 1
        expected = oracle_archive_packets(reader)
        with batch_size(batch):
            assert list(reader.iter_packets()) == expected


QUERIES = {
    "all": (MatchAll(), None),
    "window": (TimeRange(0.8, 2.5), None),
    "short-limited": (FlowKind("short"), 9),
    "prefix-limited": (DestinationPrefix("0.0.0.0/1"), 4),
    "limit-zero": (MatchAll(), 0),
}


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_filtered_stream_packets_match_oracle(tmp_path, batch, query):
    path = tmp_path / "rolling.fctca"
    _rolling_archive(path)
    predicate, limit = QUERIES[query]
    config = DecompressorConfig()
    with ArchiveReader(path) as reader:
        engine = QueryEngine(reader)
        expected_stats = QueryStats()
        expected = list(
            oracle_merge(
                engine.spec_feed(
                    predicate, limit=limit, config=config, stats=expected_stats
                ),
                config,
            )
        )
        stats = QueryStats()
        with batch_size(batch):
            streamed = list(engine.stream_packets(predicate, limit=limit, stats=stats))
    assert streamed == expected
    assert stats.flows_matched == expected_stats.flows_matched
    assert stats.segments_decoded == expected_stats.segments_decoded
    if query == "all":
        assert streamed


def _tie_heavy_container():
    """Long flows on zero quantized gaps, direction flips inside the ties.

    Value 32 is an ACK that waited on the other side (g2 = 0: a flip),
    36 one that did not; gaps of 20 µs quantize to zero.
    """
    compressed = CompressedTrace(name="ties")
    compressed.short_templates.append(ShortFlowTemplate((4, 16, 32, 53)))
    compressed.long_templates.append(
        LongFlowTemplate(tuple([32, 36, 32, 32, 36] * 6), tuple([0.00002] * 29 + [0.0]))
    )
    compressed.long_templates.append(
        LongFlowTemplate(tuple([32] * 12), tuple([0.0, 0.0, 0.5] * 4))
    )
    for address in (0xC0A80050, 0xC0A80051):
        compressed.addresses.intern(address)
    for index in range(12):
        start = 0.25 * (index // 2)
        compressed.time_seq.append(
            TimeSeqRecord(start, DatasetId.LONG, index % 2, index % 2)
        )
        compressed.time_seq.append(
            TimeSeqRecord(start, DatasetId.SHORT, 0, (index + 1) % 2, rtt=0.0)
        )
    return compressed


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_ties_with_direction_flips_match_oracle(batch):
    compressed = _tie_heavy_container()
    with batch_size(batch):
        packets = _assert_matches_oracle(compressed)
    # Not vacuous: some timestamp carries both directions of one flow.
    by_timestamp = {}
    for packet in packets:
        by_timestamp.setdefault((packet.timestamp, packet.dst_ip ^ packet.src_ip), set()).add(
            packet.src_ip
        )
    assert any(len(sources) == 2 for sources in by_timestamp.values())


def _carry_container():
    """A long flow whose running timestamp sums land just below whole
    seconds: their microseconds round up into the next second."""
    compressed = CompressedTrace(name="carry")
    compressed.long_templates.append(
        LongFlowTemplate(tuple([36] * 40), tuple([0.1] * 39 + [0.0]))
    )
    compressed.short_templates.append(ShortFlowTemplate((4, 16, 32, 53)))
    compressed.addresses.intern(0xC0A80050)
    compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.LONG, 0, 0))
    compressed.time_seq.append(TimeSeqRecord(0.9, DatasetId.SHORT, 0, 0, rtt=0.0999))
    return compressed


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_microsecond_carry_into_next_second_matches_oracle(batch):
    compressed = _carry_container()
    with batch_size(batch):
        packets = _assert_matches_oracle(compressed)
        exported = write_tsh_bytes(packets)
        assert exported == write_tsh_bytes(oracle_decompress(compressed))
    assert any(
        round((packet.timestamp - int(packet.timestamp)) * 1_000_000) == 1_000_000
        for packet in packets
    )
