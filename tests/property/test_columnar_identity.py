"""The differential harness pinning the engine to the paper's algorithm.

The columnar engine's contract is *the paper's bytes*: for any packet
sequence and any chunking of the feed, it must produce the exact
``.fctc`` / ``.fctca`` files the readable linked-list compressor in
``tests/compress_oracle.py`` (``scalar_bytes`` here) does.  This file
is the gate — hypothesis-driven packet sequences (including out-of-order
timestamps that exercise the auto-base rebase, unterminated flows closed
by idle eviction, and degenerate self-loop tuples), generated traffic
models, and the on-disk fixture corpus all run through both and are
compared byte for byte.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig
from repro.core.decompressor import decompress_trace
from repro.core.streaming import StreamingCompressor
from repro.net.columns import columns_from_records
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN
from repro.synth import generate_p2p_trace, generate_web_trace
from repro.trace.trace import Trace

from tests.compress_oracle import FlowClusterCompressor, run_oracle
from tests.property.test_property_streaming import _unterminated_flow


def scalar_bytes(packets, config=None, name="t"):
    engine = FlowClusterCompressor(config, name=name)
    for packet in packets:
        engine.add_packet(packet)
    return serialize_compressed(engine.finish())


def columnar_bytes(packets, config=None, name="t", chunks=None, seed=0):
    """Feed through the columnar engine in randomized chunk sizes."""
    engine = ColumnarFlowCompressor(config, name=name)
    rng = random.Random(seed)
    packets = list(packets)
    start = 0
    while start < len(packets):
        size = chunks if chunks is not None else rng.randint(1, 400)
        engine.feed_columns(columns_from_records(packets[start : start + size]))
        start += size
    return serialize_compressed(engine.finish())


# -- hypothesis packet sequences -------------------------------------------


_FLAG_CHOICES = (
    TCP_SYN,
    TCP_SYN | TCP_ACK,
    TCP_ACK,
    TCP_ACK | TCP_FIN,
    TCP_RST,
    TCP_FIN,
    0,
)

_packet = st.builds(
    PacketRecord,
    timestamp=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    src_ip=st.integers(min_value=1, max_value=8),
    dst_ip=st.integers(min_value=1, max_value=8),
    src_port=st.integers(min_value=1, max_value=5),
    dst_port=st.integers(min_value=1, max_value=5),
    protocol=st.sampled_from((6, 17)),
    flags=st.sampled_from(_FLAG_CHOICES),
    payload_len=st.sampled_from((0, 1, 500, 501, 1460)),
)


@settings(max_examples=40, deadline=None)
@given(
    packets=st.lists(_packet, min_size=0, max_size=120),
    chunk_size=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**16),
    idle_timeout=st.sampled_from((0.5, 5.0, 64.0)),
    span=st.sampled_from((5.0, 50.0, 5000.0)),
    nan_rows=st.sets(st.integers(min_value=0, max_value=119), max_size=3),
)
def test_arbitrary_packet_sequences(
    packets, chunk_size, seed, idle_timeout, span, nan_rows
):
    """Tiny 5-tuple space → heavy key collisions, reordering → rebases.

    Unsorted hypothesis timestamps drive the auto-base rebase path and
    rows far below the ones before them; FIN/RST mixes drive mid-chunk
    closes; the cramped address space forces flow reuse after
    termination or eviction.  Timestamps squeezed into ``span`` seconds
    against a drawn idle timeout mix evictions with flows that survive,
    and sparse NaN stamps never go stale and never evict.
    """
    packets = [
        replace(
            packet,
            timestamp=float("nan") if row in nan_rows
            else packet.timestamp * (span / 5000.0),
        )
        for row, packet in enumerate(packets)
    ]
    config = CompressorConfig(idle_timeout=idle_timeout)
    expected = scalar_bytes(packets, config)
    assert columnar_bytes(packets, config, chunks=chunk_size) == expected
    assert columnar_bytes(packets, config, seed=seed) == expected


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_size=st.integers(min_value=1, max_value=700),
)
def test_web_trace_identity(seed, chunk_size):
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    assert columnar_bytes(trace.packets, chunks=chunk_size) == scalar_bytes(
        trace.packets
    )


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_size=st.integers(min_value=1, max_value=700),
)
def test_p2p_trace_identity(seed, chunk_size):
    trace = generate_p2p_trace(duration=1.5, session_rate=6.0, seed=seed)
    assert columnar_bytes(trace.packets, chunks=chunk_size) == scalar_bytes(
        trace.packets
    )


def _burst(start, first_port, flows):
    """``flows`` unterminated flows opening 10 ms apart, in time order."""
    packets = []
    for index in range(flows):
        packets += _unterminated_flow(start + 0.01 * index, first_port + index)
    return sorted(packets, key=lambda packet: packet.timestamp)


@settings(max_examples=10, deadline=None)
@given(
    idle_timeout=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    gap=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    chunk_size=st.integers(min_value=1, max_value=16),
)
def test_idle_eviction_identity(idle_timeout, gap, chunk_size):
    """Idle eviction fires (or not) mid-chunk identically on both engines."""
    packets = _unterminated_flow(0.0, 2000) + _unterminated_flow(gap, 2001)
    config = CompressorConfig(idle_timeout=idle_timeout)
    assert columnar_bytes(packets, config, chunks=chunk_size) == scalar_bytes(
        packets, config
    )


@settings(max_examples=10, deadline=None)
@given(
    idle_timeout=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    gap=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    flows=st.integers(min_value=1, max_value=150),
    chunk_size=st.integers(min_value=17, max_value=2000),
)
def test_idle_eviction_mid_chunk_identity(idle_timeout, gap, flows, chunk_size):
    """The same with large chunks: the gate's first row falls deep
    inside a chunk, after a kernel-fed prefix.

    Two bursts of up to 900 rows each; chunks of 16 rows or fewer are
    :func:`test_idle_eviction_identity`'s.
    """
    packets = _burst(0.0, 2000, flows) + _burst(gap, 3000, flows)
    config = CompressorConfig(idle_timeout=idle_timeout)
    assert columnar_bytes(packets, config, chunks=chunk_size) == scalar_bytes(
        packets, config
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cut=st.floats(min_value=0.0, max_value=1.0),
    shift=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
    chunk_size=st.integers(min_value=1, max_value=2000),
)
def test_rebase_identity(seed, cut, shift, chunk_size):
    """A capture stamped before the first packet, spliced in mid-feed.

    Its first row rebases the implicit base; with large chunks that row
    falls inside a chunk whose earlier rows went through the kernel.
    """
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed).packets
    early = generate_web_trace(duration=0.5, flow_rate=25.0, seed=seed + 1).packets
    origin = trace[0].timestamp - shift - early[-1].timestamp
    early = [replace(packet, timestamp=packet.timestamp + origin) for packet in early]
    at = int(cut * len(trace))
    packets = trace[:at] + early + trace[at:]
    assert columnar_bytes(packets, chunks=chunk_size) == scalar_bytes(packets)


# -- fixture corpus ---------------------------------------------------------


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("fixture", ["v1.fctc"])
def test_fixture_corpus_identity(fixture):
    """Replay the on-disk corpus and recompress through both engines."""
    compressed = deserialize_compressed((FIXTURES / fixture).read_bytes())
    packets = decompress_trace(compressed).packets
    assert packets, "fixture decodes to packets"
    assert columnar_bytes(packets) == scalar_bytes(packets)


# -- the full streaming facade and the file paths ---------------------------


def test_streaming_facade_feed_shapes_identical():
    """Record feeds and column feeds: the reference's one output."""
    trace = generate_web_trace(duration=3.0, flow_rate=30.0, seed=21)
    packets = list(trace.packets)
    outputs = [scalar_bytes(packets)]
    for columnar_feed in (False, True):
        compressor = StreamingCompressor(name="t")
        for start in range(0, len(packets), 333):
            chunk = packets[start : start + 333]
            if columnar_feed:
                compressor.feed(columns_from_records(chunk))
            else:
                compressor.feed(chunk)
        outputs.append(serialize_compressed(compressor.finish()))
    assert len(set(outputs)) == 1


@pytest.fixture(scope="module")
def tsh_path(tmp_path_factory):
    trace = generate_web_trace(duration=4.0, flow_rate=40.0, seed=33)
    path = tmp_path_factory.mktemp("columnar-identity") / "t.tsh"
    trace.save_tsh(path)
    return path


def _tsh_packets(tsh_path):
    """The file's packets at TSH's µs resolution, as the facade reads them."""
    return Trace.load_tsh(tsh_path).packets


def test_fctc_file_identity(tsh_path, tmp_path):
    """Facade ``.fctc`` at any read chunking: the reference's bytes."""
    from repro import api

    expected = scalar_bytes(_tsh_packets(tsh_path), name=tsh_path.stem)
    for chunk_packets in (None, 97):
        dest = tmp_path / "out.fctc"
        with api.open(tsh_path) as store:
            store.compress(
                dest, options=api.Options.make(chunk_packets=chunk_packets)
            )
        assert dest.read_bytes() == expected


def _oracle_archive(packets, dest, segment_span):
    """The reference ``.fctca``: the rotation rule of ``SegmentFeeder``
    (a segment seals before the first packet ``segment_span`` seconds
    past its first packet) over reference-compressed segments."""
    from repro.archive import ArchiveWriter

    epoch = packets[0].timestamp
    runs, run = [], []
    for packet in packets:
        if run and packet.timestamp - run[0].timestamp >= segment_span:
            runs.append(run)
            run = []
        run.append(packet)
    runs.append(run)
    with ArchiveWriter.create(dest, epoch=epoch) as writer:
        for ordinal, run in enumerate(runs):
            name = f"{dest.stem}/seg-{ordinal:05d}"
            writer.write_segment(
                run_oracle(run, name=name, base_time=epoch).output
            )
    return dest.read_bytes()


def test_fctca_archive_identity(tsh_path, tmp_path):
    """Segment rotation splits column chunks at the reference's rows."""
    from repro import api

    (tmp_path / "oracle").mkdir()
    (tmp_path / "engine").mkdir()
    expected = _oracle_archive(
        _tsh_packets(tsh_path), tmp_path / "oracle" / "out.fctca", 1.0
    )
    dest = tmp_path / "engine" / "out.fctca"
    api.create_archive(
        dest, [tsh_path], options=api.Options.make(segment_span=1.0)
    )
    assert dest.read_bytes() == expected

