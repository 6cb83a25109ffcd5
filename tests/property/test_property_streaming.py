"""Property: streaming and batch compression are byte-identical.

The streaming engine promises the exact bytes of the batch path for any
packet sequence and any chunking of the feed — including traces whose
flows never see a FIN/RST and must be closed by idle eviction.  Checked
here over generated Web and P2P traffic.
"""

from hypothesis import given, settings, strategies as st

from repro.core.codec import serialize_compressed
from repro.core.compressor import CompressorConfig, compress_trace
from repro.core.decompressor import decompress_trace
from repro.core.streaming import StreamingCompressor
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_SYN
from repro.synth import generate_p2p_trace, generate_web_trace


def _stream_in_chunks(trace, chunk_size, config=None):
    compressor = StreamingCompressor(config, name=trace.name)
    for start in range(0, len(trace.packets), chunk_size):
        compressor.feed(trace.packets[start : start + chunk_size])
    return serialize_compressed(compressor.finish())


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_size=st.integers(min_value=1, max_value=700),
)
def test_web_trace_equivalence(seed, chunk_size):
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    batch = serialize_compressed(compress_trace(trace))
    assert _stream_in_chunks(trace, chunk_size) == batch


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_size=st.integers(min_value=1, max_value=700),
)
def test_p2p_trace_equivalence(seed, chunk_size):
    trace = generate_p2p_trace(duration=1.5, session_rate=6.0, seed=seed)
    batch = serialize_compressed(compress_trace(trace))
    assert _stream_in_chunks(trace, chunk_size) == batch


def _unterminated_flow(start, client_port, packets=4):
    """A flow that never sends FIN/RST — only idle eviction closes it."""
    client, server = 0x8D5A0101, 0xC0A80050
    out = [
        PacketRecord(start, client, server, client_port, 80, flags=TCP_SYN),
        PacketRecord(
            start + 0.01, server, client, 80, client_port, flags=TCP_SYN | TCP_ACK
        ),
    ]
    for index in range(packets):
        out.append(
            PacketRecord(
                start + 0.02 + index * 0.001,
                client,
                server,
                client_port,
                80,
                flags=TCP_ACK,
                payload_len=512,
            )
        )
    return out


@settings(max_examples=10, deadline=None)
@given(
    idle_timeout=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    gap=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    chunk_size=st.integers(min_value=1, max_value=16),
)
def test_idle_eviction_equivalence(idle_timeout, gap, chunk_size):
    """Unterminated flows separated by an arbitrary quiet gap.

    Whether the gap exceeds the idle timeout (mid-trace eviction) or not
    (end-of-trace flush), streaming must mirror batch byte for byte.
    """
    packets = _unterminated_flow(0.0, 2000) + _unterminated_flow(gap, 2001)
    config = CompressorConfig(idle_timeout=idle_timeout)
    batch = serialize_compressed(compress_trace(iter(packets), config))

    compressor = StreamingCompressor(config)
    for start in range(0, len(packets), chunk_size):
        compressor.feed(packets[start : start + chunk_size])
    assert serialize_compressed(compressor.finish()) == batch

    # Both flows must be present and replayable despite missing FIN/RST.
    assert compressor.output.flow_count() == 2
    restored = decompress_trace(compressor.output)
    assert len(restored) == len(packets)


def test_streaming_roundtrip_is_lossless_in_counts():
    """Stream-compress then decompress: flow/packet counts survive."""
    trace = generate_web_trace(duration=2.0, flow_rate=30.0, seed=5)
    compressed = compress_trace(iter(trace.packets), name=trace.name)
    restored = decompress_trace(compressed)
    assert len(restored) == len(trace)
    assert compressed.original_packet_count == len(trace)
