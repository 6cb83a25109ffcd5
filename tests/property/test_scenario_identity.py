"""Every registered scenario is a differential probe of the compressor.

The scenario zoo exists to widen the input distribution the engines are
tested against: incast microbursts (``web-search``/``data-mining``),
protocol mixes with UDP and one-way streams (``mixed-protocol``),
handshake-free half-open floods (``flood``), and correlated multipath
subflows (``mptcp``).  For each registered scenario this file pins

* **engine identity** — the production engine emits byte-for-byte the
  reference compressor's container (``tests/compress_oracle.py``),
  under arbitrary feed chunking;
* **mode identity** — the streaming facade (record feeds and column
  feeds) emits the reference's exact bytes;
* **decompression identity** — the bounded-memory
  :class:`StreamingDecompressor` replays exactly the packet sequence
  the batch decompressor materializes.

Style and helpers follow ``tests/property/test_columnar_identity.py``.
"""

from functools import lru_cache

import pytest

from repro.core.codec import serialize_compressed
from repro.core.decompressor import decompress_trace
from repro.core.replay import StreamingDecompressor
from repro.core.streaming import StreamingCompressor
from repro.net.columns import columns_from_records
from repro.synth.scenarios import get_scenario, scenario_names

from tests.compress_oracle import FlowClusterCompressor
from tests.property.test_columnar_identity import columnar_bytes, scalar_bytes

DURATION = 1.2
FLOW_RATE = 24.0
SEED = 97


@lru_cache(maxsize=None)
def scenario_packets(name):
    """One small deterministic trace per scenario, shared across tests."""
    trace = get_scenario(name).build(
        duration=DURATION, flow_rate=FLOW_RATE, seed=SEED
    )
    assert trace.packets, f"scenario {name!r} produced an empty workload"
    return tuple(trace.packets)


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("chunk_size", [1, 97, 5000])
def test_engine_identity(name, chunk_size):
    """Columnar == scalar bytes for every scenario, any feed chunking."""
    packets = list(scenario_packets(name))
    assert columnar_bytes(packets, chunks=chunk_size) == scalar_bytes(packets)


@pytest.mark.parametrize("name", scenario_names())
def test_engine_identity_randomized_chunks(name):
    packets = list(scenario_packets(name))
    expected = scalar_bytes(packets)
    for seed in (0, 1, 2):
        assert columnar_bytes(packets, seed=seed) == expected


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("columnar_feed", [False, True])
def test_batch_stream_identity(name, columnar_feed):
    """The streaming facade matches the batch compressor byte for byte."""
    packets = list(scenario_packets(name))
    expected = scalar_bytes(packets)
    compressor = StreamingCompressor(name="t")
    for start in range(0, len(packets), 211):
        chunk = packets[start : start + 211]
        if columnar_feed:
            compressor.feed(columns_from_records(chunk))
        else:
            compressor.feed(chunk)
    assert serialize_compressed(compressor.finish()) == expected


@pytest.mark.parametrize("name", scenario_names())
def test_batch_streaming_decompress_identity(name):
    """Batch and bounded-memory replay emit the identical packet stream."""
    packets = list(scenario_packets(name))
    engine = FlowClusterCompressor(name="t")
    for packet in packets:
        engine.add_packet(packet)
    compressed = engine.finish()
    batch = decompress_trace(compressed).packets
    streamed = list(StreamingDecompressor(compressed))
    assert streamed == batch
