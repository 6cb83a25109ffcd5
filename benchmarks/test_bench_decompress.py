"""Benchmarks: batch vs. streaming decompression.

Two claims are checked, mirroring the replay engine's contract:

* **Flat memory** — the streaming decompressor's peak allocation is
  bounded by one merge batch plus its carried rows plus the compressed
  datasets, so it grows sub-linearly in trace length while the batch
  path (which materializes every synthetic packet) grows linearly.
* **Byte identity at speed** — the batch-sort merge must not give back
  the batch path's throughput: the streamed packet sequence is
  identical and the wall clock comparable (the benchmark records both).
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.api import Options, create_archive
from repro.archive import ArchiveReader
from repro.core.compressor import compress_trace
from repro.core.decompressor import decompress_trace
from repro.core.replay import StreamingDecompressor
from repro.synth import generate_web_trace

SMALL_DURATION = 8.0
LARGE_DURATION = 32.0
BENCH_RATE = 40.0
BENCH_SEED = 1


def _compressed_for(duration):
    trace = generate_web_trace(
        duration=duration, flow_rate=BENCH_RATE, seed=BENCH_SEED
    )
    return compress_trace(trace)


@pytest.fixture(scope="module")
def small_compressed():
    return _compressed_for(SMALL_DURATION)


@pytest.fixture(scope="module")
def large_compressed():
    return _compressed_for(LARGE_DURATION)


@pytest.fixture(scope="module")
def large_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-replay") / "large.fctca"
    trace = generate_web_trace(
        duration=LARGE_DURATION, flow_rate=BENCH_RATE, seed=BENCH_SEED
    )
    create_archive(
        path, iter(trace.packets), options=Options.make(segment_span=4.0)
    )
    return path


def _batch_peak(compressed) -> int:
    tracemalloc.start()
    decompress_trace(compressed)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _stream_peak(compressed) -> tuple[int, int]:
    engine = StreamingDecompressor(compressed)
    tracemalloc.start()
    count = sum(1 for _ in engine.packets())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, count


class TestPeakMemory:
    def test_streaming_memory_is_flat(self, small_compressed, large_compressed):
        small_packets = small_compressed.packet_count()
        large_packets = large_compressed.packet_count()
        size_growth = large_packets / small_packets

        batch_small = _batch_peak(small_compressed)
        batch_large = _batch_peak(large_compressed)
        stream_small, count_small = _stream_peak(small_compressed)
        stream_large, count_large = _stream_peak(large_compressed)
        assert (count_small, count_large) == (small_packets, large_packets)
        stream_growth = stream_large / stream_small

        print(
            f"\npackets {small_packets} -> {large_packets} (x{size_growth:.1f}) | "
            f"batch peak {batch_small / 1e6:.2f} -> {batch_large / 1e6:.2f} MB | "
            f"stream peak {stream_small / 1e6:.2f} -> {stream_large / 1e6:.2f} MB "
            f"(x{stream_growth:.2f})"
        )

        # Streaming stays well under the materializing path...
        assert stream_large < batch_large / 2
        # ...and its peak grows sub-linearly in trace length (the merge
        # holds one batch plus its carried rows, not the trace).
        assert stream_growth < 0.7 * size_growth


@pytest.mark.benchmark(group="decompress")
class TestThroughput:
    def test_batch(self, benchmark, large_compressed):
        trace = benchmark.pedantic(
            lambda: decompress_trace(large_compressed), rounds=3, iterations=1
        )
        assert len(trace) == large_compressed.packet_count()

    def test_stream(self, benchmark, large_compressed):
        count = benchmark.pedantic(
            lambda: sum(1 for _ in StreamingDecompressor(large_compressed)),
            rounds=3,
            iterations=1,
        )
        assert count == large_compressed.packet_count()

    def test_archive_replay(self, benchmark, large_archive):
        def replay():
            with ArchiveReader(large_archive) as reader:
                return sum(1 for _ in reader.iter_packets())

        count = benchmark.pedantic(replay, rounds=3, iterations=1)
        assert count > 0
