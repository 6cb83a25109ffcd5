"""Benchmarks: batch vs. streaming compression.

Two claims are checked, mirroring the streaming engine's contract:

* **Bounded memory** — the streaming path's peak allocation is bounded by
  the active-flow working set plus the compressed datasets, so it grows
  sub-linearly in trace length while the batch path (which materializes
  every packet) grows linearly.
* **Engine throughput** — the production engine runs at least 3x the
  rate of the readable reference compressor (``tests/compress_oracle.py``)
  on the same records, with identical output bytes.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.compressor import compress_trace
from repro.core.streaming import compress_tsh_file
from repro.synth import generate_web_trace
from repro.trace.trace import Trace

SMALL_DURATION = 8.0
LARGE_DURATION = 32.0
BENCH_RATE = 40.0
BENCH_SEED = 1
STREAM_CHUNK = 1024


@pytest.fixture(scope="module")
def small_tsh(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-stream") / "small.tsh"
    generate_web_trace(
        duration=SMALL_DURATION, flow_rate=BENCH_RATE, seed=BENCH_SEED
    ).save_tsh(path)
    return path


@pytest.fixture(scope="module")
def large_tsh(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-stream") / "large.tsh"
    generate_web_trace(
        duration=LARGE_DURATION, flow_rate=BENCH_RATE, seed=BENCH_SEED
    ).save_tsh(path)
    return path


def _batch_peak(path) -> int:
    tracemalloc.start()
    trace = Trace.load_tsh(path)
    compress_trace(trace)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _stream_peak(path) -> int:
    tracemalloc.start()
    compress_tsh_file(path, chunk_size=STREAM_CHUNK)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class TestPeakMemory:
    def test_streaming_memory_is_bounded(self, small_tsh, large_tsh):
        small_packets = small_tsh.stat().st_size // 44
        large_packets = large_tsh.stat().st_size // 44
        size_growth = large_packets / small_packets

        batch_small = _batch_peak(small_tsh)
        batch_large = _batch_peak(large_tsh)
        stream_small = _stream_peak(small_tsh)
        stream_large = _stream_peak(large_tsh)
        stream_growth = stream_large / stream_small

        print(
            f"\npackets {small_packets} -> {large_packets} (x{size_growth:.1f}) | "
            f"batch peak {batch_small / 1e6:.2f} -> {batch_large / 1e6:.2f} MB | "
            f"stream peak {stream_small / 1e6:.2f} -> {stream_large / 1e6:.2f} MB "
            f"(x{stream_growth:.2f})"
        )

        # Streaming stays well under the materializing path...
        assert stream_large < batch_large / 2
        # ...and its peak grows sub-linearly in trace length (measured
        # ~1.4x for a ~3.7x longer trace; 70% of linear leaves headroom).
        assert stream_growth < 0.7 * size_growth


@pytest.mark.benchmark(group="streaming")
class TestThroughput:
    def test_batch(self, benchmark, large_tsh):
        compressed = benchmark.pedantic(
            lambda: compress_trace(Trace.load_tsh(large_tsh)),
            rounds=3,
            iterations=1,
        )
        assert compressed.flow_count() > 0

    def test_stream(self, benchmark, large_tsh):
        compressor = benchmark.pedantic(
            lambda: compress_tsh_file(large_tsh, chunk_size=STREAM_CHUNK),
            rounds=3,
            iterations=1,
        )
        assert compressor.output.flow_count() > 0


class TestColumnarSpeedup:
    """The engine's throughput pin: >= 3x over the reference compressor.

    Both read the same in-memory records, so the ratio is the clustering
    hot path alone (no file decode on either side).  3x leaves room for
    slow CI runners while still failing loudly if the engine ever slows
    to the reference's per-packet object churn.  Identity is asserted on
    the same run — a fast-but-wrong engine must not pass.
    """

    @staticmethod
    def _best_of(run, rounds=3):
        timings = []
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = run()
            timings.append(time.perf_counter() - start)
        return result, min(timings)

    def test_columnar_at_least_3x_scalar(self, large_tsh):
        from repro.core.codec import serialize_compressed

        from tests.compress_oracle import run_oracle

        records = Trace.load_tsh(large_tsh).packets
        reference, reference_seconds = self._best_of(
            lambda: run_oracle(records).output
        )
        engine, engine_seconds = self._best_of(lambda: compress_trace(records))

        packets = len(records)
        speedup = reference_seconds / engine_seconds
        print(
            f"\n{packets} packets | reference {reference_seconds:.3f}s "
            f"({packets / reference_seconds:,.0f} pps) | engine "
            f"{engine_seconds:.3f}s ({packets / engine_seconds:,.0f} pps) "
            f"| speedup x{speedup:.2f}"
        )
        assert serialize_compressed(engine) == serialize_compressed(reference)
        assert speedup >= 3.0
