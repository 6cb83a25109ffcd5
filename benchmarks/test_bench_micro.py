"""Micro-benchmarks: the hot paths every experiment leans on."""

import random

import pytest

from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.compressor import compress_trace
from repro.core.decompressor import decompress_trace
from repro.memsim.cache import CacheConfig, SetAssociativeCache
from repro.net.ip import IPv4Prefix
from repro.routing.radix import RadixTree
from repro.routing.table import RoutingTableConfig, build_routing_table
from repro.trace.tsh import read_tsh_bytes, write_tsh_bytes


@pytest.mark.benchmark(group="micro-core")
class TestCorePipeline:
    def test_compress_throughput(self, benchmark, bench_trace):
        compressed = benchmark.pedantic(
            lambda: compress_trace(bench_trace), rounds=3, iterations=1
        )
        assert compressed.flow_count() > 0

    def test_decompress_throughput(self, benchmark, bench_trace):
        compressed = compress_trace(bench_trace)
        trace = benchmark.pedantic(
            lambda: decompress_trace(compressed), rounds=3, iterations=1
        )
        assert len(trace) == len(bench_trace)

    def test_serialize(self, benchmark, bench_trace):
        compressed = compress_trace(bench_trace)
        data = benchmark(lambda: serialize_compressed(compressed))
        assert len(data) > 0

    def test_deserialize(self, benchmark, bench_trace):
        data = serialize_compressed(compress_trace(bench_trace))
        restored = benchmark(lambda: deserialize_compressed(data))
        assert restored.flow_count() > 0


@pytest.mark.benchmark(group="micro-tsh")
class TestTshCodec:
    def test_encode(self, benchmark, bench_trace):
        data = benchmark.pedantic(
            lambda: write_tsh_bytes(bench_trace.packets), rounds=3, iterations=1
        )
        assert len(data) == 44 * len(bench_trace)

    def test_decode(self, benchmark, bench_trace):
        data = write_tsh_bytes(bench_trace.packets)
        packets = benchmark.pedantic(
            lambda: read_tsh_bytes(data), rounds=3, iterations=1
        )
        assert len(packets) == len(bench_trace)


@pytest.mark.benchmark(group="micro-radix")
class TestRadix:
    def test_lookup_rate(self, benchmark):
        tree = build_routing_table(RoutingTableConfig(background_routes=2000))
        rng = random.Random(5)
        addresses = [rng.getrandbits(32) for _ in range(2000)]

        def lookups():
            return sum(1 for a in addresses if tree.lookup(a) is not None)

        matched = benchmark(lookups)
        assert 0 <= matched <= len(addresses)

    def test_insert_rate(self, benchmark):
        rng = random.Random(6)
        prefixes = [
            (IPv4Prefix(rng.getrandbits(32) & 0xFFFFFF00, 24), rng.randrange(16))
            for _ in range(500)
        ]

        def build():
            tree = RadixTree()
            for prefix, hop in prefixes:
                tree.insert(prefix, hop)
            return tree

        tree = benchmark(build)
        assert tree.entry_count > 0


@pytest.mark.benchmark(group="micro-cache")
def test_cache_access_rate(benchmark):
    rng = random.Random(7)
    addresses = [rng.randrange(1 << 20) for _ in range(20000)]

    def replay():
        cache = SetAssociativeCache(CacheConfig())
        cache.replay(addresses)
        return cache.stats.misses

    misses = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert misses > 0

