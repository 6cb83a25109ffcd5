"""End-to-end instrumentation accuracy.

The acceptance bar for observability: semantic counters must match the
trace's ground truth exactly, and the engine's compression counters must
equal the reference compressor's (``tests/compress_oracle.py``).
"""

import pytest

from repro import api
from repro.core.streaming import compress_tsh_file
from repro.obs import RunReport, scoped
from repro.obs.metrics import MetricsRegistry
from repro.synth import generate_web_trace
from repro.trace.trace import Trace
from repro.trace.tsh import TSH_RECORD_BYTES

from tests.compress_oracle import run_oracle

# Counters whose totals are facts about the input, not about the engine.
SEMANTIC = (
    "trace.read.bytes",
    "trace.read.records",
    "compress.packets",
    "compress.flows",
    "compress.flows.short",
    "compress.flows.long",
    "compress.template.hits",
    "compress.template.misses",
    "compress.evictions",
    "stream.chunks",
)


@pytest.fixture(scope="module")
def web_tsh(tmp_path_factory):
    trace = generate_web_trace(duration=8.0, flow_rate=25.0, seed=11)
    path = tmp_path_factory.mktemp("obs") / "web.tsh"
    trace.save_tsh(path)
    return path, trace


def _counters(path, *, chunk_size=256):
    registry = MetricsRegistry()
    with scoped(registry):
        compressor = compress_tsh_file(path, chunk_size=chunk_size)
    return registry, compressor


class TestGroundTruth:
    def test_counters_match_trace_exactly(self, web_tsh):
        path, trace = web_tsh
        registry, compressor = _counters(path)
        stats = compressor.stats
        assert registry.value("trace.read.records") == len(trace)
        assert registry.value("trace.read.bytes") == len(trace) * TSH_RECORD_BYTES
        assert registry.value("compress.packets") == len(trace)
        assert registry.value("compress.flows") == stats.flows_closed
        assert (
            registry.value("compress.flows.short")
            + registry.value("compress.flows.long")
            == stats.flows_closed
        )
        assert registry.value("stream.active_flows.peak") == (
            compressor.streaming_stats.peak_active_flows
        )

    def test_stage_timers_recorded(self, web_tsh):
        path, _ = web_tsh
        registry, _ = _counters(path, chunk_size=128)
        for stage in ("stage.decode", "stage.cluster"):
            timer = registry.get(stage)
            assert timer is not None and timer.count > 0


class TestReplayInstrumentation:
    def test_replay_counts_batches_packets_and_stage_times(
        self, tmp_path, web_tsh, monkeypatch
    ):
        from repro.core import replay

        monkeypatch.setattr(replay, "REPLAY_BATCH_PACKETS", 256)
        path, _ = web_tsh
        container = tmp_path / "web.fctc"
        with api.open(path) as store:
            store.compress(container)
        registry = MetricsRegistry()
        with scoped(registry):
            with api.open(container) as store:
                result = store.export(tmp_path / "out.tsh")
        batches = registry.value("replay.batches")
        assert registry.value("replay.packets") == result.packets
        assert batches >= result.packets // 1024
        # One observation per sorted batch (export: per non-empty one);
        # the spec timer also times the last look at the drained feed.
        assert registry.get("stage.replay.specs").count == batches + 1
        for stage in ("stage.replay.synthesis", "stage.replay.order"):
            assert registry.get(stage).count == batches
        assert 0 < registry.get("stage.replay.export").count <= batches


class TestEngineParity:
    def test_semantic_counters_identical(self, web_tsh):
        path, _ = web_tsh
        registry, _ = _counters(path)
        reference = run_oracle(Trace.load_tsh(path).packets)
        # The reference has compress.* counters only: it reads no file
        # and feeds no chunks.
        oracle = MetricsRegistry()
        reference.stats.publish(oracle)
        for name in SEMANTIC:
            if name.startswith("compress."):
                assert registry.value(name) == oracle.value(name), name
        chunk_histogram = registry.get("columnar.chunk_packets")
        assert chunk_histogram is not None
        assert chunk_histogram.sum == registry.value("compress.packets")


class TestFacadeExposure:
    def test_report_true_returns_run_report(self, tmp_path, web_tsh):
        path, trace = web_tsh
        with api.open(path) as store:
            report = store.compress(tmp_path / "out.fctc", report=True)
        assert isinstance(report, RunReport)
        assert report.command == "compress"
        assert report.counters["compress.packets"] == len(trace)
        assert report.meta["source"] == str(path)

    def test_metrics_false_leaves_default_registry_untouched(
        self, tmp_path, web_tsh
    ):
        from repro.obs import get_registry

        path, _ = web_tsh
        options = api.Options(metrics=False)
        before = get_registry().value("compress.packets", default=0)
        with api.open(path, options=options) as store:
            store.compress(tmp_path / "out2.fctc")
        assert get_registry().value("compress.packets", default=0) == before
