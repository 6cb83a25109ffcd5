"""The stats()/matrices()/window_probe() verbs across store kinds."""

from __future__ import annotations

import pytest

import repro
from repro.api.errors import CapabilityError
from repro.analysis.matrices import MatrixReport, TrafficMatrix
from repro.query.engine import QueryStats, WindowProbe
from repro.trace.stats import TraceStatistics


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    from repro.synth import generate_web_trace
    from repro.trace.export import export_packet_stream

    path = tmp_path_factory.mktemp("stores") / "t.tsh"
    trace = generate_web_trace(duration=8.0, flow_rate=25.0, seed=5)
    export_packet_stream(iter(trace.packets), path)
    return path


@pytest.fixture(scope="module")
def container_path(tmp_path_factory, trace_path):
    path = tmp_path_factory.mktemp("stores") / "t.fctc"
    with repro.open(trace_path) as store:
        store.compress(path)
    return path


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, trace_path):
    path = tmp_path_factory.mktemp("stores") / "t.fctca"
    repro.api.create_archive(
        path, [trace_path], options=repro.api.Options.make(segment_span=2.0)
    )
    return path


class TestTraceFileStats:
    def test_no_arguments_keeps_legacy_statistics(self, trace_path):
        with repro.open(trace_path) as store:
            stats = store.stats()
        assert isinstance(stats, TraceStatistics)

    def test_window_switches_to_matrix_report(self, trace_path):
        with repro.open(trace_path) as store:
            report = store.stats(window=2.0)
        assert isinstance(report, MatrixReport)
        assert report.flows > 0
        assert report.segments_total == 1

    def test_matrices_stream(self, trace_path):
        with repro.open(trace_path) as store:
            matrices = list(store.matrices(window=2.0))
        assert matrices
        assert all(isinstance(m, TrafficMatrix) for m in matrices)

    def test_window_probe_unsupported(self, trace_path):
        with repro.open(trace_path) as store:
            with pytest.raises(CapabilityError, match="archive"):
                store.window_probe(4)


class TestContainerStats:
    def test_stats_defaults_to_matrix_report(self, container_path):
        with repro.open(container_path) as store:
            report = store.stats(window=2.0)
        assert isinstance(report, MatrixReport)

    def test_container_matches_trace_file(self, trace_path, container_path):
        with repro.open(trace_path) as store:
            from_trace = store.stats(window=2.0)
        with repro.open(container_path) as store:
            from_container = store.stats(window=2.0)
        assert from_container.windows == from_trace.windows

    def test_negative_top_k_rejected(self, container_path):
        with repro.open(container_path) as store:
            with pytest.raises(ValueError, match="top_k"):
                store.stats(window=2.0, top_k=-1)

    def test_top_k_zero_returns_empty_lists(self, container_path):
        with repro.open(container_path) as store:
            report = store.stats(window=2.0, top_k=0)
        assert report.flows > 0
        for window in report.windows:
            assert window.top_links_packets == window.top_links_bytes == ()
            assert window.scan_candidates == ()


class TestArchiveStats:
    def test_index_and_decode_methods_agree(self, archive_path):
        # Note: archive windows are NOT comparable to container windows
        # — segmentation cuts flows at segment boundaries — but the two
        # derivation methods over the same archive must agree exactly.
        with repro.open(archive_path) as store:
            by_index = store.stats(window=2.0)
        with repro.open(archive_path) as store:
            by_decode = store.stats(window=2.0, method="decode")
        assert by_index.windows == by_decode.windows

    def test_query_stats_accounting_flows_through(self, archive_path):
        query_stats = QueryStats()
        with repro.open(archive_path) as store:
            report = store.stats(
                window=2.0, since=2.0, until=4.0, query_stats=query_stats
            )
        assert query_stats.segments_decoded == report.segments_decoded
        assert report.segments_pruned > 0

    def test_matrices_stream(self, archive_path):
        with repro.open(archive_path) as store:
            matrices = list(store.matrices(window=2.0))
        assert matrices
        assert [m.index for m in matrices] == sorted(m.index for m in matrices)

    def test_window_probe_rows(self, archive_path):
        with repro.open(archive_path) as store:
            probes = store.window_probe(4)
            total_segments = store.reader.segment_count
        assert len(probes) == 4
        assert all(isinstance(probe, WindowProbe) for probe in probes)
        assert all(
            0 <= probe.segments_overlapping <= total_segments for probe in probes
        )

    def test_negative_top_k_rejected_before_any_decode(self, archive_path):
        with repro.open(archive_path) as store:
            with pytest.raises(ValueError, match="top_k"):
                store.stats(window=2.0, top_k=-1)
            assert store.reader.segments_decoded == 0

    def test_window_probe_rejects_bad_count(self, archive_path):
        with repro.open(archive_path) as store:
            with pytest.raises(ValueError):
                store.window_probe(0)
