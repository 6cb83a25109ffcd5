"""The traffic-matrix analytics subsystem: matrices, statistics, reports."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

import repro
from repro.analysis.matrices import (
    AddressAnonymizer,
    MatrixReport,
    StreamingWindowAggregator,
    TrafficMatrix,
    WindowStats,
    matrix_report_for_archive,
    matrix_report_for_compressed,
    publish_window_gauges,
    window_stats_for_compressed,
)
from repro.archive.reader import ArchiveReader
from repro.core.codec import quantize_timestamp
from repro.core.compressor import compress_trace
from repro.core.flowmeta import FlowRecord, flow_records
from repro.obs import MetricsRegistry, render_prometheus
from repro.query.engine import QueryStats
from repro.synth import generate_web_trace
from repro.synth.scenarios import get_scenario


@pytest.fixture(scope="module")
def compressed():
    return compress_trace(generate_web_trace(duration=8.0, flow_rate=25.0, seed=5))


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrices") / "trace.fctca"
    trace = generate_web_trace(duration=12.0, flow_rate=30.0, seed=3)
    repro.api.create_archive(
        path, iter(trace.packets), options=repro.api.Options.make(segment_span=3.0)
    )
    return path


def _record(start, src, dst, fwd=2, rev=1, bytes_fwd=300, bytes_rev=1460):
    return FlowRecord(
        segment=0,
        start=start,
        end=start + 0.1,
        src=src,
        dst=dst,
        is_long=False,
        packets=fwd + rev,
        bytes=bytes_fwd + bytes_rev,
        packets_fwd=fwd,
        packets_rev=rev,
        bytes_fwd=bytes_fwd,
        bytes_rev=bytes_rev,
        rtt=0.05,
    )


class TestTrafficMatrix:
    def test_add_flow_folds_both_directions(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20))
        assert matrix.flows == 1
        assert matrix.packets == 3
        cells = {(s, d): (p, b) for s, d, p, b in matrix.iter_cells()}
        assert cells[(10, 20)] == (2, 300)
        assert cells[(20, 10)] == (1, 1460)

    def test_one_sided_flow_adds_one_cell(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20, rev=0, bytes_rev=0))
        assert matrix.links == 1

    def test_cells_accumulate(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20))
        matrix.add_flow(_record(2.0, src=10, dst=20))
        cells = {(s, d): (p, b) for s, d, p, b in matrix.iter_cells()}
        assert cells[(10, 20)] == (4, 600)

    def test_anonymizer_applies_before_the_matrix(self):
        anonymizer = AddressAnonymizer("key")
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20), anonymizer)
        sources = {src for src, _, _, _ in matrix.iter_cells()}
        assert 10 not in sources and 20 not in sources


def _folded(compressed_trace) -> TrafficMatrix:
    matrix = TrafficMatrix(0, 0.0, 100.0)
    for record in flow_records(compressed_trace):
        matrix.add_flow(record)
    return matrix


def _stats_digest(matrix, top_k, scan_fanout) -> str:
    document = matrix.stats(top_k=top_k, scan_fanout=scan_fanout).to_dict()
    return hashlib.blake2b(
        json.dumps(document, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


# Digests of ``matrix.stats(top_k, scan_fanout).to_dict()`` recorded
# before the sparse-matrix engine was retired: the web matrix (450
# links) was served by the dict walk, the flood matrix (3,385 links)
# by the CSR kernels.  The one engine must reproduce both.
WEB_DIGESTS = {
    (10, 16): "d69c77ba5889de46961c69b15f13e86c",
    (3, 4): "eb0fa9f8a6a959ea34aefb29db43b5ea",
    (100, 1): "522aec3e690aa462ba29e3804b0f5b8a",
}
FLOOD_DIGESTS = {
    (10, 16): "995ce5c5774245d7273950b3ce374d8c",
    (3, 4): "18607f4433f4afa0986ce12681db237b",
    (100, 1): "928dd400a59174101fdc6bf5bd1018af",
}


class TestStatsEngines:
    """The one statistics engine: golden digests, ranking, edge cases."""

    def _dense_matrix(self):
        matrix = TrafficMatrix(2, 10.0, 20.0)
        # A scanner (fan-out 20), a heavy hitter, and tied cells.
        for dst in range(100, 120):
            matrix.add_flow(_record(11.0, src=1, dst=dst, rev=0, bytes_rev=0))
        for _ in range(5):
            matrix.add_flow(_record(12.0, src=2, dst=3))
        matrix.add_flow(_record(13.0, src=4, dst=5))
        matrix.add_flow(_record(13.0, src=5, dst=4))
        return matrix

    @pytest.mark.parametrize("top_k,scan", sorted(WEB_DIGESTS))
    def test_golden_digests_on_web_traffic(self, compressed, top_k, scan):
        matrix = _folded(compressed)
        assert matrix.links == 450
        assert _stats_digest(matrix, top_k, scan) == WEB_DIGESTS[top_k, scan]

    @pytest.mark.parametrize("top_k,scan", sorted(FLOOD_DIGESTS))
    def test_golden_digests_on_a_large_flood_window(self, top_k, scan):
        trace = get_scenario("flood").build(4.0, 40.0, 1)
        matrix = _folded(compress_trace(trace))
        assert matrix.links == 3385
        assert _stats_digest(matrix, top_k, scan) == FLOOD_DIGESTS[top_k, scan]

    def test_scan_candidates_cross_threshold_only(self):
        stats = self._dense_matrix().stats(top_k=10, scan_fanout=16)
        assert [c.src for c in stats.scan_candidates] == [1]
        assert stats.scan_candidates[0].fanout == 20
        assert stats.max_fanout == 20

    def test_top_links_rank_then_tie_break_on_addresses(self):
        matrix = TrafficMatrix(0, 0.0, 1.0)
        matrix.add(9, 1, 5, 50)
        matrix.add(3, 7, 5, 50)
        matrix.add(3, 2, 5, 50)
        matrix.add(1, 1, 9, 10)
        stats = matrix.stats(top_k=10, scan_fanout=100)
        ranked = [(link.src, link.dst) for link in stats.top_links_packets]
        assert ranked == [(1, 1), (3, 2), (3, 7), (9, 1)]

    def test_top_k_zero_yields_empty_lists(self):
        stats = self._dense_matrix().stats(top_k=0, scan_fanout=16)
        assert stats.top_links_packets == stats.top_links_bytes == ()
        assert stats.scan_candidates == ()
        assert stats.max_fanout == 20

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k"):
            self._dense_matrix().stats(top_k=-1)


class TestAddressAnonymizer:
    def test_deterministic_per_key(self):
        first, second = AddressAnonymizer("k1"), AddressAnonymizer("k1")
        assert first(0x0A000001) == second(0x0A000001)

    def test_different_keys_differ(self):
        assert AddressAnonymizer("k1")(1) != AddressAnonymizer("k2")(1)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            AddressAnonymizer("")

    def test_anonymization_preserves_structure(self, compressed):
        plain = matrix_report_for_compressed(compressed, window=2.0)
        masked = matrix_report_for_compressed(
            compressed, window=2.0, anonymize_key="secret"
        )
        assert masked.anonymized and not plain.anonymized
        assert masked.flows == plain.flows
        for a, b in zip(plain.windows, masked.windows):
            assert (a.sources, a.destinations, a.links) == (
                b.sources,
                b.destinations,
                b.links,
            )
            assert a.fanout_hist == b.fanout_hist
        assert (
            masked.windows[0].top_links_packets
            != plain.windows[0].top_links_packets
        )


class TestStreamingWindowAggregator:
    def test_windows_split_on_span(self):
        aggregator = StreamingWindowAggregator(10.0)
        out = list(aggregator.feed(_record(1.0, 1, 2)))
        out += list(aggregator.feed(_record(9.0, 1, 2)))
        out += list(aggregator.feed(_record(11.0, 1, 2)))
        out += list(aggregator.finish())
        assert [m.index for m in out] == [0, 1]
        assert [m.flows for m in out] == [2, 1]
        assert out[0].start == 0.0 and out[0].end == 10.0

    def test_empty_windows_are_skipped(self):
        aggregator = StreamingWindowAggregator(1.0)
        out = list(aggregator.feed(_record(0.5, 1, 2)))
        out += list(aggregator.feed(_record(7.5, 1, 2)))
        out += list(aggregator.finish())
        assert [m.index for m in out] == [0, 7]

    def test_regressing_start_raises(self):
        aggregator = StreamingWindowAggregator(10.0)
        list(aggregator.feed(_record(5.0, 1, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            list(aggregator.feed(_record(4.0, 1, 2)))

    def test_span_none_is_one_unbounded_window(self):
        aggregator = StreamingWindowAggregator(None)
        assert not list(aggregator.feed(_record(1.0, 1, 2)))
        assert not list(aggregator.feed(_record(9999.0, 1, 2)))
        (matrix,) = aggregator.finish()
        assert matrix.flows == 2 and matrix.end == float("inf")

    def test_nonpositive_span_rejected(self):
        with pytest.raises(ValueError):
            StreamingWindowAggregator(0.0)

    def test_holds_at_most_one_window(self):
        aggregator = StreamingWindowAggregator(1.0)
        for second in range(50):
            for matrix in aggregator.feed(_record(float(second), 1, 2)):
                del matrix
            assert aggregator.windows_built >= second - 1
            # The only retained state is the current window's matrix.
            assert aggregator._current is None or (
                aggregator._current.index == second
            )


class TestMatrixReport:
    def test_json_roundtrip(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        document = json.loads(report.to_json())
        assert document["schema"] == "repro.analysis/matrix-report/v1"
        assert MatrixReport.from_dict(document) == report

    def test_from_dict_loads_a_document_naming_the_retired_engine(
        self, archive_path
    ):
        # 1.1 wrote "scipy" here whenever the CSR engine was importable;
        # the label never changed the numbers, so such documents load.
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        document = json.loads(report.to_json())
        assert document["engine"] == "python"
        document["engine"] = "scipy"
        reloaded = MatrixReport.from_dict(document)
        assert reloaded.engine == "scipy"
        assert reloaded.windows == report.windows

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MatrixReport.from_dict({"schema": "bogus/v9"})

    def test_write_and_reload(self, archive_path, tmp_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        out = report.write(tmp_path / "report.json")
        reloaded = MatrixReport.from_dict(json.loads(out.read_text()))
        assert reloaded.windows == report.windows

    def test_summary_lines_cover_every_window(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        text = "\n".join(report.summary_lines())
        assert f"across {len(report.windows)} window(s)" in text
        assert "segments decoded" in text


class TestDifferentialIndexVsDecode:
    """The acceptance criterion: identical statistics, less work."""

    def test_index_and_decode_reports_identical(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            by_index = matrix_report_for_archive(reader, window=3.0)
        with ArchiveReader(archive_path) as reader:
            by_decode = matrix_report_for_archive(
                reader, window=3.0, method="decode"
            )
        assert by_index.windows == by_decode.windows
        assert by_index.flows == by_decode.flows

    def test_bounded_range_decodes_strictly_fewer_segments(self, archive_path):
        registry = MetricsRegistry()
        from repro.obs import scoped

        with scoped(registry):
            index_stats = QueryStats()
            with ArchiveReader(archive_path) as reader:
                by_index = matrix_report_for_archive(
                    reader, window=3.0, since=3.0, until=6.0, stats=index_stats
                )
            pinned = registry.counter(
                "analysis.matrices.segments_decoded", ""
            ).value
            decode_stats = QueryStats()
            with ArchiveReader(archive_path) as reader:
                by_decode = matrix_report_for_archive(
                    reader,
                    window=3.0,
                    since=3.0,
                    until=6.0,
                    method="decode",
                    stats=decode_stats,
                )
        assert by_index.windows == by_decode.windows
        assert index_stats.segments_decoded < decode_stats.segments_decoded
        assert by_index.segments_pruned > 0
        # The obs counter pins the same accounting the report carries.
        assert pinned == by_index.segments_decoded

    def test_invalid_method_rejected(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            with pytest.raises(ValueError, match="method"):
                matrix_report_for_archive(reader, method="turbo")

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    def test_quantization_keeps_the_bounded_range(self, points):
        # A bounded report keeps the flows whose summary passes
        # ``since <= ts <= until`` and aggregates their records, whose
        # start is ``ts`` on the stored 100 µs grid.  Quantization is
        # monotone, so that start never leaves the quantized range.
        since, ts, until = sorted(points)
        assert (
            quantize_timestamp(since)
            <= quantize_timestamp(ts)
            <= quantize_timestamp(until)
        )


class TestServeSnapshot:
    def test_window_stats_for_compressed(self, compressed):
        stats = window_stats_for_compressed(compressed)
        assert isinstance(stats, WindowStats)
        assert stats.flows == len(compressed.time_seq)

    def test_gauges_render_to_prometheus(self, compressed):
        registry = MetricsRegistry()
        stats = window_stats_for_compressed(compressed)
        publish_window_gauges(stats, registry)
        text = render_prometheus(registry)
        assert f"repro_analysis_matrices_window_flows {stats.flows}" in text
        assert "repro_analysis_matrices_windows_total 1" in text
