"""Tests for the end-to-end pipeline and ratio accounting."""

import pytest

from repro.api import roundtrip
from repro.core.codec import (
    dataset_sizes,
    deserialize_compressed,
    serialize_compressed,
)
from repro.core.compressor import compress_trace
from repro.core.decompressor import decompress_trace
from repro.core.pipeline import CompressionReport, report_for_stream
from repro.synth.scenarios import get_scenario, scenario_names
from repro.trace.trace import Trace


class TestRoundtrip:
    def test_packet_count_preserved(self, multi_flow_trace):
        decompressed, report = roundtrip(multi_flow_trace)
        assert len(decompressed) == len(multi_flow_trace)
        assert report.packet_count == len(multi_flow_trace)

    def test_ratio_small_for_redundant_trace(self, multi_flow_trace):
        _, report = roundtrip(multi_flow_trace)
        # Fifty near-identical flows compress extremely well.
        assert report.ratio < 0.10
        assert report.ratio_percent == pytest.approx(100 * report.ratio)

    def test_report_fields(self, multi_flow_trace):
        _, report = roundtrip(multi_flow_trace)
        assert report.flow_count == 50
        assert report.short_templates >= 1
        assert report.original_bytes == multi_flow_trace.stored_size_bytes()
        assert report.dataset_bytes["total"] == report.compressed_bytes

    def test_summary_lines(self, multi_flow_trace):
        _, report = roundtrip(multi_flow_trace)
        text = "\n".join(report.summary_lines())
        assert "ratio" in text
        assert "paper: ~3%" in text

    def test_generated_trace_ratio_in_paper_band(self, small_web_trace):
        _, report = roundtrip(small_web_trace)
        # "around 3%" — we accept 2-6% for a 10s sample.
        assert 0.02 < report.ratio < 0.06

    def test_empty_trace(self):
        decompressed, report = roundtrip(Trace(name="empty"))
        assert len(decompressed) == 0
        assert report.ratio == 0.0


class TestBytesApi:
    def test_compress_decompress_bytes(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        data = serialize_compressed(compressed)
        assert isinstance(data, bytes)
        assert compressed.flow_count() == 50
        decompressed = decompress_trace(deserialize_compressed(data))
        assert len(decompressed) == len(multi_flow_trace)

    def test_report_for_consistency(self, multi_flow_trace):
        compressed = compress_trace(multi_flow_trace)
        data = serialize_compressed(compressed)
        report = report_for_stream(compressed, data)
        assert report.compressed_bytes == len(data)


class TestReportNeedsNoTrace:
    """The datasets alone give the report the input trace would give."""

    @pytest.mark.parametrize("scenario", scenario_names())
    @pytest.mark.parametrize("kind", ["tsh", "pcap"])
    def test_matches_trace_derived_report(self, tmp_path, scenario, kind):
        path = tmp_path / f"{scenario}.{kind}"
        built = get_scenario(scenario).build(6.0, 20.0, 3)
        if kind == "tsh":
            built.save_tsh(path)
            trace = Trace.load_tsh(path)
        else:
            built.save_pcap(path)
            trace = Trace.load_pcap(path)
        compressed = compress_trace(trace)
        data = serialize_compressed(compressed)
        assert report_for_stream(compressed, data) == CompressionReport(
            original_bytes=trace.stored_size_bytes(),
            compressed_bytes=len(data),
            packet_count=len(trace),
            flow_count=compressed.flow_count(),
            short_templates=len(compressed.short_templates),
            long_templates=len(compressed.long_templates),
            dataset_bytes=dataset_sizes(compressed),
        )
