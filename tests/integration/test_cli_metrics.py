"""Integration: the ``--metrics`` / ``--metrics-out`` / ``-v`` CLI surface."""

import json
import logging

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.trace.trace import Trace
from repro.trace.tsh import TSH_RECORD_BYTES

from tests.compress_oracle import run_oracle


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.tsh"
    assert main(["generate", str(path), "--duration", "4", "--seed", "5"]) == 0
    return path


class TestMetricsOut:
    def test_report_counters_match_ground_truth(
        self, tmp_path, trace_file, capsys
    ):
        out = tmp_path / "t.fctc"
        report_path = tmp_path / "run.json"
        assert main(
            ["compress", str(trace_file), str(out),
             "--metrics-out", str(report_path)]
        ) == 0
        capsys.readouterr()
        document = json.loads(report_path.read_text())
        assert document["schema"] == "repro.obs/run-report/v1"
        assert document["command"] == "compress"
        packets = len(Trace.load_tsh(trace_file))
        counters = document["counters"]
        assert counters["compress.packets"] == packets
        assert counters["trace.read.records"] == packets
        assert counters["trace.read.bytes"] == packets * TSH_RECORD_BYTES
        assert counters["codec.containers"] == 1
        assert counters["stream.chunks"] >= 1

    def test_identical_semantics_across_engines(self, tmp_path, trace_file):
        """The CLI's counters equal the reference compressor's
        (``tests/compress_oracle.py``) on the same file."""
        report_path = tmp_path / "run.json"
        assert main(
            ["compress", str(trace_file), str(tmp_path / "t.fctc"),
             "--metrics-out", str(report_path)]
        ) == 0
        counters = json.loads(report_path.read_text())["counters"]
        reference = run_oracle(Trace.load_tsh(trace_file).packets)
        expected = MetricsRegistry()
        reference.stats.publish(expected)
        for name in (
            "compress.packets",
            "compress.flows",
            "compress.flows.short",
            "compress.flows.long",
            "compress.template.hits",
            "compress.template.misses",
        ):
            assert counters[name] == expected.value(name), name
        assert counters["trace.read.records"] == reference.stats.packets
        assert counters["trace.read.bytes"] == (
            TSH_RECORD_BYTES * reference.stats.packets
        )

    def test_metrics_flag_prints_stderr_table(self, tmp_path, trace_file, capsys):
        assert main(
            ["compress", str(trace_file), str(tmp_path / "t.fctc"), "--metrics"]
        ) == 0
        captured = capsys.readouterr()
        assert "-- metrics: compress" in captured.err
        assert "compress.packets" in captured.err
        # The regular report still goes to stdout, untouched.
        assert "ratio" in captured.out

    def test_archive_subcommand_records_dotted_command(
        self, tmp_path, trace_file, capsys
    ):
        report_path = tmp_path / "run.json"
        assert main(
            ["archive", "build", str(tmp_path / "a.fctca"), str(trace_file),
             "--metrics-out", str(report_path)]
        ) == 0
        capsys.readouterr()
        document = json.loads(report_path.read_text())
        assert document["command"] == "archive.build"
        assert document["counters"]["archive.segments_rotated"] >= 0

    def test_query_metrics_cover_pruning(self, tmp_path, trace_file, capsys):
        archive = tmp_path / "a.fctca"
        report_path = tmp_path / "run.json"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1"]
        ) == 0
        assert main(
            ["query", str(archive), "--since", "0.5", "--until", "1.5",
             "--metrics-out", str(report_path)]
        ) == 0
        capsys.readouterr()
        counters = json.loads(report_path.read_text())["counters"]
        assert counters["query.runs"] == 1
        assert counters["query.segments_pruned"] >= 1
        assert (
            counters["query.segments_decoded"] < counters["query.segments_pruned"]
            + counters["query.segments_decoded"]
        )


class TestVerbosity:
    def test_default_hides_info(self, tmp_path, trace_file, capsys):
        assert main(
            ["compress", str(trace_file), str(tmp_path / "t.fctc")]
        ) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_verbose_levels(self):
        assert main(["stats", "--help"]) == 0  # parser sanity
        for flags, level in (
            (["-q"], logging.ERROR),
            ([], logging.WARNING),
            (["-v"], logging.INFO),
            (["-vv"], logging.DEBUG),
        ):
            main(["stats", *flags, "/nonexistent"])
            assert logging.getLogger("repro").level == level

    def test_debug_logs_rotation_decisions(self, tmp_path, trace_file, capsys):
        archive = tmp_path / "a.fctca"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1", "-vv"]
        ) == 0
        captured = capsys.readouterr()
        assert "rotated segment" in captured.err
        assert "sealed archive" in captured.err

    def test_quiet_still_reports_errors(self, capsys):
        assert main(["stats", "-q", "/nonexistent"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
