"""Integration: `repro-trace stats`, `query --stats`, `info --windows`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clistats") / "t.tsh"
    args = ["generate", str(path), "--duration", "12", "--rate", "30", "--seed", "3"]
    assert main(args) == 0
    return path


@pytest.fixture(scope="module")
def archive_file(tmp_path_factory, trace_file):
    path = tmp_path_factory.mktemp("clistats") / "t.fctca"
    args = ["archive", "build", str(path), str(trace_file), "--segment-span", "3"]
    assert main(args) == 0
    return path


class TestStatsCommand:
    def test_raw_trace_keeps_legacy_output(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "packets" in out
        assert "matrix stats" not in out

    def test_raw_trace_with_window_builds_matrices(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert "matrix stats (index path" in out
        assert "window 4 s" in out

    def test_archive_defaults_to_matrix_report(self, archive_file, capsys):
        assert main(["stats", str(archive_file)]) == 0
        out = capsys.readouterr().out
        assert "matrix stats" in out

    def test_json_document_schema(self, archive_file, capsys):
        assert main(["stats", str(archive_file), "--window", "3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.analysis/matrix-report/v1"
        assert document["windows"]

    def test_out_writes_the_report(self, archive_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        args = ["stats", str(archive_file), "--window", "3", "--out", str(out_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert json.loads(out_path.read_text())["flows"] > 0

    def test_index_and_decode_methods_agree(self, archive_file, capsys):
        """The CLI-level differential: byte-identical window tables."""
        assert main(["stats", str(archive_file), "--window", "3", "--json"]) == 0
        by_index = json.loads(capsys.readouterr().out)
        args = ["stats", str(archive_file), "--window", "3", "--json",
                "--method", "decode"]
        assert main(args) == 0
        by_decode = json.loads(capsys.readouterr().out)
        assert by_index["windows"] == by_decode["windows"]
        assert by_index["method"] == "index"
        assert by_decode["method"] == "decode"

    def test_bounded_range_prunes_segments(self, archive_file, capsys):
        args = ["stats", str(archive_file), "--window", "3",
                "--since", "3", "--until", "6", "--json"]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["segments_pruned"] > 0
        assert document["segments_decoded"] < document["segments_total"]

    def test_anonymize_key_masks_addresses(self, archive_file, capsys):
        assert main(["stats", str(archive_file), "--window", "3", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        args = ["stats", str(archive_file), "--window", "3", "--json",
                "--anonymize-key", "secret"]
        assert main(args) == 0
        masked = json.loads(capsys.readouterr().out)
        assert masked["anonymized"] is True
        assert masked["flows"] == plain["flows"]
        assert (
            masked["windows"][0]["top_links_packets"]
            != plain["windows"][0]["top_links_packets"]
        )

    def test_json_on_raw_trace_without_window_exits_2(self, trace_file, caplog):
        assert main(["stats", str(trace_file), "--json"]) == 2
        assert "--window" in "\n".join(r.getMessage() for r in caplog.records)


class TestArchiveInfoWindows:
    def test_probe_table_appended(self, archive_file, capsys):
        assert main(["archive", "info", str(archive_file), "--windows", "4"]) == 0
        out = capsys.readouterr().out
        assert "window probe" in out
        assert "flows<=" in out
        rows = [
            line for line in out.splitlines()
            if line.strip() and line.split()[0].isdigit()
        ]
        assert len(rows) >= 4

    def test_without_flag_no_probe(self, archive_file, capsys):
        assert main(["archive", "info", str(archive_file)]) == 0
        assert "window probe" not in capsys.readouterr().out


class TestQueryStats:
    def test_aggregates_matching_flows(self, archive_file, capsys):
        args = ["query", str(archive_file), "--since", "3", "--until", "6",
                "--stats"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "matched flows" in out
        assert "max fan-out/in" in out
        assert "segments decoded" in out

    def test_stats_rejects_output_and_limit(self, archive_file, caplog):
        args = ["query", str(archive_file), "--stats", "--limit", "5"]
        assert main(args) == 2
        message = "\n".join(r.getMessage() for r in caplog.records)
        assert "--stats" in message

    def test_every_store_kind_prints_the_same_table(self, trace_file, tmp_path, capsys):
        """A ``.tsh``, its ``.fctc`` and that container as a one-segment
        archive give one table; only the byte accounting differs."""
        container = tmp_path / "t.fctc"
        archive = tmp_path / "t.fctca"
        assert main(["compress", str(trace_file), str(container)]) == 0
        assert main(["compress", str(container), str(archive)]) == 0
        capsys.readouterr()
        tables = {}
        for path in (trace_file, container, archive):
            args = ["query", str(path), "--since", "3", "--until", "6", "--stats"]
            assert main(args) == 0
            tables[path.suffix] = [
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("bytes decoded")
            ]
        assert "matched flows" in tables[".fctca"][0]
        assert "segments decoded : 1/1 (index matched 1)" in tables[".fctca"]
        assert tables[".tsh"] == tables[".fctca"]
        assert tables[".fctc"] == tables[".fctca"]

    def test_no_matches_prints_empty_note(self, archive_file, capsys):
        args = ["query", str(archive_file), "--since", "9000", "--stats"]
        assert main(args) == 0
        assert "no matching flows" in capsys.readouterr().out
