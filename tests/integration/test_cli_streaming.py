"""Integration: chunked compress reads.

Every TSH input is read in chunks; the output bytes and the report do
not depend on ``--chunk-size``.
"""

import pytest

from repro.cli import main


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.tsh"
    assert main(["generate", str(path), "--duration", "3", "--seed", "9"]) == 0
    return path


@pytest.fixture
def batch_file(tmp_path, trace_file):
    path = tmp_path / "batch.fctc"
    assert main(["compress", str(trace_file), str(path)]) == 0
    return path


class TestStreamMode:
    def test_byte_identical_to_batch(self, tmp_path, trace_file, batch_file):
        streamed = tmp_path / "stream.fctc"
        assert main(
            ["compress", str(trace_file), str(streamed), "--chunk-size", "100"]
        ) == 0
        assert streamed.read_bytes() == batch_file.read_bytes()

    def test_small_chunk_size_still_identical(
        self, tmp_path, trace_file, batch_file
    ):
        streamed = tmp_path / "stream.fctc"
        assert main(
            [
                "compress",
                str(trace_file),
                str(streamed),
                "--chunk-size",
                "17",
            ]
        ) == 0
        assert streamed.read_bytes() == batch_file.read_bytes()

    def test_chunk_size_implies_stream(self, tmp_path, trace_file, batch_file):
        """``--chunk-size`` alone (it once implied ``--stream``) keeps the
        bytes."""
        out = tmp_path / "implied.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--chunk-size", "64"]
        ) == 0
        assert out.read_bytes() == batch_file.read_bytes()

    def test_report_matches_batch(self, tmp_path, trace_file, capsys):
        batch_out = tmp_path / "b.fctc"
        main(["compress", str(trace_file), str(batch_out)])
        batch_report = capsys.readouterr().out
        stream_out = tmp_path / "s.fctc"
        main(["compress", str(trace_file), str(stream_out), "--chunk-size", "100"])
        assert capsys.readouterr().out == batch_report

    def test_zero_chunk_size_rejected(self, tmp_path, trace_file, capsys):
        out = tmp_path / "bad.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--chunk-size", "0"]
        ) == 2
        assert "--chunk-size" in capsys.readouterr().err
        assert not out.exists()
