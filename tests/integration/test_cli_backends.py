"""Integration: the ``--backend`` / ``--level`` CLI surface."""

import pytest

from repro.cli import main
from repro.trace.trace import Trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.tsh"
    assert main(["generate", str(path), "--duration", "4", "--seed", "5"]) == 0
    return path


class TestCompressBackend:
    def test_zlib_shrinks_the_container(self, tmp_path, trace_file, capsys):
        raw = tmp_path / "raw.fctc"
        zl = tmp_path / "zl.fctc"
        assert main(["compress", str(trace_file), str(raw)]) == 0
        assert main(
            ["compress", str(trace_file), str(zl), "--backend", "zlib"]
        ) == 0
        assert zl.stat().st_size < raw.stat().st_size
        assert "backends" in capsys.readouterr().out

    def test_backend_output_decompresses(self, tmp_path, trace_file):
        compressed = tmp_path / "t.fctc"
        restored = tmp_path / "t2.tsh"
        assert main(
            ["compress", str(trace_file), str(compressed), "--backend", "lzma"]
        ) == 0
        assert main(["decompress", str(compressed), str(restored)]) == 0
        assert len(Trace.load_tsh(restored)) == len(Trace.load_tsh(trace_file))

    def test_auto_reports_choices(self, tmp_path, trace_file, capsys):
        out = tmp_path / "auto.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--backend", "auto"]
        ) == 0
        output = capsys.readouterr().out
        assert "backends        :" in output
        assert "time_seq=" in output

    def test_stream_and_batch_agree_per_backend(self, tmp_path, trace_file):
        batch = tmp_path / "b.fctc"
        stream = tmp_path / "s.fctc"
        for backend in ("zlib", "auto"):
            assert main(
                ["compress", str(trace_file), str(batch), "--backend", backend]
            ) == 0
            assert main(
                ["compress", str(trace_file), str(stream), "--chunk-size",
                 "97", "--backend", backend]
            ) == 0
            assert batch.read_bytes() == stream.read_bytes()

    def test_level_without_backend_is_advisory(self, tmp_path, trace_file):
        # No --backend means the raw default; --level applies nowhere
        # and is ignored rather than rejected (only an explicitly named
        # backend is strict about an unusable level).
        out = tmp_path / "x.fctc"
        plain = tmp_path / "p.fctc"
        assert main(["compress", str(trace_file), str(out), "--level", "6"]) == 0
        assert main(["compress", str(trace_file), str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_auto_with_level_outside_bz2_range(self, tmp_path, trace_file):
        out = tmp_path / "x.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--backend", "auto",
             "--level", "0"]
        ) == 0

    def test_level_on_raw_exits_2(self, tmp_path, trace_file, capsys):
        out = tmp_path / "x.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--backend", "raw",
             "--level", "3"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_level_exits_2(self, tmp_path, trace_file, capsys):
        out = tmp_path / "x.fctc"
        assert main(
            ["compress", str(trace_file), str(out), "--backend", "zlib",
             "--level", "99"]
        ) == 2
        assert "outside" in capsys.readouterr().err

    def test_inspect_shows_backends(self, tmp_path, trace_file, capsys):
        out = tmp_path / "t.fctc"
        main(["compress", str(trace_file), str(out), "--backend", "bz2"])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        output = capsys.readouterr().out
        assert "format               : v2" in output
        assert "bz2" in output
        assert "stored sections:" in output


class TestArchiveBackend:
    def test_build_info_and_query_roundtrip(self, tmp_path, trace_file, capsys):
        archive = tmp_path / "a.fctca"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1", "--backend", "zlib"]
        ) == 0
        capsys.readouterr()
        assert main(["archive", "info", str(archive)]) == 0
        output = capsys.readouterr().out
        assert "format               : v2" in output
        assert "zlib" in output

        window = tmp_path / "w.fctca"
        assert main(
            ["query", str(archive), "--until", "3", "--output", str(window)]
        ) == 0
        capsys.readouterr()
        assert main(["archive", "info", str(window)]) == 0
        assert "zlib" in capsys.readouterr().out  # source backends preserved

    def test_query_backend_without_output_exits_2(
        self, tmp_path, trace_file, capsys
    ):
        archive = tmp_path / "a.fctca"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1"]
        ) == 0
        assert main(["query", str(archive), "--backend", "zlib"]) == 2
        assert "--output" in capsys.readouterr().err

    def test_append_with_backend(self, tmp_path, trace_file, capsys):
        archive = tmp_path / "a.fctca"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1"]
        ) == 0
        assert main(
            ["archive", "append", str(archive), str(trace_file),
             "--segment-span", "1", "--backend", "lzma"]
        ) == 0
        capsys.readouterr()
        assert main(["archive", "info", str(archive)]) == 0
        output = capsys.readouterr().out
        assert "raw" in output and "lzma" in output

    def test_replay_backend_archive(self, tmp_path, trace_file):
        archive = tmp_path / "a.fctca"
        out = tmp_path / "r.tsh"
        assert main(
            ["archive", "build", str(archive), str(trace_file),
             "--segment-span", "1", "--backend", "auto"]
        ) == 0
        assert main(["replay", str(archive), str(out)]) == 0
        assert out.stat().st_size > 0
