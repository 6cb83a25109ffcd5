"""Integration: user-caused CLI failures exit 2 with one-line messages."""

import pytest

from repro.cli import main


@pytest.fixture
def missing(tmp_path):
    return tmp_path / "does-not-exist"


def _stderr_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert len(err.strip().splitlines()) == 1, err
    return err


class TestMissingFiles:
    def test_compress_missing_input(self, tmp_path, missing, capsys):
        code = main(["compress", str(missing), str(tmp_path / "o.fctc")])
        assert code == 2
        assert "no such file" in _stderr_line(capsys)

    def test_compress_stream_missing_input(self, tmp_path, missing, capsys):
        code = main(
            ["compress", str(missing), str(tmp_path / "o.fctc"), "--chunk-size",
             "64"]
        )
        assert code == 2
        assert "no such file" in _stderr_line(capsys)

    def test_decompress_missing_input(self, tmp_path, missing, capsys):
        code = main(["decompress", str(missing), str(tmp_path / "o.tsh")])
        assert code == 2
        assert "no such file" in _stderr_line(capsys)

    def test_inspect_missing_input(self, missing, capsys):
        assert main(["inspect", str(missing)]) == 2
        assert "no such file" in _stderr_line(capsys)

    def test_archive_info_missing_input(self, missing, capsys):
        assert main(["archive", "info", str(missing)]) == 2
        assert "no such file" in _stderr_line(capsys)

    def test_query_missing_archive(self, missing, capsys):
        assert main(["query", str(missing)]) == 2
        assert "no such file" in _stderr_line(capsys)

    def test_failed_append_leaves_archive_readable(
        self, tmp_path, missing, capsys
    ):
        source = tmp_path / "t.tsh"
        assert main(["generate", str(source), "--duration", "2", "--seed", "1"]) == 0
        archive = tmp_path / "t.fctca"
        assert main(["archive", "build", str(archive), str(source)]) == 0
        capsys.readouterr()
        assert main(["archive", "append", str(archive), str(missing)]) == 2
        assert "no such file" in _stderr_line(capsys)
        # The typo'd append must not have destroyed the archive.
        assert main(["archive", "info", str(archive)]) == 0


class TestMalformedContainers:
    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.fctc"
        bogus.write_bytes(b"this is not a container")
        assert main(["inspect", str(bogus)]) == 2
        line = _stderr_line(capsys)
        assert "magic" in line or "truncated" in line


class TestTruncated:
    def test_decompress_rejects_truncated_container(self, tmp_path, capsys):
        source = tmp_path / "t.tsh"
        assert main(["generate", str(source), "--duration", "2", "--seed", "1"]) == 0
        compressed = tmp_path / "t.fctc"
        assert main(["compress", str(source), str(compressed)]) == 0
        compressed.write_bytes(compressed.read_bytes()[:-5])
        capsys.readouterr()
        assert main(["decompress", str(compressed), str(tmp_path / "o.tsh")]) == 2
        assert "truncated" in _stderr_line(capsys)

    def test_compress_rejects_truncated_tsh(self, tmp_path, capsys):
        source = tmp_path / "broken.tsh"
        source.write_bytes(b"\x00" * 50)  # not a multiple of 44
        assert main(["compress", str(source), str(tmp_path / "o.fctc")]) == 2
        assert "truncated" in _stderr_line(capsys)
