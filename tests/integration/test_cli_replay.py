"""Integration: the streaming `decompress` and `replay` CLI commands."""

import pytest

from repro.cli import main
from repro.core import deserialize_compressed
from repro.core.decompressor import decompress_trace
from repro.trace.trace import Trace
from repro.trace.tsh import write_tsh_bytes


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.tsh"
    assert main(["generate", str(path), "--duration", "4", "--seed", "9"]) == 0
    return path


@pytest.fixture
def archive_file(tmp_path, trace_file):
    path = tmp_path / "t.fctca"
    assert (
        main(
            [
                "archive", "build", str(path), str(trace_file),
                "--segment-span", "1",
            ]
        )
        == 0
    )
    return path


class TestStreamingDecompress:
    def test_output_matches_batch_decompressor(self, tmp_path, trace_file):
        compressed = tmp_path / "t.fctc"
        assert main(["compress", str(trace_file), str(compressed)]) == 0
        restored = tmp_path / "restored.tsh"
        assert main(["decompress", str(compressed), str(restored)]) == 0
        batch = decompress_trace(deserialize_compressed(compressed.read_bytes()))
        assert restored.read_bytes() == write_tsh_bytes(batch.packets)

    def test_pcap_output_by_suffix(self, tmp_path, trace_file, capsys):
        compressed = tmp_path / "t.fctc"
        main(["compress", str(trace_file), str(compressed)])
        restored = tmp_path / "restored.pcap"
        assert main(["decompress", str(compressed), str(restored)]) == 0
        assert "packets" in capsys.readouterr().out
        assert len(list(Trace.load_pcap(restored))) > 0


class TestReplay:
    def test_full_replay_writes_every_flow(self, tmp_path, archive_file, capsys):
        out = tmp_path / "replayed.tsh"
        assert main(["replay", str(archive_file), str(out)]) == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        replayed = Trace.load_tsh(out)
        assert len(replayed) > 100
        assert replayed.is_time_ordered()

    def test_filtered_replay_prints_stats(self, tmp_path, archive_file, capsys):
        out = tmp_path / "window.tsh"
        assert (
            main(
                [
                    "replay", str(archive_file), str(out),
                    "--since", "1", "--until", "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "segments decoded" in output
        assert "flows matched" in output
        full = tmp_path / "full.tsh"
        main(["replay", str(archive_file), str(full)])
        assert 0 < out.stat().st_size < full.stat().st_size

    def test_limit_caps_flows(self, tmp_path, archive_file, capsys):
        out = tmp_path / "limited.tsh"
        assert main(["replay", str(archive_file), str(out), "--limit", "2"]) == 0
        assert "flows matched    : 2" in capsys.readouterr().out

    def test_missing_archive_exits_2(self, tmp_path, capsys):
        assert (
            main(["replay", str(tmp_path / "nope.fctca"), str(tmp_path / "o.tsh")])
            == 2
        )
        assert "no such file" in capsys.readouterr().err
