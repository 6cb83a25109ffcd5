"""Unit: incremental packet-stream export (TSH and pcap-lite)."""

from hashlib import blake2b
from pathlib import Path

import pytest

import repro
from repro.core import replay

from repro.trace.export import (
    ExportResult,
    export_format_for,
    export_packet_stream,
)
from repro.net.packet import packet_from_row
from repro.trace.trace import Trace
from repro.trace.tsh import TSH_RECORD_BYTES, encode_record

from tests.conftest import make_web_flow


class TestFormatInference:
    def test_pcap_suffix(self):
        assert export_format_for("out.pcap") == "pcap"

    def test_everything_else_is_tsh(self):
        assert export_format_for("out.tsh") == "tsh"
        assert export_format_for("out.bin") == "tsh"
        assert export_format_for("out") == "tsh"


class TestExport:
    def test_tsh_stream_matches_save_tsh(self, tmp_path):
        packets = make_web_flow()
        streamed = tmp_path / "stream.tsh"
        batched = tmp_path / "batch.tsh"
        result = export_packet_stream(iter(packets), streamed)
        Trace(list(packets)).save_tsh(batched)
        assert streamed.read_bytes() == batched.read_bytes()
        assert result == ExportResult(
            packets=len(packets),
            size_bytes=len(packets) * TSH_RECORD_BYTES,
            format="tsh",
        )

    def test_pcap_stream_matches_save_pcap(self, tmp_path):
        packets = make_web_flow()
        streamed = tmp_path / "stream.pcap"
        batched = tmp_path / "batch.pcap"
        export_packet_stream(iter(packets), streamed)
        Trace(list(packets)).save_pcap(batched)
        assert streamed.read_bytes() == batched.read_bytes()

    def test_explicit_format_overrides_suffix(self, tmp_path):
        packets = make_web_flow()
        path = tmp_path / "capture.dat"
        result = export_packet_stream(iter(packets), path, format="pcap")
        assert result.format == "pcap"
        assert path.read_bytes()[:4] == (0xA1B2C3D4).to_bytes(4, "little")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_packet_stream(iter([]), tmp_path / "x.tsh", format="csv")

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.tsh"
        result = export_packet_stream(iter([]), path)
        assert result.packets == 0
        assert path.stat().st_size == 0

    def test_consumes_iterator_once(self, tmp_path):
        """The writer must stream — a generator is enough, no list."""
        packets = make_web_flow()
        result = export_packet_stream(
            (packet for packet in packets), tmp_path / "gen.tsh"
        )
        assert result.packets == len(packets)


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# blake2b (16-byte digest) of each fixture's default-options export, as
# the per-packet heap-merge replay wrote them.
GOLDEN_EXPORTS = {
    ("v1.fctc", ".tsh"): "7a2df1ef380c45d2db92305acc4d301d",
    ("v1.fctc", ".pcap"): "b70f56aac69ea68d0d573c0b13527483",
    ("v1.fctca", ".tsh"): "d40e45622d06630b9f01211501217ec4",
    ("v1.fctca", ".pcap"): "3b0acf0382830ef92e295ff34061ae82",
}


class TestGoldenReplayExports:
    @pytest.mark.parametrize("batch", [1, 7, replay.REPLAY_BATCH_PACKETS])
    @pytest.mark.parametrize("fixture,suffix", sorted(GOLDEN_EXPORTS))
    def test_export_digest(self, tmp_path, monkeypatch, batch, fixture, suffix):
        monkeypatch.setattr(replay, "REPLAY_BATCH_PACKETS", batch)
        out = tmp_path / f"out{suffix}"
        with repro.open(FIXTURES / fixture) as store:
            result = store.export(out)
        assert result.packets == 1297
        digest = blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert digest == GOLDEN_EXPORTS[fixture, suffix]


class TestRowBatchExport:
    def test_rows_export_like_their_packets(self, tmp_path):
        with repro.open(FIXTURES / "v1.fctc") as store:
            packets = list(store.packets())
        for suffix in (".tsh", ".pcap"):
            from_rows = tmp_path / f"rows{suffix}"
            from_packets = tmp_path / f"packets{suffix}"
            with repro.open(FIXTURES / "v1.fctc") as store:
                store.export(from_rows)
            export_packet_stream(iter(packets), from_packets)
            assert from_rows.read_bytes() == from_packets.read_bytes()

    def test_out_of_range_row_raises_the_record_error(self, tmp_path):
        good = (1.5, 1, 2, 3, 4, (0,), 0, 80, 0x10, 0, 5, 6, 64, 1000)
        for field, value in ((9, 70_000), (11, 1 << 16), (12, 256), (0, -1.0)):
            bad = good[:field] + (value,) + good[field + 1 :]
            with pytest.raises(ValueError) as expected:
                encode_record(packet_from_row(bad))
            with pytest.raises(ValueError) as raised:
                export_packet_stream(iter([[good, bad]]), tmp_path / "bad.tsh")
            assert str(raised.value) == str(expected.value)
            # The row before the bad one was still written.
            assert (tmp_path / "bad.tsh").read_bytes() == encode_record(
                packet_from_row(good)
            )
