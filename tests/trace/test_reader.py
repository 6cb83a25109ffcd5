"""Tests for the chunked TSH file reader."""

import pytest

from repro.synth import generate_web_trace
from repro.trace.reader import count_tsh_packets, iter_tsh_packets, read_columns
from repro.trace.trace import Trace
from repro.trace.tsh import TSH_RECORD_BYTES


@pytest.fixture(scope="module")
def trace():
    return generate_web_trace(duration=3.0, flow_rate=30.0, seed=11)


@pytest.fixture(scope="module")
def tsh_file(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("reader") / "t.tsh"
    trace.save_tsh(path)
    return path


class TestIterPackets:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 8192])
    def test_matches_batch_load(self, trace, tsh_file, chunk_size):
        streamed = list(iter_tsh_packets(tsh_file, chunk_size))
        assert streamed == Trace.load_tsh(tsh_file).packets

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsh"
        path.write_bytes(b"")
        assert list(iter_tsh_packets(path)) == []

    def test_truncated_record_raises(self, tsh_file, tmp_path):
        data = tsh_file.read_bytes()
        path = tmp_path / "cut.tsh"
        path.write_bytes(data[: len(data) - 11])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_tsh_packets(path))

    def test_truncated_final_record_raises(self, tsh_file, tmp_path):
        """A sub-record tail carried past the last read must still raise.

        The truncation check lives in the shared block reader; a chunk
        size that leaves the partial record as the carried tail (rather
        than inside a block) is the corner the decode loop never sees.
        """
        path = tmp_path / "cut.tsh"
        path.write_bytes(tsh_file.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_tsh_packets(path, 100))
        # Whole-record chunks: the 43-byte tail is pure carry-over.
        with pytest.raises(ValueError, match="truncated"):
            list(iter_tsh_packets(path, 1))

    def test_bad_chunk_size(self, tsh_file):
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_tsh_packets(tsh_file, 0))



class TestReadColumns:
    @pytest.mark.parametrize("chunk_size", [1, 97, 8192])
    def test_matches_scalar_chunks(self, tsh_file, chunk_size):
        packets = list(iter_tsh_packets(tsh_file, chunk_size))
        scalar = [
            packets[start : start + chunk_size]
            for start in range(0, len(packets), chunk_size)
        ]
        columnar = list(read_columns(tsh_file, chunk_size))
        assert [len(chunk) for chunk in columnar] == [
            len(chunk) for chunk in scalar
        ]
        assert [c.to_records() for c in columnar] == scalar

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsh"
        path.write_bytes(b"")
        assert list(read_columns(path)) == []

    def test_truncated_final_record_raises(self, tsh_file, tmp_path):
        path = tmp_path / "cut.tsh"
        path.write_bytes(tsh_file.read_bytes()[:-7])
        with pytest.raises(ValueError, match="truncated"):
            list(read_columns(path, 100))



class TestCountPackets:
    def test_counts_without_reading(self, trace, tsh_file):
        assert count_tsh_packets(tsh_file) == len(trace)

    def test_rejects_partial_record(self, tmp_path):
        path = tmp_path / "odd.tsh"
        path.write_bytes(b"\x00" * (TSH_RECORD_BYTES + 3))
        with pytest.raises(ValueError, match="not a multiple"):
            count_tsh_packets(path)
