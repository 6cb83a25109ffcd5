"""Archive-scale streaming replay: seam-ordered and lazy."""

import pytest

from repro.api import Options, create_archive
from repro.archive import ArchiveReader, segment_runs
from repro.core.decompressor import decompress_trace, merge_sort_key
from repro.core import replay
from repro.core.replay import ReplayStats
from repro.trace.tsh import write_tsh_bytes

from tests.conftest import make_timed_flows


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    """A 10-segment archive of 50 staggered flows (5 s apart, 30 s span)."""
    path = tmp_path_factory.mktemp("replay") / "flows.fctca"
    packets = make_timed_flows(50, spacing=5.0)
    create_archive(
        path,
        iter(packets),
        options=Options.make(segment_span=30.0, segment_packets=10_000),
    )
    return path


def reference_packets(path):
    """Concat per-segment batch decompressions, globally stable-sorted."""
    merged = []
    with ArchiveReader(path) as reader:
        for index in range(reader.segment_count):
            merged.extend(decompress_trace(reader.load_segment(index)).packets)
    merged.sort(key=merge_sort_key)
    return merged


class TestSequentialReplay:
    def test_matches_per_segment_batch_reference(self, archive_path):
        reference = reference_packets(archive_path)
        with ArchiveReader(archive_path) as reader:
            streamed = list(reader.iter_packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(reference)

    def test_output_is_time_ordered(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            timestamps = [p.timestamp for p in reader.iter_packets()]
        assert timestamps == sorted(timestamps)
        assert timestamps  # not vacuous

    def test_segments_decode_lazily(self, archive_path):
        """Consuming the head of the stream must not decode the tail."""
        with ArchiveReader(archive_path) as reader:
            assert reader.segment_count > 2
            stream = reader.iter_packets()
            for _ in range(5):
                next(stream)
            assert reader.segments_decoded < reader.segment_count

    def test_stats_report_bounded_fan_out(self, archive_path, monkeypatch):
        monkeypatch.setattr(replay, "REPLAY_BATCH_PACKETS", 1)
        with ArchiveReader(archive_path) as reader:
            stats = ReplayStats()
            packets = sum(1 for _ in reader.iter_packets(stats=stats))
            assert stats.packets_emitted == packets
            assert stats.flows_replayed == reader.flow_count()
            # Flows are 5 s apart and last < 1 s: tiny concurrent set.
            assert stats.peak_open_flows <= 3

    def test_empty_iteration_over_no_segments(self, tmp_path):
        from repro.archive import ArchiveWriter

        path = tmp_path / "empty.fctca"
        ArchiveWriter.create(path).close()
        with ArchiveReader(path) as reader:
            assert list(reader.iter_packets()) == []


class TestSegmentRuns:
    def _entry(self, lo, hi):
        from repro.archive.format import AddressSummary, SegmentIndexEntry

        return SegmentIndexEntry(
            offset=16, length=10, time_min_units=lo, time_max_units=hi,
            flow_count=1, short_flow_count=1, packet_count=1,
            min_flow_packets=1, max_flow_packets=1,
            min_rtt_units=0, max_rtt_units=0, address_count=1,
            summary=AddressSummary.build([1]),
        )

    def test_disjoint_segments_run_alone(self):
        entries = [self._entry(0, 10), self._entry(10, 20), self._entry(25, 30)]
        assert segment_runs(entries, [0, 1, 2]) == [[0], [1], [2]]

    def test_overlapping_segments_group(self):
        entries = [self._entry(0, 10), self._entry(5, 20), self._entry(25, 30)]
        assert segment_runs(entries, [0, 1, 2]) == [[0, 1], [2]]

    def test_chained_overlap_grows_one_run(self):
        entries = [self._entry(0, 30), self._entry(5, 10), self._entry(15, 40)]
        assert segment_runs(entries, [0, 1, 2]) == [[0, 1, 2]]

    def test_respects_index_subset(self):
        entries = [self._entry(0, 10), self._entry(5, 20), self._entry(25, 30)]
        assert segment_runs(entries, [0, 2]) == [[0], [2]]

    def test_segment_overlapping_an_earlier_run_regroups(self):
        """A late segment reaching back over an earlier run must land in
        one run with it — grouping walks time_min order, not file order."""
        entries = [self._entry(0, 10), self._entry(10, 20), self._entry(5, 15)]
        assert segment_runs(entries, [0, 1, 2]) == [[0, 2, 1]]

    def test_runs_never_interleave(self):
        """Invariant: consecutive runs' start ranges are disjoint."""
        import random

        rng = random.Random(11)
        for _ in range(100):
            entries = []
            for _ in range(rng.randrange(1, 8)):
                lo = rng.randrange(0, 50)
                entries.append(self._entry(lo, lo + rng.randrange(0, 30)))
            runs = segment_runs(entries, list(range(len(entries))))
            assert sorted(i for run in runs for i in run) == list(
                range(len(entries))
            )
            for earlier, later in zip(runs, runs[1:]):
                earlier_max = max(entries[i].time_max_units for i in earlier)
                later_min = min(entries[i].time_min_units for i in later)
                assert earlier_max <= later_min

    def test_overlapping_archive_still_replays_in_order(self, tmp_path):
        """Segments written out of time order (overlapping bounds) must
        still produce a globally sorted, reference-identical stream."""
        from repro.archive import ArchiveWriter
        from tests.compress_oracle import FlowClusterCompressor

        def compress_with_base(packets):
            engine = FlowClusterCompressor(base_time=0.0)
            for packet in packets:
                engine.add_packet(packet)
            return engine.finish()

        path = tmp_path / "overlap.fctca"
        early = compress_with_base(make_timed_flows(3, spacing=4.0))
        late = compress_with_base(make_timed_flows(3, spacing=4.0, start=2.0))
        with ArchiveWriter.create(path, epoch=0.0) as writer:
            writer.write_segment(late)
            writer.write_segment(early)
        reference = reference_packets(path)
        with ArchiveReader(path) as reader:
            assert segment_runs(reader.entries, [0, 1]) == [[1, 0]]
            streamed = list(reader.iter_packets())
        assert write_tsh_bytes(streamed) == write_tsh_bytes(reference)

    def test_segment_behind_an_earlier_run_replays_in_order(self, tmp_path):
        """Regression: ranges like [0,10], [10,20], [5,15] — the third
        segment overlaps the *first* run; both replay paths must still
        match the batch reference and stay time-sorted."""
        from repro.archive import ArchiveWriter
        from tests.compress_oracle import FlowClusterCompressor

        def compress_with_base(packets):
            engine = FlowClusterCompressor(base_time=0.0)
            for packet in packets:
                engine.add_packet(packet)
            return engine.finish()

        path = tmp_path / "backreach.fctca"
        with ArchiveWriter.create(path, epoch=0.0) as writer:
            for start in (0.0, 10.0, 5.0):
                writer.write_segment(
                    compress_with_base(
                        make_timed_flows(3, spacing=2.5, start=start)
                    )
                )
        reference = reference_packets(path)
        with ArchiveReader(path) as reader:
            streamed = list(reader.iter_packets())
        timestamps = [p.timestamp for p in streamed]
        assert timestamps == sorted(timestamps)
        assert write_tsh_bytes(streamed) == write_tsh_bytes(reference)
