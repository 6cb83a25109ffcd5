"""Integration: archive writer rotation, reader access, append."""

import pytest

from repro.archive import ArchiveReader, ArchiveWriter
from repro.core.compressor import compress_trace
from repro.core.errors import ArchiveError
from tests.conftest import make_timed_flows, make_web_flow

DESTINATIONS = (0xC0A80001, 0xC0A80002, 0xC0A80003)


@pytest.fixture
def archive_path(tmp_path):
    return tmp_path / "trace.fctca"


def build(path, packets, **knobs):
    """Write ``packets`` to a new archive; returns the sealed index."""
    with ArchiveWriter.create(path, **knobs) as writer:
        writer.feed(packets)
        return writer.close()


class TestRotation:
    def test_rotates_by_time_span(self, archive_path):
        packets = make_timed_flows(12, spacing=10.0)
        entries = build(
            archive_path, packets, segment_span=30.0, segment_packets=10**9
        )
        # 12 flows spaced 10 s apart with 30 s segments -> 4 segments.
        assert len(entries) == 4
        assert all(entry.flow_count == 3 for entry in entries)

    def test_rotates_by_packet_count(self, archive_path):
        flow = make_web_flow()
        packets = make_timed_flows(10, spacing=1.0)
        entries = build(
            archive_path, packets, segment_span=None,
            segment_packets=2 * len(flow),
        )
        assert len(entries) == 5

    def test_segments_are_time_disjoint_and_ordered(self, archive_path):
        packets = make_timed_flows(20, spacing=5.0)
        entries = build(
            archive_path, packets, segment_span=20.0, segment_packets=10**9
        )
        for before, after in zip(entries, entries[1:]):
            assert before.time_max_units <= after.time_min_units
            assert before.offset + before.length == after.offset

    def test_empty_input_builds_empty_archive(self, archive_path):
        assert build(archive_path, []) == []
        with ArchiveReader(archive_path) as reader:
            assert reader.segment_count == 0
            assert reader.time_bounds() is None

    def test_bad_rotation_bounds_rejected(self, archive_path):
        with pytest.raises(ValueError, match="segment_packets"):
            ArchiveWriter.create(archive_path, segment_packets=0)
        with pytest.raises(ValueError, match="segment_span"):
            ArchiveWriter.create(archive_path, segment_span=0.0)


class TestReader:
    def test_segment_contents_match_per_window_compression(self, archive_path):
        packets = make_timed_flows(9, spacing=10.0, destinations=DESTINATIONS)
        build(
            archive_path, packets, segment_span=30.0, segment_packets=10**9
        )
        with ArchiveReader(archive_path) as reader:
            for index, segment in reader.iter_segments():
                window = [
                    p for p in packets
                    if index * 30.0 <= p.timestamp < (index + 1) * 30.0
                ]
                expected = compress_trace(window)
                assert segment.flow_count() == expected.flow_count()
                assert segment.addresses.addresses() == expected.addresses.addresses()

    def test_index_counts_match_decoded_segments(self, archive_path):
        packets = make_timed_flows(15, spacing=4.0, destinations=DESTINATIONS)
        build(
            archive_path, packets, segment_span=12.0, segment_packets=10**9
        )
        with ArchiveReader(archive_path) as reader:
            assert reader.flow_count() == 15
            for index, segment in reader.iter_segments():
                entry = reader.entries[index]
                assert entry.flow_count == segment.flow_count()
                assert entry.packet_count == segment.original_packet_count
                bounds = segment.time_bounds()
                assert entry.time_min == pytest.approx(bounds[0], abs=1e-4)
                assert entry.time_max == pytest.approx(bounds[1], abs=1e-4)
                for address in segment.addresses:
                    assert entry.summary.may_contain(address)

    def test_mmap_and_plain_reads_agree(self, archive_path):
        build(archive_path, make_timed_flows(6), segment_span=20.0)
        with ArchiveReader(archive_path, use_mmap=True) as mapped, \
                ArchiveReader(archive_path, use_mmap=False) as plain:
            assert mapped.segment_count == plain.segment_count
            for index in range(mapped.segment_count):
                assert mapped.read_segment_bytes(index) == bytes(
                    plain.read_segment_bytes(index)
                )

    def test_decode_statistics_count_only_loaded_segments(self, archive_path):
        build(archive_path, make_timed_flows(8), segment_span=20.0)
        with ArchiveReader(archive_path) as reader:
            assert reader.segments_decoded == 0
            reader.load_segment(1)
            assert reader.segments_decoded == 1
            assert reader.bytes_decoded == reader.entries[1].length

    def test_segment_index_out_of_range(self, archive_path):
        build(archive_path, make_timed_flows(2), segment_span=20.0)
        with ArchiveReader(archive_path) as reader:
            with pytest.raises(ArchiveError, match="out of range"):
                reader.load_segment(99)

    def test_rejects_non_archive_file(self, tmp_path):
        bogus = tmp_path / "bogus.fctca"
        bogus.write_bytes(b"not an archive at all, definitely not")
        with pytest.raises(ArchiveError, match="magic"):
            ArchiveReader(bogus)

    def test_rejects_truncated_archive(self, archive_path):
        build(archive_path, make_timed_flows(4), segment_span=20.0)
        data = archive_path.read_bytes()
        archive_path.write_bytes(data[:-7])
        with pytest.raises(ArchiveError):
            ArchiveReader(archive_path)


class TestAppend:
    def test_append_extends_in_place(self, archive_path):
        build(
            archive_path,
            make_timed_flows(6, spacing=10.0),
            segment_span=30.0,
            segment_packets=10**9,
        )
        with ArchiveWriter.append(
            archive_path, segment_span=30.0, segment_packets=10**9
        ) as writer:
            assert writer.segment_count == 2
            writer.feed(make_timed_flows(3, spacing=10.0, start=100.0))
        with ArchiveReader(archive_path) as reader:
            assert reader.segment_count == 3
            assert reader.flow_count() == 9
            # The appended segment shares the original epoch clock.
            assert reader.entries[2].time_min == pytest.approx(100.0, abs=1e-4)
            total = sum(s.flow_count() for _, s in reader.iter_segments())
            assert total == 9

    def test_append_preserves_existing_segment_bytes(self, archive_path):
        build(archive_path, make_timed_flows(4), segment_span=20.0)
        with ArchiveReader(archive_path) as reader:
            before = [
                reader.read_segment_bytes(i) for i in range(reader.segment_count)
            ]
        with ArchiveWriter.append(archive_path) as writer:
            writer.feed(make_timed_flows(2, start=500.0))
        with ArchiveReader(archive_path) as reader:
            after = [
                reader.read_segment_bytes(i) for i in range(len(before))
            ]
        assert [bytes(b) for b in before] == [bytes(a) for a in after]

    def test_append_to_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArchiveWriter.append(tmp_path / "absent.fctca")

    def test_failed_append_preserves_existing_segments(self, archive_path):
        """A feed that blows up mid-append must not corrupt the archive."""
        build(archive_path, make_timed_flows(6), segment_span=20.0)
        with ArchiveReader(archive_path) as reader:
            flows_before = reader.flow_count()

        def exploding_feed():
            yield from make_timed_flows(1, start=500.0)
            raise FileNotFoundError("source vanished mid-read")

        with pytest.raises(FileNotFoundError):
            with ArchiveWriter.append(archive_path) as writer:
                writer.feed(exploding_feed())
        # The old footer was truncated on open; __exit__ must seal the
        # file back into a valid archive with the original segments.
        with ArchiveReader(archive_path) as reader:
            assert reader.flow_count() == flows_before

    def test_failed_build_leaves_a_readable_archive(self, archive_path):
        with pytest.raises(RuntimeError):
            with ArchiveWriter.create(archive_path) as writer:
                writer.feed(make_timed_flows(1))
                raise RuntimeError("interrupted")
        with ArchiveReader(archive_path) as reader:
            assert reader.segment_count == 0  # open segment discarded

    def test_closed_writer_rejects_packets(self, archive_path):
        writer = ArchiveWriter.create(archive_path)
        writer.feed(make_timed_flows(1))
        writer.close()
        with pytest.raises(ArchiveError, match="closed"):
            writer.add_packet(make_web_flow()[0])
