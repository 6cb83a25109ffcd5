"""SegmentFeeder and EpochRef: the per-stream half of archive building."""

from __future__ import annotations

import pytest

from repro.archive.writer import ArchiveWriter, EpochRef, SegmentFeeder
from repro.net.columns import columns_from_records
from repro.net.packet import PacketRecord
from repro.synth import generate_web_trace
from repro.trace.tsh import read_tsh_bytes


@pytest.fixture(scope="module")
def packets():
    trace = generate_web_trace(duration=6.0, flow_rate=20.0, seed=11)
    # Round-trip through TSH bytes so timestamps carry the same
    # microsecond quantization every real ingest path sees.
    return read_tsh_bytes(trace.to_tsh_bytes())


class TestEpochRef:
    def test_first_anchor_wins(self):
        ref = EpochRef()
        assert ref.value is None
        assert ref.anchor(10.5) == 10.5
        assert ref.anchor(3.0) == 10.5  # later (even earlier) stamps ignored
        assert ref.value == 10.5

    def test_preset_value_is_never_replaced(self):
        ref = EpochRef(2.0)
        assert ref.anchor(99.0) == 2.0


class TestSegmentFeeder:
    def test_rotates_at_packet_bound(self, packets):
        sealed = []
        feeder = SegmentFeeder(
            sealed.append,
            epoch=EpochRef(),
            segment_packets=100,
            segment_span=None,
        )
        feeder.feed(packets[:250])
        assert feeder.segments_sealed == 2
        assert feeder.packets_pending == 50
        assert feeder.close() == 3  # trailing partial segment sealed
        assert feeder.packets_pending == 0
        assert [trace.packet_count() for trace in sealed] == [100, 100, 50]

    def test_rotates_at_time_span(self, packets):
        sealed = []
        feeder = SegmentFeeder(
            sealed.append, epoch=EpochRef(), segment_span=2.0
        )
        feeder.feed(packets)
        feeder.close()
        first = packets[0].timestamp
        span = packets[-1].timestamp - first
        assert feeder.segments_sealed >= int(span // 2.0)
        for trace in sealed:
            times = trace.time_bounds()
            assert times[1] - times[0] < 2.0 + 1e-6

    def test_flush_forces_a_short_segment(self, packets):
        sealed = []
        feeder = SegmentFeeder(sealed.append, epoch=EpochRef())
        feeder.feed(packets[:7])
        assert not sealed
        assert feeder.flush()
        assert len(sealed) == 1
        assert not feeder.flush()  # nothing pending: no empty segment
        assert feeder.close() == 1

    def test_segment_names_follow_the_callback(self, packets):
        sealed = []
        feeder = SegmentFeeder(
            sealed.append,
            epoch=EpochRef(),
            segment_packets=50,
            segment_span=None,
            name="unix0",
        )
        feeder.feed(packets[:120])
        feeder.close()
        assert [trace.name for trace in sealed] == [
            "unix0/seg-00000",
            "unix0/seg-00001",
            "unix0/seg-00002",
        ]

    def test_shared_epoch_across_feeders(self, packets):
        """Two feeders on one ref compress against one time base."""
        ref = EpochRef()
        sealed_a, sealed_b = [], []
        feeder_a = SegmentFeeder(sealed_a.append, epoch=ref)
        feeder_b = SegmentFeeder(sealed_b.append, epoch=ref)
        feeder_a.feed(packets[:10])
        feeder_b.feed(packets[10:20])
        assert ref.value == packets[0].timestamp
        assert feeder_a.compressor.base_time == feeder_b.compressor.base_time
        feeder_a.close()
        feeder_b.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="segment_packets"):
            SegmentFeeder(lambda c: None, epoch=EpochRef(), segment_packets=0)
        with pytest.raises(ValueError, match="segment_span"):
            SegmentFeeder(lambda c: None, epoch=EpochRef(), segment_span=0.0)


class TestColumnsMatchRecords:
    @pytest.mark.parametrize(
        "timestamps, expected",
        [
            # 258.915577 - 253.915577 rounds just below 5.0 while
            # 253.915577 + 5.0 rounds to 258.915577: the column split
            # used to stop on that row without sealing, forever.
            ((253.915577, 258.915577, 258.92), [2, 1]),
            # 7.71287 - 2.71287 >= 5.0 but 7.71287 < 2.71287 + 5.0: the
            # column split used to keep the row the record path seals on.
            ((2.71287, 3.0, 7.71287, 7.8), [2, 2]),
        ],
    )
    def test_span_boundary_that_rounds_differently(self, timestamps, expected):
        packets = [
            PacketRecord(
                timestamp=timestamp, src_ip=1, dst_ip=2, src_port=port,
                dst_port=80, protocol=6, flags=0x02, payload_len=0,
                seq=0, ack=0, ttl=64, ip_id=0, window=0,
            )
            for port, timestamp in enumerate(timestamps)
        ]

        def sealed_by(feed):
            sealed = []
            feeder = SegmentFeeder(sealed.append, epoch=EpochRef(), segment_span=5.0)
            feed(feeder)
            feeder.close()
            return [trace.packet_count() for trace in sealed]

        assert sealed_by(lambda feeder: feeder.feed(packets)) == expected
        assert sealed_by(
            lambda feeder: feeder.feed_columns(columns_from_records(packets))
        ) == expected


class TestWriterEquivalence:
    def test_external_feeder_matches_writer_feed(self, tmp_path, packets):
        """A feeder sinking into write_segment builds the same bytes as
        the writer's own feed path — they are the same machinery."""
        direct = tmp_path / "direct.fctca"
        with ArchiveWriter.create(
            str(direct), segment_packets=80, segment_span=None, name="archive"
        ) as writer:
            writer.feed(packets)

        via_feeder = tmp_path / "feeder.fctca"
        writer = ArchiveWriter.create(
            str(via_feeder), segment_packets=80, segment_span=None, name="archive"
        )
        feeder = SegmentFeeder(
            writer.write_segment,
            epoch=writer.epoch_ref,
            segment_packets=80,
            segment_span=None,
            name="archive",
        )
        feeder.feed(packets)
        feeder.close()
        writer.close()

        assert direct.read_bytes() == via_feeder.read_bytes()
