"""index_entry_for against the per-record computation it replaced.

The footer entry quantizes only the raw extremes and reads flow sizes
from per-dataset template lengths.  The oracle below is the original
formulation — quantize every record, resolve every record's template —
and the two must agree field for field, saturation included.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.archive.format import SegmentIndexEntry, index_entry_for
from repro.core.codec import quantize_rtt, quantize_timestamp
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)

U32_SATURATED_SECONDS = 0xFFFFFFFF / 10_000 + 1.0
U16_SATURATED_SECONDS = 0xFFFF / 10_000 + 1.0


def _oracle_entry(compressed: CompressedTrace, offset: int, length: int):
    time_units = [quantize_timestamp(r.timestamp) for r in compressed.time_seq]
    rtt_units = [quantize_rtt(r.rtt) for r in compressed.time_seq]
    flow_packets = [compressed.packets_for(r) for r in compressed.time_seq]
    short_flows = sum(
        1 for r in compressed.time_seq if r.dataset is DatasetId.SHORT
    )
    return dict(
        offset=offset,
        length=length,
        time_min_units=min(time_units),
        time_max_units=max(time_units),
        flow_count=len(compressed.time_seq),
        short_flow_count=short_flows,
        packet_count=compressed.original_packet_count,
        min_flow_packets=min(flow_packets),
        max_flow_packets=max(flow_packets),
        min_rtt_units=min(rtt_units),
        max_rtt_units=max(rtt_units),
        address_count=len(compressed.addresses),
    )


def _assert_matches_oracle(compressed: CompressedTrace) -> SegmentIndexEntry:
    entry = index_entry_for(compressed, offset=16, length=123)
    expected = _oracle_entry(compressed, 16, 123)
    assert {name: getattr(entry, name) for name in expected} == expected
    return entry


def _segment(flows) -> CompressedTrace:
    """``flows``: (timestamp, rtt, packets) triples; > 50 packets is long."""
    compressed = CompressedTrace(name="seg")
    address = compressed.addresses.intern(0x0A000001)
    for timestamp, rtt, packets in flows:
        if packets > 50:
            compressed.long_templates.append(
                LongFlowTemplate((7,) * packets, (0.001,) * packets)
            )
            record = TimeSeqRecord(
                timestamp,
                DatasetId.LONG,
                len(compressed.long_templates) - 1,
                address,
            )
        else:
            compressed.short_templates.append(ShortFlowTemplate((3,) * packets))
            record = TimeSeqRecord(
                timestamp,
                DatasetId.SHORT,
                len(compressed.short_templates) - 1,
                address,
                rtt=rtt,
            )
        compressed.time_seq.append(record)
        compressed.original_packet_count += packets
    return compressed


class TestIndexEntryMatchesPerRecordOracle:
    def test_short_and_long_flows(self):
        entry = _assert_matches_oracle(
            _segment([(3.0, 0.02, 4), (1.5, 0.0, 120), (2.25, 0.3, 1), (9.0, 0.0, 51)])
        )
        assert (entry.min_flow_packets, entry.max_flow_packets) == (1, 120)

    def test_timestamp_saturates_u32(self):
        entry = _assert_matches_oracle(
            _segment([(U32_SATURATED_SECONDS, 0.01, 3), (5.0, 0.01, 2)])
        )
        assert entry.time_max_units == 0xFFFFFFFF

    def test_rtt_saturates_u16(self):
        entry = _assert_matches_oracle(
            _segment([(1.0, U16_SATURATED_SECONDS, 3), (2.0, 0.001, 2)])
        )
        assert entry.max_rtt_units == 0xFFFF

    def test_shared_and_unreferenced_templates(self):
        compressed = _segment([(1.0, 0.01, 5), (2.0, 0.0, 80)])
        first_short, first_long = compressed.time_seq
        compressed.time_seq.extend(
            [replace(first_short, timestamp=4.0), replace(first_long, timestamp=0.5)]
        )
        # Templates no record points at must not widen the size bounds.
        compressed.short_templates.append(ShortFlowTemplate((3,) * 50))
        compressed.long_templates.append(
            LongFlowTemplate((7,) * 200, (0.001,) * 200)
        )
        entry = _assert_matches_oracle(compressed)
        assert (entry.min_flow_packets, entry.max_flow_packets) == (5, 80)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(0.0, 1e4), st.floats(4e5, 5e5), st.just(0.0)
                ),
                st.one_of(st.floats(0.0, 10.0), st.just(0.0)),
                st.integers(1, 70),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_random_segments(self, flows):
        _assert_matches_oracle(_segment(flows))
