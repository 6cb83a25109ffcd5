"""Property: the flow-metadata fast path equals the full packet decode.

``iter_flow_records`` claims to produce, without synthesizing a single
packet, exactly what a full replay would aggregate: the same flows, the
same per-flow packet/byte splits, the same time bounds.  This suite
pins that identity across every registered traffic scenario — the
record stream is compared against aggregates
computed from ``iter_packets``, the archive's packet-synthesis path.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

import repro
from repro.archive.reader import ArchiveReader
from repro.core.decompressor import SERVER_PORT
from repro.core.flowmeta import flow_records, flow_records_by_decode
from repro.synth.scenarios import get_scenario, scenario_names


def _archive_for(tmp_path, scenario_name: str):
    scenario = get_scenario(scenario_name)
    trace = scenario.build(duration=3.0, flow_rate=20.0)
    path = tmp_path / f"{scenario_name}.fctca"
    repro.api.create_archive(
        path,
        iter(trace.packets),
        options=repro.api.Options.make(segment_span=1.0),
    )
    return path


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_fast_path_matches_full_decode(tmp_path, scenario_name):
    path = _archive_for(tmp_path, scenario_name)
    with ArchiveReader(path) as reader:
        records = list(reader.iter_flow_records())
        flow_count = reader.flow_count()

        # Aggregate the full packet synthesis: a packet belongs to the
        # flow of its server endpoint (the port-80 side — client ports
        # start above 1024, so the test is unambiguous).
        packet_count = 0
        per_dst_packets: dict[int, int] = defaultdict(int)
        per_dst_bytes: dict[int, int] = defaultdict(int)
        for packet in reader.iter_packets():
            packet_count += 1
            server = (
                packet.dst_ip if packet.dst_port == SERVER_PORT else packet.src_ip
            )
            per_dst_packets[server] += 1
            per_dst_bytes[server] += packet.payload_len

    assert len(records) == flow_count
    assert sum(record.packets for record in records) == packet_count
    assert all(
        record.packets == record.packets_fwd + record.packets_rev
        for record in records
    )

    meta_packets: dict[int, int] = defaultdict(int)
    meta_bytes: dict[int, int] = defaultdict(int)
    for record in records:
        meta_packets[record.dst] += record.packets
        meta_bytes[record.dst] += record.bytes
    assert dict(meta_packets) == dict(per_dst_packets)
    assert dict(meta_bytes) == dict(per_dst_bytes)


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_record_twins_are_identical(tmp_path, scenario_name):
    """Per-record identity, including bit-exact float end timestamps."""
    path = _archive_for(tmp_path, scenario_name)
    with ArchiveReader(path) as reader:
        for segment in range(reader.segment_count):
            compressed = reader.load_segment(segment)
            fast = list(flow_records(compressed, segment=segment))
            slow = list(flow_records_by_decode(compressed, segment=segment))
            assert fast == slow


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_fast_path_starts_are_nondecreasing(tmp_path, scenario_name):
    """The aggregator's precondition, guaranteed by the reader merge."""
    path = _archive_for(tmp_path, scenario_name)
    with ArchiveReader(path) as reader:
        starts = [record.start for record in reader.iter_flow_records()]
    assert starts == sorted(starts)
