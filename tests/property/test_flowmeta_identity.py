"""Property: the flow-metadata fast path equals the full packet decode.

``iter_flow_records`` claims to produce, without synthesizing a single
packet, exactly what a full replay would aggregate: the same flows, the
same per-flow packet/byte splits, the same time bounds.  This suite
pins that identity across every registered traffic scenario — the
record stream is compared against aggregates
computed from ``iter_packets``, the archive's packet-synthesis path.
Every test checks its archive under the default decompressor config and
under one that moves every field the fast path reads (seed, default RTT,
back-to-back gap, payload sizes), so a field read wrongly fails here.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import pytest

import repro
from repro.archive.reader import ArchiveReader
from repro.core.decompressor import SERVER_PORT, DecompressorConfig
from repro.core.flowmeta import flow_records, flow_records_by_decode
from repro.synth.scenarios import get_scenario, scenario_names


CONFIGS = {
    "default": DecompressorConfig(),
    "moved": DecompressorConfig(
        seed=7,
        default_rtt=0.0313,
        back_to_back_gap=0.0007,
        payload_small=211,
        payload_large=1337,
    ),
}


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
    for config_name, config in CONFIGS.items():
        _check_fast_path_matches_full_decode(path, config_name, config)


def _check_fast_path_matches_full_decode(path, config_name, config):
    with ArchiveReader(path) as reader:
        records = list(reader.iter_flow_records(config))
        flow_count = reader.flow_count()

        # Aggregate the full packet synthesis: a packet belongs to the
        # flow of its server endpoint (the port-80 side — client ports
        # start above 1024, so the test is unambiguous).
        packet_count = 0
        per_dst_packets: dict[int, int] = defaultdict(int)
        per_dst_bytes: dict[int, int] = defaultdict(int)
        for packet in reader.iter_packets(config):
            packet_count += 1
            server = (
                packet.dst_ip if packet.dst_port == SERVER_PORT else packet.src_ip
            )
            per_dst_packets[server] += 1
            per_dst_bytes[server] += packet.payload_len

    assert len(records) == flow_count, config_name
    assert sum(record.packets for record in records) == packet_count, config_name
    assert all(
        record.packets == record.packets_fwd + record.packets_rev
        for record in records
    ), config_name

    meta_packets: dict[int, int] = defaultdict(int)
    meta_bytes: dict[int, int] = defaultdict(int)
    for record in records:
        meta_packets[record.dst] += record.packets
        meta_bytes[record.dst] += record.bytes
    assert dict(meta_packets) == dict(per_dst_packets), config_name
    assert dict(meta_bytes) == dict(per_dst_bytes), config_name


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_record_twins_are_identical(tmp_path, scenario_name):
    """Per-record identity, including bit-exact float end timestamps."""
    path = _archive_for(tmp_path, scenario_name)
    with ArchiveReader(path) as reader:
        for segment in range(reader.segment_count):
            compressed = reader.load_segment(segment)
            for config_name, config in CONFIGS.items():
                fast = list(flow_records(compressed, config, segment=segment))
                slow = list(
                    flow_records_by_decode(compressed, config, segment=segment)
                )
                assert fast == slow, config_name


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_record_twins_agree_on_missing_rtts(tmp_path, config):
    """Short flows with no stored RTT wait ``config.default_rtt`` per step."""
    path = _archive_for(tmp_path, "web")
    with ArchiveReader(path) as reader:
        compressed = reader.load_segment(0)
    missing = dataclasses.replace(
        compressed,
        time_seq=[
            dataclasses.replace(record, rtt=0.0) if position % 2 else record
            for position, record in enumerate(compressed.time_seq)
        ],
    )
    fast = list(flow_records(missing, config))
    assert any(record.rtt == 0.0 and not record.is_long for record in fast)
    assert fast == list(flow_records_by_decode(missing, config))


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_fast_path_starts_are_nondecreasing(tmp_path, scenario_name):
    """The aggregator's precondition, guaranteed by the reader merge."""
    path = _archive_for(tmp_path, scenario_name)
    with ArchiveReader(path) as reader:
        for config_name, config in CONFIGS.items():
            starts = [record.start for record in reader.iter_flow_records(config)]
            assert starts == sorted(starts), config_name
