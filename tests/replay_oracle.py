"""The reference replay: per-packet synthesis and a k-way heap merge.

This is the replay engine as it stood before the batch-sort merge, kept
only as the differential oracle.  Each flow is a lazy generator of
:class:`PacketRecord`\\ s (ties on one timestamp buffered and put in
``merge_sort_key`` order), and the merge holds one packet per open
flow in a heap keyed by ``merge_sort_key + FlowSpec.order + (packet
position,)``.  It shares nothing with the engine under test beyond the
spec walk (:func:`flow_specs`) and the feeds that drive it.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator

from repro.core.codec import GAP_UNITS_PER_SECOND, quantize_gap
from repro.core.decompressor import (
    _FLAGS_FOR_CLASS,
    CLIENT_PORT_MAX,
    CLIENT_PORT_MIN,
    SERVER_PORT,
    DecompressorConfig,
    FlowSpec,
    flow_specs,
    merge_sort_key,
)
from repro.core.replay import IteratorSpecFeed
from repro.flows.characterize import decode_packet_value
from repro.net.hostprops import plausible_ttl, plausible_window
from repro.net.ip import random_class_b_or_c
from repro.net.packet import PacketRecord


def oracle_flow_packets(
    spec: FlowSpec, config: DecompressorConfig
) -> Iterator[PacketRecord]:
    """One flow's packets in generation order, one RNG draw at a time."""
    rng = random.Random(spec.seed)
    client_ip = random_class_b_or_c(rng)
    client_port = rng.randint(CLIENT_PORT_MIN, CLIENT_PORT_MAX)
    template = spec.template
    rtt = spec.rtt if spec.rtt > 0 else config.default_rtt
    timestamp = spec.start
    client_to_server = True
    client_seq = rng.getrandbits(32)
    server_seq = rng.getrandbits(32)
    server_ip = spec.server_ip
    for position, value in enumerate(template.values):
        g1, g2, g3 = decode_packet_value(value, config.characterization)
        if position > 0:
            if spec.is_long:
                timestamp += (
                    quantize_gap(template.gaps[position - 1]) / GAP_UNITS_PER_SECOND
                )
            elif g2 == 0:
                timestamp += rtt
            else:
                timestamp += config.back_to_back_gap
            if g2 == 0:
                client_to_server = not client_to_server
        payload = config.payload_for_class(g3)
        flags = _FLAGS_FOR_CLASS[g1]
        if client_to_server:
            yield PacketRecord(
                timestamp=timestamp,
                src_ip=client_ip,
                dst_ip=server_ip,
                src_port=client_port,
                dst_port=SERVER_PORT,
                flags=flags,
                payload_len=payload,
                seq=client_seq,
                ack=server_seq,
                ip_id=rng.getrandbits(16),
                ttl=plausible_ttl(client_ip),
                window=plausible_window(client_ip),
            )
            client_seq = (client_seq + max(payload, 1)) & 0xFFFFFFFF
        else:
            yield PacketRecord(
                timestamp=timestamp,
                src_ip=server_ip,
                dst_ip=client_ip,
                src_port=SERVER_PORT,
                dst_port=client_port,
                flags=flags,
                payload_len=payload,
                seq=server_seq,
                ack=client_seq,
                ip_id=rng.getrandbits(16),
                ttl=plausible_ttl(server_ip),
                window=plausible_window(server_ip),
            )
            server_seq = (server_seq + max(payload, 1)) & 0xFFFFFFFF


def oracle_synthesize_flow(
    spec: FlowSpec, config: DecompressorConfig
) -> Iterator[PacketRecord]:
    """One flow as a sorted run: same-timestamp groups put in key order."""
    group: list[PacketRecord] = []
    for packet in oracle_flow_packets(spec, config):
        if group and packet.timestamp != group[-1].timestamp:
            group.sort(key=merge_sort_key)
            yield from group
            group.clear()
        group.append(packet)
    group.sort(key=merge_sort_key)
    yield from group


def oracle_merge(feed, config: DecompressorConfig) -> Iterator[PacketRecord]:
    """K-way heap merge of lazily synthesized flows off a spec feed.

    Admit every flow that could start at or before the heap minimum,
    then emit the minimum and advance its flow.
    """
    heap: list = []
    while True:
        while True:
            bound = feed.next_start_bound()
            if bound is None or (heap and heap[0][0][0] < bound):
                break
            spec = feed.pop()
            if spec is None:
                break
            source = oracle_synthesize_flow(spec, config)
            first = next(source, None)
            if first is not None:
                key = (*merge_sort_key(first), *spec.order, 0)
                heapq.heappush(heap, (key, first, spec.order, source))
        if not heap:
            return
        key, packet, order, source = heapq.heappop(heap)
        yield packet
        following = next(source, None)
        if following is not None:
            next_key = (*merge_sort_key(following), *order, key[-1] + 1)
            heapq.heappush(heap, (next_key, following, order, source))


def oracle_decompress(
    compressed, config: DecompressorConfig | None = None
) -> list[PacketRecord]:
    """Every packet of one container, in replay order."""
    config = config or DecompressorConfig()
    compressed.validate()
    return list(oracle_merge(IteratorSpecFeed(flow_specs(compressed, config)), config))


def oracle_archive_packets(
    reader, config: DecompressorConfig | None = None
) -> list[PacketRecord]:
    """Every packet of an open archive, in replay order."""
    from repro.archive.reader import ArchiveSpecFeed, segment_runs

    config = config or DecompressorConfig()
    feed = ArchiveSpecFeed(
        reader,
        segment_runs(reader.entries, list(range(reader.segment_count))),
        lambda segment, compressed: flow_specs(
            compressed, config, order_prefix=(segment,)
        ),
    )
    return list(oracle_merge(feed, config))
