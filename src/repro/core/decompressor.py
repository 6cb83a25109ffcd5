"""The decompression algorithm (section 4).

The decompressor walks ``time-seq`` in timestamp order; for each flow it
resolves the template (short or long), decodes every ``f(p_i)`` back into
its (flag class, dependence, payload class) triple, and re-synthesizes
packets:

* **timing** — short flows get their stored per-flow RTT: a *dependent*
  packet (g2 = 0) is emitted one RTT after its predecessor, a
  *non-dependent* packet back-to-back (a small serialization gap); long
  flows replay their stored inter-packet times.
* **direction** — the dependence bits reconstruct the turn-taking: g2 = 0
  means the direction flipped relative to the previous packet, g2 = 1
  means it stayed.  The first packet travels client → server.
* **addresses** — destination comes from the ``address`` dataset; "for
  source address, we assign randomly an IP class B or C address".
* **ports** — "a random value between 1024 and 65000 to client port
  number, and to the server side the value 80".
* **flags / sizes** — from g1 and g3 (payload classes map to
  representative sizes).

Packets from all flows are merged by timestamp, replacing the paper's
linked-list insertion sort with an equivalent heap merge.

This module holds the *shared* re-synthesis primitives — the per-flow
:class:`FlowSpec` (everything one flow needs to replay), the stable
:func:`flow_seed` mix, :func:`flow_specs` (dataset walk in timestamp
order) and :func:`synthesize_flow` (one flow's packet generator) — plus
the batch :func:`decompress_trace` entry point.  The bounded-memory
streaming engine in :mod:`repro.core.replay` drives the same primitives
through a k-way heap merge instead of a global sort, which is why the
two paths are byte-identical.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Iterable, Iterator

from repro.core.codec import (
    GAP_UNITS_PER_SECOND,
    RTT_UNITS_PER_SECOND,
    TIMESTAMP_UNITS_PER_SECOND,
    quantize_gap,
    quantize_rtt,
    quantize_timestamp,
)
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)
from repro.core.errors import CodecError
from repro.flows.characterize import CharacterizationConfig, decode_packet_value
from repro.net.hostprops import plausible_ttl, plausible_window
from repro.net.ip import random_class_b_or_c
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_SYN, FlagClass
from repro.trace.trace import Trace

CLIENT_PORT_MIN = 1024
CLIENT_PORT_MAX = 65000
SERVER_PORT = 80

_FLAGS_FOR_CLASS = {
    int(FlagClass.SYN): TCP_SYN,
    int(FlagClass.SYN_ACK): TCP_SYN | TCP_ACK,
    int(FlagClass.ACK): TCP_ACK,
    int(FlagClass.FIN_RST): TCP_FIN | TCP_ACK,
}

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_LAYOUT = struct.Struct(">QIBIIII")
"""Struct-packed flow identity fed to blake2b: config seed (u64),
timestamp units (u32), long flag (u8), template index (u32), server
address (u32), RTT units (u32), occurrence ordinal (u32)."""


def flow_seed(
    config_seed: int,
    timestamp_units: int,
    is_long: bool,
    template_index: int,
    server_ip: int,
    rtt_units: int,
    occurrence: int,
) -> int:
    """Deterministic per-flow RNG seed: blake2b over the packed identity.

    Decompression promises to be a pure function of (datasets, config).
    Python's built-in ``hash()`` of a mixed tuple cannot carry that
    guarantee — its integer mixing is an implementation detail free to
    change between interpreter versions, and nearby tuples collide
    trivially — so the identity is struct-packed and run through a real
    hash.  blake2b is part of ``hashlib``'s guaranteed algorithms, so
    the same datasets replay to the same bytes on every platform and
    interpreter.

    ``occurrence`` disambiguates flows whose identity fields collide
    (same start time, template, destination and RTT): the n-th such
    clone gets ordinal n, in ``time-seq`` timestamp order.
    """
    payload = _SEED_LAYOUT.pack(
        config_seed & _MASK64,
        timestamp_units & _MASK32,
        1 if is_long else 0,
        template_index & _MASK32,
        server_ip & _MASK32,
        rtt_units & _MASK32,
        occurrence & _MASK32,
    )
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class DecompressorConfig:
    """Tunables of the decompressor.

    ``payload_small`` / ``payload_large`` are the representative sizes for
    the g3 = 1 and g3 = 2 payload classes (the compressed form keeps only
    the class); ``back_to_back_gap`` is the emission gap of non-dependent
    packets; ``default_rtt`` replaces a missing (zero) short-flow RTT.
    """

    payload_small: int = 300
    payload_large: int = 1460
    back_to_back_gap: float = 0.0002
    default_rtt: float = 0.050
    seed: int = 20050320
    characterization: CharacterizationConfig = CharacterizationConfig()

    def payload_for_class(self, g3: int) -> int:
        """Representative payload bytes of a g3 class."""
        if g3 == 0:
            return 0
        if g3 == 1:
            return self.payload_small
        if g3 == 2:
            return self.payload_large
        raise ValueError(f"invalid payload class: {g3}")


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """One flow, resolved and ready to replay.

    ``start`` and ``rtt`` are already quantized to the codec's on-disk
    resolution (so in-memory and serialized containers replay
    identically); ``seed`` is the flow's :func:`flow_seed`; ``order`` is
    a strictly increasing tiebreak tuple — ``(flow position,)`` for a
    single container, ``(segment, flow position)`` across an archive —
    that makes the merge order total and reproduces the batch path's
    stable sort.
    """

    start: float
    rtt: float
    is_long: bool
    template: ShortFlowTemplate | LongFlowTemplate
    server_ip: int
    seed: int
    order: tuple[int, ...]


def flow_specs(
    compressed: CompressedTrace,
    config: DecompressorConfig,
    *,
    order_prefix: tuple[int, ...] = (),
    record_filter: Callable[[TimeSeqRecord], bool] | None = None,
) -> Iterator[FlowSpec]:
    """Resolve ``time-seq`` into replayable specs, in timestamp order.

    ``record_filter`` drops records from the output *without* changing
    the surviving flows' seeds: occurrence ordinals are counted over the
    full record walk, so a filtered replay (the query engine's packet
    stream) emits exactly the packets the unfiltered replay would.
    Start timestamps of the yielded specs are nondecreasing — the
    invariant the streaming merge's admission logic relies on.
    """
    occurrences: dict[tuple, int] = {}
    for index, record in enumerate(compressed.sorted_time_seq()):
        timestamp_units = quantize_timestamp(record.timestamp)
        rtt_units = quantize_rtt(record.rtt)
        is_long = record.dataset is DatasetId.LONG
        try:
            server_ip = compressed.addresses.lookup(record.address_index)
        except IndexError as exc:  # validate() should have caught this
            raise CodecError(
                f"dangling address index: {record.address_index}"
            ) from exc
        identity = (
            timestamp_units,
            is_long,
            record.template_index,
            server_ip,
            rtt_units,
        )
        occurrence = occurrences.get(identity, 0)
        occurrences[identity] = occurrence + 1
        if record_filter is not None and not record_filter(record):
            continue
        yield FlowSpec(
            start=timestamp_units / TIMESTAMP_UNITS_PER_SECOND,
            rtt=rtt_units / RTT_UNITS_PER_SECOND,
            is_long=is_long,
            template=compressed.template_for(record),
            server_ip=server_ip,
            seed=flow_seed(config.seed, *identity, occurrence),
            order=(*order_prefix, index),
        )


def synthesize_flow(
    spec: FlowSpec, config: DecompressorConfig
) -> Iterator[PacketRecord]:
    """Re-synthesize one flow's packets lazily, in global merge order.

    Per-flow timestamps are nondecreasing (every step adds a
    non-negative gap), which is what lets the streaming merge treat each
    flow as a sorted run.  Nondecreasing is not strict: a long flow
    whose stored gap quantizes to zero puts several packets on one
    timestamp, and a direction flip inside such a tie makes the rest of
    :func:`merge_sort_key` *decrease* mid-flow.  The batch path's global
    sort reorders those ties; a bounded-memory heap merge cannot (it
    holds one packet per flow).  So ties are reconciled here, at the
    source: packets sharing a timestamp are buffered and yielded in
    stable :func:`merge_sort_key` order, making every flow a genuinely
    sorted run.  The batch output is unchanged (its stable sort already
    ordered ties this way); the streaming merge becomes byte-identical
    to it for tied flows too.  Memory cost is the largest same-timestamp
    group, not the flow.
    """
    group: list[PacketRecord] = []
    for packet in _synthesize_flow_packets(spec, config):
        if group and packet.timestamp != group[-1].timestamp:
            if len(group) > 1:
                group.sort(key=merge_sort_key)
            yield from group
            group.clear()
        group.append(packet)
    if len(group) > 1:
        group.sort(key=merge_sort_key)
    yield from group


def _synthesize_flow_packets(
    spec: FlowSpec, config: DecompressorConfig
) -> Iterator[PacketRecord]:
    """The raw per-packet synthesis, in template (generation) order."""
    rng = random.Random(spec.seed)
    client_ip = random_class_b_or_c(rng)
    client_port = rng.randint(CLIENT_PORT_MIN, CLIENT_PORT_MAX)

    template = spec.template
    rtt = spec.rtt if spec.rtt > 0 else config.default_rtt

    timestamp = spec.start
    client_to_server = True  # first packet: client opens the flow
    client_seq = rng.getrandbits(32)
    server_seq = rng.getrandbits(32)

    # Host properties are functions of the address alone: derive each
    # endpoint's once per flow, not once per packet.
    server_ip = spec.server_ip
    client_ttl, client_window = plausible_ttl(client_ip), plausible_window(client_ip)
    server_ttl, server_window = plausible_ttl(server_ip), plausible_window(server_ip)
    characterization = config.characterization

    for position, value in enumerate(template.values):
        g1, g2, g3 = decode_packet_value(value, characterization)
        if position > 0:
            if spec.is_long:
                # Quantize to the codec's resolution so in-memory and
                # serialized containers decompress identically.
                timestamp += (
                    quantize_gap(template.gaps[position - 1])
                    / GAP_UNITS_PER_SECOND
                )
            elif g2 == 0:  # dependent: waited one RTT on the opposite node
                timestamp += rtt
            else:  # back-to-back with its predecessor
                timestamp += config.back_to_back_gap
            if g2 == 0:
                client_to_server = not client_to_server

        payload = config.payload_for_class(g3)
        flags = _FLAGS_FOR_CLASS[g1]
        if client_to_server:
            packet = PacketRecord(
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
                ttl=client_ttl,
                window=client_window,
            )
            client_seq = (client_seq + max(payload, 1)) & 0xFFFFFFFF
        else:
            packet = PacketRecord(
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
                ttl=server_ttl,
                window=server_window,
            )
            server_seq = (server_seq + max(payload, 1)) & 0xFFFFFFFF
        yield packet


def merge_sort_key(packet: PacketRecord) -> tuple:
    """The global packet order of a decompressed trace.

    Both the batch sort and the streaming heap merge order packets by
    this key (the merge adds the ``FlowSpec.order`` + packet-position
    tiebreak, which reproduces the batch path's stable sort exactly).
    """
    return (packet.timestamp, packet.src_ip, packet.src_port, packet.dst_ip, packet.seq)


def decompress_trace(
    compressed: CompressedTrace, config: DecompressorConfig | None = None
) -> Trace:
    """Reconstruct a synthetic trace from the four datasets.

    The result is lossy by design: per-flow identities are re-drawn, but
    flag sequences, dependence structure, payload classes, destination
    addresses, flow timing skeletons and flow ordering are preserved.

    Decompression is a pure function of (datasets, config): timestamps
    and RTTs are quantized to the on-disk codec's resolution and each
    flow's randomness is seeded with :func:`flow_seed` — a blake2b mix
    of the flow's own record content — so decompressing an in-memory
    container and its serialized round-trip produce byte-identical
    traces, on any interpreter version or platform.

    This is the batch path: every packet is materialized, then sorted.
    :class:`repro.core.replay.StreamingDecompressor` emits the identical
    packet sequence in bounded memory.
    """
    config = config or DecompressorConfig()
    compressed.validate()

    merged: list[PacketRecord] = []
    for spec in flow_specs(compressed, config):
        merged.extend(synthesize_flow(spec, config))

    merged.sort(key=merge_sort_key)
    return Trace(merged, name=f"{compressed.name}-decompressed")
