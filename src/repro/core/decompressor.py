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
linked-list insertion sort with batched sorts of replay rows.

This module holds the re-synthesis primitives — the per-flow
:class:`FlowSpec` (everything one flow needs to replay), the stable
:func:`flow_seed` mix, :func:`flow_specs` (dataset walk in timestamp
order) and :func:`synthesize_rows`, the synthesis kernel that turns a
batch of specs into replay rows (:func:`synthesize_flow` is its
one-flow, packet-record form) — plus the :func:`decompress_trace`
entry point, which collects the streaming engine of
:mod:`repro.core.replay` into a :class:`Trace`.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from hashlib import blake2b
from itertools import accumulate
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
    LongFlowTemplate,
    ShortFlowTemplate,
)
from repro.core.errors import CodecError
from repro.flows.characterize import CharacterizationConfig, decode_packet_value
from repro.net.hostprops import host_properties
from repro.net.ip import random_class_b_or_c
from repro.net.packet import PacketRecord, packets_from_rows
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


def flow_identities(
    compressed: CompressedTrace,
    row_filter: Callable[[int], bool] | None = None,
) -> Iterator[tuple[int, tuple[int, bool, int, int, int], int]]:
    """The time-seq walk replay and flow metadata share: per row, in
    ``sorted_time_seq`` order, ``(position, identity, occurrence)`` —
    with the config seed, the :func:`flow_seed` inputs.  Occurrence
    ordinals count over the full walk, so ``row_filter`` (given the row
    index) drops rows without changing the survivors' seeds.
    """
    columns = compressed.time_seq.columns()
    timestamps, long, template_indices, address_indices, rtts = columns
    lookup = compressed.addresses.lookup
    occurrences: dict[tuple, int] = {}
    for position, row in enumerate(compressed.sorted_time_seq()):
        try:
            server_ip = lookup(address_indices[row])
        except IndexError as exc:  # validate() should have caught this
            raise CodecError(
                f"dangling address index: {address_indices[row]}"
            ) from exc
        identity = (
            quantize_timestamp(timestamps[row]),
            long[row],
            template_indices[row],
            server_ip,
            quantize_rtt(rtts[row]),
        )
        occurrence = occurrences.get(identity, 0)
        occurrences[identity] = occurrence + 1
        if row_filter is None or row_filter(row):
            yield position, identity, occurrence


def flow_specs(
    compressed: CompressedTrace,
    config: DecompressorConfig,
    *,
    order_prefix: tuple[int, ...] = (),
    row_filter: Callable[[int], bool] | None = None,
) -> Iterator[FlowSpec]:
    """Resolve ``time-seq`` into replayable specs, in timestamp order.

    ``row_filter`` drops time-seq rows from the output *without* changing
    the surviving flows' seeds: occurrence ordinals are counted over the
    full record walk, so a filtered replay (the query engine's packet
    stream) emits exactly the packets the unfiltered replay would.
    Start timestamps of the yielded specs are nondecreasing — the
    invariant the streaming merge's admission logic relies on.
    """
    templates = (compressed.short_templates, compressed.long_templates)
    for index, identity, occurrence in flow_identities(compressed, row_filter):
        timestamp_units, is_long, template_index, server_ip, rtt_units = identity
        yield FlowSpec(
            start=timestamp_units / TIMESTAMP_UNITS_PER_SECOND,
            rtt=rtt_units / RTT_UNITS_PER_SECOND,
            is_long=is_long,
            template=templates[is_long][template_index],
            server_ip=server_ip,
            seed=flow_seed(config.seed, *identity, occurrence),
            order=(*order_prefix, index),
        )


def synthesize_flow(
    spec: FlowSpec, config: DecompressorConfig
) -> Iterator[PacketRecord]:
    """Re-synthesize one flow's packets, in global merge order.

    :func:`synthesize_rows` for one flow, sorted.  Per-flow timestamps
    are nondecreasing, but a long flow whose stored gap quantizes to
    zero puts several packets on one timestamp, and a direction flip
    inside such a tie makes the rest of :func:`merge_sort_key` decrease
    mid-flow; the sort puts those ties in the order the whole-trace
    replay gives them.
    """
    rows = synthesize_rows((spec,), config)
    rows.sort()
    return iter(packets_from_rows(rows))


def _flow_shape(
    template: ShortFlowTemplate | LongFlowTemplate,
    is_long: bool,
    config: DecompressorConfig,
    values: dict[int, tuple[bool, int, int]],
    gaps: dict[float, float],
) -> tuple[list[tuple[bool, int, int, int, int]], list]:
    """What every flow of one template shares: ``(steps, timing)``.

    ``steps[i]`` is packet *i*'s ``(client_to_server, flags, payload,
    own_offset, other_offset)``: the offsets are how far the sender's
    and the receiver's sequence numbers advanced before the packet
    (each packet advances its sender by ``max(payload, 1)``).  Direction
    starts client → server and flips at every dependent packet (g2 = 0)
    after the first.  ``timing`` is the long flow's quantized gaps in
    seconds, or the short flow's per-gap "dependent" flags, which pick
    one RTT or the back-to-back gap.  ``values`` and ``gaps`` memoize
    the decoded ``f(p)`` values and quantized gaps across one batch.
    """
    steps = []
    dependent = []
    client_to_server = True
    client_advance = server_advance = 0
    for position, value in enumerate(template.values):
        decoded = values.get(value)
        if decoded is None:
            g1, g2, g3 = decode_packet_value(value, config.characterization)
            decoded = values[value] = (
                g2 == 0,
                _FLAGS_FOR_CLASS[g1],
                config.payload_for_class(g3),
            )
        flips, flags, payload = decoded
        if position > 0:
            dependent.append(flips)
            if flips:
                client_to_server = not client_to_server
        if client_to_server:
            steps.append((True, flags, payload, client_advance, server_advance))
            client_advance += max(payload, 1)
        else:
            steps.append((False, flags, payload, server_advance, client_advance))
            server_advance += max(payload, 1)
    if not is_long:
        return steps, dependent
    # Quantize to the codec's resolution so in-memory and serialized
    # containers decompress identically.
    timing = []
    stored = template.gaps
    for position in range(1, len(steps)):
        gap = stored[position - 1]
        increment = gaps.get(gap)
        if increment is None:
            increment = gaps[gap] = quantize_gap(gap) / GAP_UNITS_PER_SECOND
        timing.append(increment)
    return steps, timing


def synthesize_rows(
    specs: Iterable[FlowSpec], config: DecompressorConfig
) -> list[tuple]:
    """The synthesis kernel: every packet of ``specs``' flows, as rows.

    Rows use the replay row layout of :mod:`repro.net.packet`, each flow
    in generation order.  Per flow, randomness is drawn in one fixed
    order from a generator seeded with ``spec.seed``: the client
    address, the client port, the client and server initial sequence
    numbers, then one IP id per packet.  A short flow's dependent packet
    (g2 = 0) follows its predecessor by one RTT (the stored RTT, or
    ``config.default_rtt`` when it is zero), a non-dependent one by
    ``config.back_to_back_gap``; a long flow replays its stored gaps.
    Timestamps are running sums from ``spec.start``, added in packet
    order.  Template facts (:func:`_flow_shape`) and server host
    properties are derived once per call, so the caches never outlive
    one merge batch.
    """
    rows: list[tuple] = []
    extend = rows.extend
    shapes: dict[int, tuple] = {}
    values: dict[int, tuple[bool, int, int]] = {}
    gaps: dict[float, float] = {}
    servers: dict[int, tuple[int, int]] = {}
    rng = random.Random()
    seed, getrandbits, randint = rng.seed, rng.getrandbits, rng.randint
    back_to_back = config.back_to_back_gap
    mask = _MASK32
    for spec in specs:
        template = spec.template
        shape = shapes.get(id(template))
        if shape is None:
            # Keyed by identity (a content hash would walk every value);
            # the entry holds the template, so its id stays unique.
            shape = shapes[id(template)] = (
                template,
                *_flow_shape(template, spec.is_long, config, values, gaps),
            )
        _, steps, timing = shape
        if spec.is_long:
            increments = timing
        else:
            rtt = spec.rtt if spec.rtt > 0 else config.default_rtt
            increments = [rtt if dependent else back_to_back for dependent in timing]

        seed(spec.seed)
        client_ip = random_class_b_or_c(rng)
        client_port = randint(CLIENT_PORT_MIN, CLIENT_PORT_MAX)
        client_seq = getrandbits(32)
        server_seq = getrandbits(32)

        # Host properties are functions of the address alone.
        server_ip = spec.server_ip
        server = servers.get(server_ip)
        if server is None:
            server = servers[server_ip] = host_properties(server_ip)
        server_ttl, server_window = server
        client_ttl, client_window = host_properties(client_ip)

        order = spec.order
        extend(
            [
                (
                    timestamp, client_ip, client_port, server_ip,
                    (client_seq + own) & mask, order, position, SERVER_PORT,
                    flags, payload, (server_seq + other) & mask,
                    getrandbits(16), client_ttl, client_window,
                )
                if client_to_server
                else (
                    timestamp, server_ip, SERVER_PORT, client_ip,
                    (server_seq + own) & mask, order, position, client_port,
                    flags, payload, (client_seq + other) & mask,
                    getrandbits(16), server_ttl, server_window,
                )
                for position, (
                    timestamp,
                    (client_to_server, flags, payload, own, other),
                ) in enumerate(zip(accumulate(increments, initial=spec.start), steps))
            ]
        )
    return rows


def merge_sort_key(packet: PacketRecord) -> tuple:
    """The global packet order of a decompressed trace.

    A replay row (:mod:`repro.net.packet`) leads with this key, then the
    ``FlowSpec.order`` and packet-position tiebreak: a stable sort of
    packets by this key, over flows in time-seq order, is the replay's
    order.
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

    Every packet is materialized: this is the streaming engine
    (:class:`repro.core.replay.StreamingDecompressor`) collected into a
    :class:`Trace`.
    """
    from repro.core.replay import StreamingDecompressor

    engine = StreamingDecompressor(compressed, config)
    return Trace(list(engine.packets()), name=engine.name)
