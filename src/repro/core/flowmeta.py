"""Flow metadata without packet synthesis — the analytics fast path.

The compressed form stores only *destination* addresses; every other
per-flow identity field is re-drawn at decompression time from a
deterministic RNG seeded by :func:`~repro.core.decompressor.flow_seed`.
That determinism is usually framed as a replay guarantee, but it cuts
the other way too: the source address of a flow is fully determined by
its ``time-seq`` record, so (src, dst, packets, bytes, time bounds) can
be recovered by replaying just the *first RNG draw* per flow — no
:class:`~repro.net.packet.PacketRecord` is ever built.

Everything else a traffic matrix needs is a pure function of the flow's
*template*, shared by every flow in its cluster:

* per-direction packet counts — the first packet travels client →
  server and the direction flips exactly at the dependent (g2 = 0)
  steps;
* per-direction byte totals — each packet's payload class (g3) maps to
  a representative size;
* the duration skeleton — a long flow replays its stored (quantized)
  gaps, a short flow advances one RTT per dependent step and one
  back-to-back gap per non-dependent step.

:class:`TemplateProfile` caches those per-template quantities once per
(template, config); :func:`flow_records` then walks ``time-seq`` exactly
like :func:`~repro.core.decompressor.flow_specs` (same identity tuple,
same occurrence ordinals, so filtered walks keep the surviving flows'
seeds stable) and emits one :class:`FlowRecord` per flow at O(1) RNG
cost.  End timestamps are accumulated with the same left-to-right float
additions the synthesizer performs, so they equal the synthesized last
packet's timestamp bit-for-bit.

:func:`flow_records_by_decode` is the differential twin: the same
records derived from actually synthesized packets.  The property suite
pins the two byte-identical; the analytics layer uses the decode twin as
its "stats via full decompression" baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from repro.core.codec import (
    GAP_UNITS_PER_SECOND,
    RTT_UNITS_PER_SECOND,
    TIMESTAMP_UNITS_PER_SECOND,
    quantize_gap,
)
from repro.core.datasets import (
    CompressedTrace,
    LongFlowTemplate,
    ShortFlowTemplate,
)
from repro.core.decompressor import (
    SERVER_PORT,
    DecompressorConfig,
    flow_identities,
    flow_seed,
    flow_specs,
    synthesize_flow,
)
from repro.flows.characterize import decode_packet_value
from repro.net.ip import random_class_b_or_c

__all__ = [
    "FlowRecord",
    "TemplateProfile",
    "flow_records",
    "flow_records_by_decode",
    "profile_template",
]


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One flow's metadata, exactly as a full replay would produce it.

    ``start``/``end`` are the flow's first and last packet timestamps
    (seconds relative to the container base / archive epoch, quantized
    start, synthesis-accumulated end); ``src`` is the synthesized client
    address, ``dst`` the stored destination.  ``packets_fwd``/``bytes_fwd``
    count the client → server direction, ``*_rev`` the reverse;
    ``packets``/``bytes`` are their sums.  ``rtt`` is the stored
    (quantized) RTT — 0.0 for long flows.
    """

    segment: int
    start: float
    end: float
    src: int
    dst: int
    is_long: bool
    packets: int
    bytes: int
    packets_fwd: int
    packets_rev: int
    bytes_fwd: int
    bytes_rev: int
    rtt: float


@dataclass(frozen=True, slots=True)
class TemplateProfile:
    """Per-template aggregates every member flow shares.

    ``dep_steps`` marks, for positions 1..n-1, whether the step is
    dependent (g2 = 0: direction flip, short flows wait one RTT);
    ``gap_seconds`` holds a long template's quantized inter-packet gaps
    in seconds (empty for short templates).  Byte totals already apply
    the config's representative payload sizes.
    """

    n: int
    packets_fwd: int
    packets_rev: int
    bytes_fwd: int
    bytes_rev: int
    dep_steps: tuple[bool, ...]
    gap_seconds: tuple[float, ...]


@lru_cache(maxsize=4096)
def profile_template(
    template: ShortFlowTemplate | LongFlowTemplate,
    is_long: bool,
    config: DecompressorConfig,
) -> TemplateProfile:
    """Fold one template into its :class:`TemplateProfile`.

    Mirrors the direction/payload logic of
    :func:`~repro.core.decompressor._synthesize_flow_packets` without
    touching timestamps or the RNG.  Cached on content: segments of one
    archive (and runs over the same traffic) share cluster centers, so
    the fold happens once per distinct (template, config) pair.
    """
    packets_fwd = packets_rev = 0
    bytes_fwd = bytes_rev = 0
    dep_steps: list[bool] = []
    client_to_server = True
    for position, value in enumerate(template.values):
        g1, g2, g3 = decode_packet_value(value, config.characterization)
        del g1  # flags do not affect matrix statistics
        if position > 0:
            dependent = g2 == 0
            dep_steps.append(dependent)
            if dependent:
                client_to_server = not client_to_server
        payload = config.payload_for_class(g3)
        if client_to_server:
            packets_fwd += 1
            bytes_fwd += payload
        else:
            packets_rev += 1
            bytes_rev += payload
    gap_seconds: tuple[float, ...] = ()
    if is_long and template.n > 1:
        gap_seconds = tuple(
            quantize_gap(gap) / GAP_UNITS_PER_SECOND
            for gap in template.gaps[: template.n - 1]
        )
    return TemplateProfile(
        n=template.n,
        packets_fwd=packets_fwd,
        packets_rev=packets_rev,
        bytes_fwd=bytes_fwd,
        bytes_rev=bytes_rev,
        dep_steps=tuple(dep_steps),
        gap_seconds=gap_seconds,
    )


def flow_records(
    compressed: CompressedTrace,
    config: DecompressorConfig | None = None,
    *,
    segment: int = 0,
    row_filter: Callable[[int], bool] | None = None,
) -> Iterator[FlowRecord]:
    """Yield flow metadata in timestamp order without synthesizing packets.

    The walk is :func:`~repro.core.decompressor.flow_identities`, the
    one :func:`~repro.core.decompressor.flow_specs` takes (so
    ``row_filter`` never perturbs surviving flows' seeds), but the
    only RNG work per flow is the one draw that decides the client
    address.  Start timestamps are nondecreasing, the
    invariant the streaming window aggregator relies on.

    End timestamps add the template's steps to the start one at a time,
    left to right — the exact float operations the synthesizer performs
    (sum-then-add would round differently).
    """
    config = config or DecompressorConfig()
    config_seed = config.seed
    default_rtt = config.default_rtt
    back_to_back = config.back_to_back_gap
    templates = (compressed.short_templates, compressed.long_templates)
    # Per (is_long, template index): the profile's fields a record
    # needs, read once per segment instead of once per flow.
    shapes: dict[tuple[bool, int], tuple] = {}
    # One reused generator, fully re-seeded per flow — state cannot
    # leak between flows, and the per-flow allocation disappears.  The
    # seed goes straight to the C base class: for an int the Python
    # wrapper only type-checks and clears the gauss cache, which the
    # address draw never reads.
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    for _, identity, occurrence in flow_identities(compressed, row_filter):
        timestamp_units, is_long, template_index, server_ip, rtt_units = identity
        key = (is_long, template_index)
        shape = shapes.get(key)
        if shape is None:
            template = templates[is_long][template_index]
            profile = profile_template(template, is_long, config)
            shape = shapes[key] = (
                profile.n,
                profile.bytes_fwd + profile.bytes_rev,
                profile.packets_fwd,
                profile.packets_rev,
                profile.bytes_fwd,
                profile.bytes_rev,
                profile.gap_seconds if is_long else profile.dep_steps,
            )
        packets, byte_count, packets_fwd, packets_rev, bytes_fwd, bytes_rev, steps = (
            shape
        )
        # The client address is the synthesizer's first draw; nothing
        # before it consumes entropy, so one draw recovers it exactly.
        reseed(flow_seed(config_seed, *identity, occurrence))
        client_ip = random_class_b_or_c(rng)
        start = end = timestamp_units / TIMESTAMP_UNITS_PER_SECOND
        rtt = rtt_units / RTT_UNITS_PER_SECOND
        if is_long:
            for gap in steps:
                end += gap
        else:
            dependent_gap = rtt if rtt > 0 else default_rtt
            for dependent in steps:
                end += dependent_gap if dependent else back_to_back
        yield FlowRecord(
            segment,
            start,
            end,
            client_ip,
            server_ip,
            is_long,
            packets,
            byte_count,
            packets_fwd,
            packets_rev,
            bytes_fwd,
            bytes_rev,
            rtt,
        )


def flow_records_by_decode(
    compressed: CompressedTrace,
    config: DecompressorConfig | None = None,
    *,
    segment: int = 0,
    row_filter: Callable[[int], bool] | None = None,
) -> Iterator[FlowRecord]:
    """The differential twin: the same records via full packet synthesis.

    Every flow's packets are materialized and folded back down to one
    :class:`FlowRecord`.  Direction is recovered from the server port
    (client ports start at 1024, so ``dst_port == 80`` identifies the
    client → server direction unambiguously).  This is the "statistics
    via full decompression" baseline the fast path is benchmarked and
    differentially tested against.
    """
    config = config or DecompressorConfig()
    for spec in flow_specs(
        compressed, config, order_prefix=(segment,), row_filter=row_filter
    ):
        packets_fwd = packets_rev = 0
        bytes_fwd = bytes_rev = 0
        src = spec.server_ip  # overwritten by the first forward packet
        end = spec.start
        for packet in synthesize_flow(spec, config):
            if packet.timestamp > end:
                end = packet.timestamp
            if packet.dst_port == SERVER_PORT:
                packets_fwd += 1
                bytes_fwd += packet.payload_len
                src = packet.src_ip
            else:
                packets_rev += 1
                bytes_rev += packet.payload_len
        yield FlowRecord(
            segment=segment,
            start=spec.start,
            end=end,
            src=src,
            dst=spec.server_ip,
            is_long=spec.is_long,
            packets=packets_fwd + packets_rev,
            bytes=bytes_fwd + bytes_rev,
            packets_fwd=packets_fwd,
            packets_rev=packets_rev,
            bytes_fwd=bytes_fwd,
            bytes_rev=bytes_rev,
            rtt=spec.rtt,
        )
