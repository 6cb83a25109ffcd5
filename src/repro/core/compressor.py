"""The online flow-clustering compressor (section 3).

The algorithm, as the paper describes it:

1. Packets stream in.  A packet whose 5-tuple is unknown opens a new node
   at the end of the active-flow linked list.
2. Each packet is mapped to its ``f(p_i)`` value (section 2) and appended
   to its node's packet sub-list.
3. When a FIN or RST arrives (or the trace ends), the flow closes:

   * **short flow** (``2..50`` packets by default) — search the
     ``short-flows-template`` dataset for an identical or similar
     (equation 4) vector of the same length; on a miss, the vector founds
     a new template ("the center of a new cluster"); either way a
     ``time-seq`` record is written with the flow's first timestamp, the
     template index, its estimated RTT and the destination-address index.
   * **long flow** (``> 50`` packets) — no search ("the probability of
     find two identical V_f vectors is really very low"); the flow's
     values *and inter-packet times* go verbatim into
     ``long-flows-template``.

The template search is accelerated with a by-length bucket index — the
paper's search is also restricted to same-``n`` templates since distance
is only defined for equal lengths.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable

from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)
from repro.core.errors import CompressionError
from repro.core.linkedlist import ActiveFlowList, FlowNode
from repro.flows.characterize import CharacterizationConfig, packet_value
from repro.flows.model import Direction, FlowPacket
from repro.flows.distance import (
    MAX_PACKET_DISTANCE,
    SIMILARITY_PERCENT,
    vector_distance,
    similarity_threshold,
)
from repro.net.packet import PacketRecord
from repro.net.tcp import is_flow_terminator
from repro.trace.trace import Trace

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompressorConfig:
    """Tunables of the compressor; defaults are the paper's constants."""

    short_flow_max: int = 50
    similarity_percent: float = SIMILARITY_PERCENT
    per_packet_max: int = MAX_PACKET_DISTANCE
    characterization: CharacterizationConfig = CharacterizationConfig()
    idle_timeout: float = 64.0

    def __post_init__(self) -> None:
        if self.short_flow_max < 1:
            raise ValueError(f"short_flow_max must be >= 1: {self.short_flow_max}")
        if self.idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {self.idle_timeout}")


@dataclass
class CompressorStats:
    """Counters for introspection and the evaluation harness.

    Plain ints on purpose: these are bumped on the per-packet hot path,
    so they must stay cheaper than any registry lookup.  The streaming
    front-end folds them into the :mod:`repro.obs` registry once, at
    ``finish()`` — the counters stay exact and the hot path stays free.
    ``flows_evicted`` counts flows closed by the idle-eviction scan (a
    subset of ``flows_closed``); both engines maintain it identically,
    which the engine-parity metrics test pins.
    """

    packets: int = 0
    flows_closed: int = 0
    short_flows: int = 0
    long_flows: int = 0
    template_hits: int = 0
    template_misses: int = 0
    flows_evicted: int = 0

    def hit_ratio(self) -> float:
        """Fraction of short flows absorbed by an existing template."""
        total = self.template_hits + self.template_misses
        return self.template_hits / total if total else 0.0

    def publish(self, registry) -> None:
        """Fold these totals into a :class:`~repro.obs.MetricsRegistry`.

        Called exactly once per compression run by whichever front-end
        owns the run (batch ``compress_trace``, the streaming
        compressor's ``finish``, or a parallel shard) — never by the
        engine itself, so wrapped engines cannot double-publish.
        """
        registry.counter("compress.packets", "packets compressed").inc(
            self.packets
        )
        registry.counter("compress.flows", "flows closed (short + long)").inc(
            self.flows_closed
        )
        registry.counter(
            "compress.flows.short", "flows routed to the short-flow dataset"
        ).inc(self.short_flows)
        registry.counter(
            "compress.flows.long", "flows routed to the long-flow dataset"
        ).inc(self.long_flows)
        registry.counter(
            "compress.template.hits", "short flows absorbed by an existing template"
        ).inc(self.template_hits)
        registry.counter(
            "compress.template.misses", "short flows founding a new template"
        ).inc(self.template_misses)
        registry.counter(
            "compress.evictions", "flows closed by the idle-eviction scan"
        ).inc(self.flows_evicted)


class TemplateMatcher:
    """Equation-4 similarity search over a short-template dataset.

    Buckets template indices by vector length — distance is only defined
    for equal-length vectors — and scans a bucket in insertion order, so
    search results (and therefore template numbering) are deterministic.
    Shared by the compressor's close path and the parallel shard merge.

    Positive answers are memoized per vector.  Templates are immutable
    and buckets only grow at the end, so the first match a scan finds
    for a vector stays its first match for the matcher's lifetime.  A
    miss is never cached: a later :meth:`add` may create a match.
    """

    def __init__(
        self, templates: list[ShortFlowTemplate], config: CompressorConfig
    ) -> None:
        self._templates = templates
        self._config = config
        self._by_length: dict[int, list[int]] = defaultdict(list)
        for index, template in enumerate(templates):
            self._by_length[template.n].append(index)
        self._found: dict[tuple[int, ...], int] = {}
        self._missed: tuple[int, ...] | None = None

    def find(self, vector: tuple[int, ...]) -> int | None:
        """First template of the same length within d_max (eq. 4).

        Exact duplicates always merge, even at a 0% threshold where the
        strict "lower than" rule would otherwise reject them.
        """
        index = self._found.get(vector)
        if index is not None:
            return index
        threshold = similarity_threshold(
            len(vector), self._config.similarity_percent, self._config.per_packet_max
        )
        for index in self._by_length.get(len(vector), ()):
            center = self._templates[index].values
            distance = vector_distance(center, vector)
            if distance == 0 or distance < threshold:
                self._found[vector] = index
                return index
        self._missed = vector
        return None

    def add(self, vector: tuple[int, ...]) -> int:
        """Append ``vector`` as a new template; returns its index."""
        index = len(self._templates)
        self._templates.append(ShortFlowTemplate(vector))
        self._by_length[len(vector)].append(index)
        if vector == self._missed:
            # The last scan for this vector found nothing, so the template
            # just appended is its first match.
            self._found[vector] = index
        self._missed = None
        return index


class FlowClusterCompressor:
    """Streaming compressor; feed packets, then :meth:`finish`."""

    def __init__(
        self,
        config: CompressorConfig | None = None,
        name: str = "compressed",
        base_time: float | None = None,
    ) -> None:
        self.config = config or CompressorConfig()
        self.stats = CompressorStats()
        self._active = ActiveFlowList()
        self._last_seen: dict = {}
        self._output = CompressedTrace(name=name)
        self._matcher = TemplateMatcher(self._output.short_templates, self.config)
        self._base_time = base_time
        # An explicit base is an external clock (archive epoch, shard
        # anchor) and stays fixed; an auto-derived base must track the
        # *earliest* timestamp, not the first packet seen — mildly
        # out-of-order traces would otherwise clamp early flows to 0
        # and reorder them on decompression.
        self._explicit_base = base_time is not None
        self._earliest_seen: float | None = None
        self._finished = False

    @property
    def output(self) -> CompressedTrace:
        """The datasets built so far (complete only after :meth:`finish`)."""
        return self._output

    @property
    def active_flows(self) -> int:
        """Flows currently open — the streaming working-set size."""
        return len(self._active)

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet of the input trace (timestamp order)."""
        if self._finished:
            raise CompressionError("compressor already finished")
        if self._base_time is None:
            self._base_time = packet.timestamp
        elif not self._explicit_base and packet.timestamp < self._base_time:
            self._rebase(packet.timestamp)
        key = packet.five_tuple().canonical()
        self._expire_idle(packet.timestamp, exclude=key)
        self.stats.packets += 1

        node = self._active.find(key)
        if node is None:
            node = self._active.insert(packet.five_tuple(), packet.timestamp)

        direction = (
            Direction.CLIENT_TO_SERVER
            if packet.five_tuple() == node.client_tuple
            else Direction.SERVER_TO_CLIENT
        )
        previous = node.entries[-1].direction if node.entries else None
        value = packet_value(
            FlowPacket(packet, direction), previous, self.config.characterization
        )
        node.append_packet(packet.timestamp, value, direction)
        self._last_seen[node.key] = packet.timestamp
        if self._earliest_seen is None or packet.timestamp < self._earliest_seen:
            self._earliest_seen = packet.timestamp

        if is_flow_terminator(packet.flags):
            self._active.remove(node)
            self._last_seen.pop(node.key, None)
            self._close_flow(node)

    def finish(self) -> CompressedTrace:
        """Flush open flows and return the completed datasets."""
        if not self._finished:
            for node in self._active.pop_all():
                self._last_seen.pop(node.key, None)
                self._close_flow(node)
            self._finished = True
        return self._output

    # -- internals -------------------------------------------------------

    def _rebase(self, new_base: float) -> None:
        """Lower the auto-derived base to a newly seen earlier timestamp.

        Flows already closed were recorded against the old (too late)
        base; shift their time-seq offsets so every record stays
        relative to the trace's true earliest packet.  Mild reordering
        only ever lowers the base within the first reorder window, so
        this rewrite is rare and cheap in practice.
        """
        delta = self._base_time - new_base
        self._base_time = new_base
        self._output.time_seq[:] = [
            replace(record, timestamp=record.timestamp + delta)
            for record in self._output.time_seq
        ]

    def _expire_idle(self, now: float, exclude=None) -> None:
        # ``_earliest_seen`` is a lower bound on every live flow's last
        # activity (updates only raise values), so when even the bound is
        # fresh no flow can be stale and the O(active-flows) scan is
        # skipped — the common case on dense traces.
        #
        # ``exclude`` is the incoming packet's flow key: that flow is
        # provably active *at* ``now``, so even when its previous packet
        # sits just past the idle horizon it must not be evicted and
        # split in two — eviction applies strictly to flows other than
        # the one delivering the clock tick.  Trade-off: a flow resuming
        # after an arbitrarily long quiet spell stays whole, and a long
        # flow's in-flow gap then saturates at the codec's u16 bound
        # (6.5535 s) like any other over-limit gap — timing fidelity
        # for such outliers is bounded by the codec, not by a split.
        timeout = self.config.idle_timeout
        if self._earliest_seen is None or now - self._earliest_seen <= timeout:
            return
        stale = [
            key
            for key, last in self._last_seen.items()
            if now - last > timeout and key != exclude
        ]
        for key in stale:
            node = self._active.find(key)
            if node is not None:
                self._active.remove(node)
                self.stats.flows_evicted += 1
                self._close_flow(node)
            del self._last_seen[key]
        if stale and _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "idle eviction at t=%.6f: closed %d stale flow(s), %d active",
                now,
                len(stale),
                len(self._active),
            )
        self._earliest_seen = min(self._last_seen.values(), default=None)

    def _close_flow(self, node: FlowNode) -> None:
        """Route a finished flow to the short or long dataset."""
        if node.packet_count == 0:
            return
        self.stats.flows_closed += 1
        if node.packet_count <= self.config.short_flow_max:
            self._close_short(node)
        else:
            self._close_long(node)

    def _close_short(self, node: FlowNode) -> None:
        self.stats.short_flows += 1
        vector = node.vector()
        index = self._matcher.find(vector)
        if index is None:
            index = self._matcher.add(vector)
            self.stats.template_misses += 1
        else:
            self.stats.template_hits += 1
        self._append_time_seq(node, DatasetId.SHORT, index, rtt=node.estimate_rtt())

    def _close_long(self, node: FlowNode) -> None:
        self.stats.long_flows += 1
        template = LongFlowTemplate(
            values=node.vector(), gaps=tuple(node.inter_packet_gaps())
        )
        index = len(self._output.long_templates)
        self._output.long_templates.append(template)
        self._append_time_seq(node, DatasetId.LONG, index, rtt=0.0)

    def _append_time_seq(
        self, node: FlowNode, dataset: DatasetId, template_index: int, rtt: float
    ) -> None:
        base = self._base_time if self._base_time is not None else 0.0
        address_index = self._output.addresses.intern(node.dst_ip)
        # An auto-derived base tracks the earliest packet seen, so the
        # offset is never negative; only an explicit base (archive epoch,
        # shard anchor) can postdate a flow start, and clamping to that
        # externally chosen epoch is the documented behavior.
        self._output.time_seq.append(
            TimeSeqRecord(
                timestamp=max(0.0, node.first_timestamp - base),
                dataset=dataset,
                template_index=template_index,
                address_index=address_index,
                rtt=max(0.0, rtt),
            )
        )
        self._output.original_packet_count += node.packet_count


def compress_trace(
    trace: Trace | Iterable[PacketRecord], config: CompressorConfig | None = None
) -> CompressedTrace:
    """Compress a whole trace in one call."""
    from repro.obs import current as obs_current

    name = trace.name if isinstance(trace, Trace) else "compressed"
    compressor = FlowClusterCompressor(config, name=name)
    packets = trace.packets if isinstance(trace, Trace) else trace
    for packet in packets:
        compressor.add_packet(packet)
    output = compressor.finish()
    # This front-end owns the run, so the batch path reports the same
    # compress.* counters the streaming front-end does.
    compressor.stats.publish(obs_current())
    return output
