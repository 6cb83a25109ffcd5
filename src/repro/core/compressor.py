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

This module holds what every run shares: the tunables
(:class:`CompressorConfig`), the counters (:class:`CompressorStats`),
the equation-4 search (:class:`TemplateMatcher`) and the one-call
:func:`compress_trace`.  The engine itself is
:class:`~repro.core.columnar.ColumnarFlowCompressor`, driven through
:class:`~repro.core.streaming.StreamingCompressor`; the paper's linked
list survives as the readable reference in ``tests/compress_oracle.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.core.datasets import CompressedTrace, ShortFlowTemplate
from repro.flows.characterize import CharacterizationConfig
from repro.flows.distance import (
    MAX_PACKET_DISTANCE,
    SIMILARITY_PERCENT,
    vector_distance,
    similarity_threshold,
)
from repro.net.packet import PacketRecord
from repro.trace.trace import Trace


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
        if not self.idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive: {self.idle_timeout}")


@dataclass
class CompressorStats:
    """Counters for introspection and the evaluation harness.

    Plain ints on purpose: these are bumped on the per-packet hot path,
    so they must stay cheaper than any registry lookup.  The streaming
    front-end folds them into the :mod:`repro.obs` registry once, at
    ``finish()`` — the counters stay exact and the hot path stays free.
    ``flows_evicted`` counts flows closed by the idle-eviction scan (a
    subset of ``flows_closed``).
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

        Called by :class:`~repro.core.streaming.StreamingCompressor`
        once per engine it retires (at ``finish`` and at each sealed
        ``flush_segment``) — never by the engine itself, so a run cannot
        double-publish.  Zero increments still register the counters,
        so a run's metric set is stable regardless of the trace content.
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
    One matcher serves one compressed trace (a file or an archive
    segment): the engine's short-flow close path queries it.

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


def compress_trace(
    trace: Trace | Iterable[PacketRecord],
    config: CompressorConfig | None = None,
    *,
    name: str | None = None,
) -> CompressedTrace:
    """Compress a whole trace, or any packet iterable, in one call.

    A thin wrapper over the one engine: the streaming compressor fed
    the whole packet sequence (an iterable is consumed a chunk at a
    time, never materialized), which also publishes the ``compress.*``
    counters at ``finish``.  ``name`` defaults to the trace's name, or
    ``"compressed"`` for a bare iterable.
    """
    # Imported here: the columnar engine imports this module.
    from repro.core.streaming import StreamingCompressor

    if isinstance(trace, Trace):
        name, packets = name or trace.name, trace.packets
    else:
        name, packets = name or "compressed", trace
    compressor = StreamingCompressor(config, name=name)
    compressor.feed(packets)
    return compressor.finish()
