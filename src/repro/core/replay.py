"""Streaming decompression: replay the datasets in bounded memory.

Every replay path — :class:`StreamingDecompressor`,
:meth:`~repro.archive.reader.ArchiveReader.iter_packets`,
:meth:`~repro.query.engine.QueryEngine.stream_packets`, the store's
``export`` and :func:`~repro.core.decompressor.decompress_trace` —
runs one batch-sort merge:

:func:`merge_row_batches`
    Pops flow specs off a :class:`SpecFeed` until a batch holds
    :data:`REPLAY_BATCH_PACKETS` packets, synthesizes those flows into
    replay rows (:func:`~repro.core.decompressor.synthesize_rows`),
    sorts them together with the rows carried from the last batch, and
    emits every row strictly below the feed's next start bound.  The
    rest is carried: a later flow may still start at or before it.
    Memory is one batch plus the carried rows (plus the compressed
    datasets themselves), not the trace length.

:func:`merge_packet_stream`
    The same merge as :class:`~repro.net.packet.PacketRecord`\\ s, for
    callers that want packets; export packs TSH straight from the rows.

Why every path agrees byte for byte with a global sort of all packets:
a row leads with the key ``(timestamp, src_ip, src_port, dst_ip, seq,
FlowSpec.order, packet position)``, which is unique, so sorting rows is
a total order — the old global stable sort's order, whose ties fell
back to flow position and then packet position.  A sorted row may be
emitted once no unpopped flow can start at or before it, which holds
because per-flow timestamps are nondecreasing and the feed yields specs
in nondecreasing start order with a lower bound on the next one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Protocol

from repro.core.datasets import CompressedTrace
from repro.core.decompressor import (
    DecompressorConfig,
    FlowSpec,
    flow_specs,
    synthesize_flow,  # noqa: F401  (re-exported; perf_ledger's tracer patches it)
    synthesize_rows,
)
from repro.net.packet import PacketRecord, packets_from_rows
from repro.obs import current as obs_current

REPLAY_BATCH_PACKETS = 2048
"""Packets synthesized per merge batch.

A batch takes whole flows, so it stops at the first flow that brings it
to this size.  Rows held at once are one batch plus the rows carried
from the previous one.
"""


@dataclass
class ReplayStats:
    """How much work one streaming replay did — and how bounded it stayed.

    ``peak_open_flows`` counts the flows with rows held at once (a
    batch's new flows plus the flows of its carried rows);
    ``peak_rows_held`` the rows sorted at once and
    ``peak_carried_rows`` the rows a batch carried into the next.
    """

    flows_replayed: int = 0
    packets_emitted: int = 0
    peak_open_flows: int = 0
    peak_rows_held: int = 0
    peak_carried_rows: int = 0

    def reset(self) -> None:
        self.flows_replayed = 0
        self.packets_emitted = 0
        self.peak_open_flows = 0
        self.peak_rows_held = 0
        self.peak_carried_rows = 0


class SpecFeed(Protocol):
    """A peekable stream of :class:`FlowSpec` in nondecreasing start order.

    ``next_start_bound`` must return a lower bound on every future
    spec's start (or ``None`` when exhausted) *without* doing expensive
    work; ``pop`` returns the next spec (or ``None`` when exhausted) and
    may do the expensive part — e.g. decode the next archive segment.
    ``at_run_boundary`` is true when the next ``pop`` would start such
    expensive work; a merge batch stops there instead of crossing it.
    """

    def next_start_bound(self) -> float | None: ...

    def pop(self) -> FlowSpec | None: ...

    def at_run_boundary(self) -> bool: ...


class IteratorSpecFeed:
    """Adapt a plain spec iterator (one decoded container) to the feed."""

    def __init__(self, specs: Iterator[FlowSpec]) -> None:
        self._specs = specs
        self._buffered: FlowSpec | None = None
        self._done = False

    def next_start_bound(self) -> float | None:
        if self._buffered is None and not self._done:
            self._buffered = next(self._specs, None)
            self._done = self._buffered is None
        return None if self._buffered is None else self._buffered.start

    def pop(self) -> FlowSpec | None:
        if self.next_start_bound() is None:
            return None
        spec, self._buffered = self._buffered, None
        return spec

    def at_run_boundary(self) -> bool:
        return False  # one decoded container: nothing left to decode


def merge_row_batches(
    feed: SpecFeed,
    config: DecompressorConfig,
    stats: ReplayStats | None = None,
) -> Iterator[list[tuple]]:
    """Sorted batches of replay rows, in global order across batches.

    Each round pops specs until the batch holds
    :data:`REPLAY_BATCH_PACKETS` packets, the feed ends, or the next pop
    would open a new segment run (a batch never decodes ahead of the
    frontier), then synthesizes, sorts with the carried rows, and
    yields the rows below the feed's next start bound.  Every batch
    pops at least one spec, so the merge always advances.
    """
    stats = stats if stats is not None else ReplayStats()
    registry = obs_current()
    specs_timer = registry.timer(
        "stage.replay.specs", "wall time resolving (and decoding) flow specs"
    )
    synthesis_timer = registry.timer(
        "stage.replay.synthesis", "wall time synthesizing replay rows"
    )
    order_timer = registry.timer(
        "stage.replay.order", "wall time sorting and splitting replay batches"
    )
    batch_counter = registry.counter("replay.batches", "replay merge batches sorted")
    packet_counter = registry.counter("replay.packets", "replay packets emitted")
    carried: list[tuple] = []
    while True:
        specs: list[FlowSpec] = []
        packets = 0
        with specs_timer.time():
            bound = feed.next_start_bound()
            while bound is not None and packets < REPLAY_BATCH_PACKETS:
                if specs and feed.at_run_boundary():
                    break
                spec = feed.pop()
                if spec is None:
                    break
                specs.append(spec)
                packets += len(spec.template.values)
                bound = feed.next_start_bound()
        if not specs and not carried:
            return
        with synthesis_timer.time():
            rows = synthesize_rows(specs, config)
        with order_timer.time():
            open_flows = len(specs) + len({row[5] for row in carried})
            rows += carried
            rows.sort()
            cut = len(rows) if bound is None else bisect_left(rows, (bound,))
            carried = rows[cut:]
            del rows[cut:]
        stats.flows_replayed += len(specs)
        stats.packets_emitted += cut
        stats.peak_open_flows = max(stats.peak_open_flows, open_flows)
        stats.peak_rows_held = max(stats.peak_rows_held, cut + len(carried))
        stats.peak_carried_rows = max(stats.peak_carried_rows, len(carried))
        batch_counter.inc()
        packet_counter.inc(cut)
        if rows:
            yield rows


def packets_from_batches(batches: Iterator[list[tuple]]) -> Iterator[PacketRecord]:
    """The packets of a row-batch stream, one batch materialized at a time."""
    for rows in batches:
        yield from packets_from_rows(rows)


def merge_packet_stream(
    feed: SpecFeed,
    config: DecompressorConfig,
    stats: ReplayStats | None = None,
) -> Iterator[PacketRecord]:
    """:func:`merge_row_batches` as a packet stream, in global order."""
    return packets_from_batches(merge_row_batches(feed, config, stats))


class StreamingDecompressor:
    """Bounded-memory decompression of one :class:`CompressedTrace`.

    Iterate :meth:`packets` (or the instance itself) to receive the
    synthetic trace one packet at a time, or :meth:`row_batches` for
    the sorted replay rows the exporters pack directly.  ``stats``
    describes the last (or in-progress) replay.

    The compressed datasets themselves (templates, addresses, time-seq)
    stay in memory — they are the *compressed* form, a few percent of
    the trace — but no packet list is ever materialized.
    """

    def __init__(
        self,
        compressed: CompressedTrace,
        config: DecompressorConfig | None = None,
    ) -> None:
        compressed.validate()
        self._compressed = compressed
        self.config = config or DecompressorConfig()
        self.stats = ReplayStats()

    @property
    def name(self) -> str:
        """The decompressed trace's name."""
        return f"{self._compressed.name}-decompressed"

    def row_batches(self) -> Iterator[list[tuple]]:
        """A fresh row-batch stream; each call restarts stats and replay."""
        self.stats.reset()
        feed = IteratorSpecFeed(flow_specs(self._compressed, self.config))
        return merge_row_batches(feed, self.config, self.stats)

    def packets(self) -> Iterator[PacketRecord]:
        """A fresh packet stream; each call restarts stats and replay."""
        return packets_from_batches(self.row_batches())

    def __iter__(self) -> Iterator[PacketRecord]:
        return self.packets()
