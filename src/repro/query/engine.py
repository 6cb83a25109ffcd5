"""Predicate evaluation over an archive: plan on the index, decode late.

The engine walks the archive footer first, skips every segment whose
index entry cannot match the predicate, and scans the survivors one at
a time.  The same engine runs over a ``.fctc`` container or a raw
trace through a one-segment
:meth:`~repro.archive.reader.ArchiveReader.unindexed` reader; that
segment has no index, so it is never pruned.  Matching is evaluated
directly against ``time-seq`` records and the template/address
datasets — no packet is ever synthesized — and
results stream out as :class:`FlowSummary` rows.  :class:`QueryStats`
records how much work the index saved (segments and bytes scanned vs.
total), which the benchmarks and the acceptance tests assert on.

:meth:`QueryEngine.run` and the analytics path
(:meth:`QueryEngine.iter_flow_records` with ``method="index"``) scan
:class:`SegmentView` objects from the reader's bounded view cache
(:meth:`~repro.archive.reader.ArchiveReader.segment_view`): each
segment is decoded once per session — a view keeps its decode until
its flow records are derived, so a query and a later stats call share
it — its summaries and records derived once, and every later call
filters the cached rows.  The
verbs that need templates or packets — :meth:`QueryEngine.filter_to`,
:meth:`QueryEngine.stream_packets` and ``method="decode"`` — decode
their segments every time.

:meth:`QueryEngine.filter_to` reuses the same plan to materialize a filtered
sub-archive: each matching segment's selected records are re-packed
(templates and addresses re-indexed) and written through the ordinary
:class:`~repro.archive.writer.ArchiveWriter` machinery, preserving the
source epoch and segment boundaries.

:meth:`QueryEngine.stream_packets` goes one level deeper than
:class:`FlowSummary` rows: it *replays* the matching flows, streaming
their synthetic packets in global time order through the same
bounded-memory merge the archive replay uses — segments the index rules
out are never decoded, and non-matching flows inside a decoded segment
are skipped without synthesizing a packet.  Because occurrence ordinals
are counted over the full record walk (see
:func:`~repro.core.decompressor.flow_specs`), a filtered stream emits
exactly the packets the full replay would for those flows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from repro.archive.format import SegmentIndexEntry
from repro.archive.reader import ArchiveReader, ArchiveSpecFeed, segment_runs
from repro.archive.writer import ArchiveWriter
from repro.core.backends import backend_for_tag
from repro.core.codec import SECTION_NAMES, validate_backend_request
from repro.core.datasets import CompressedTrace, DatasetId, TimeSeqRecord
from repro.core.decompressor import DecompressorConfig, FlowSpec, flow_specs
from repro.core.flowmeta import (
    FlowRecord,
    flow_records,
    flow_records_by_decode,
)
from repro.core.replay import merge_row_batches, packets_from_batches
from repro.net.packet import PacketRecord
from repro.obs import current as obs_current
from repro.query.predicates import MatchAll, Predicate, TimeRange

_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class FlowSummary:
    """One matching flow, resolved from its time-seq record.

    ``timestamp`` and ``rtt`` are seconds (timestamp relative to the
    archive epoch); ``packet_count`` is the flow's template length;
    ``destination`` is the 32-bit destination address.
    """

    segment: int
    timestamp: float
    kind: DatasetId
    template_index: int
    packet_count: int
    destination: int
    rtt: float


@dataclass
class QueryStats:
    """How much of the archive a query actually touched."""

    segments_total: int = 0
    segments_matched: int = 0  # index survivors reached (a limit stops early)
    segments_decoded: int = 0  # survivors scanned, from a decode or a cached view
    bytes_total: int = 0
    bytes_decoded: int = 0
    flows_scanned: int = 0
    flows_matched: int = 0

    def summary_lines(self) -> list[str]:
        return [
            f"segments decoded : {self.segments_decoded}/{self.segments_total}"
            f" (index matched {self.segments_matched})",
            f"bytes decoded    : {self.bytes_decoded}/{self.bytes_total}",
            f"flows matched    : {self.flows_matched}/{self.flows_scanned} scanned",
        ]

    def publish(self) -> None:
        """Fold this query's work accounting into the active obs registry."""
        registry = obs_current()
        registry.counter("query.runs", "queries evaluated").inc()
        registry.counter(
            "query.segments_pruned", "segments the index ruled out undecoded"
        ).inc(self.segments_total - self.segments_matched)
        registry.counter(
            "query.segments_decoded", "index survivors scanned to answer queries"
        ).inc(self.segments_decoded)
        registry.counter(
            "query.bytes_decoded", "segment bytes decoded to answer queries"
        ).inc(self.bytes_decoded)
        registry.counter("query.flows_scanned", "flow records evaluated").inc(
            self.flows_scanned
        )
        registry.counter("query.flows_matched", "flow records matched").inc(
            self.flows_matched
        )


@dataclass(frozen=True)
class WindowProbe:
    """One time window's cost estimate, from the footer index alone.

    ``segments_overlapping`` index entries could hold flows starting in
    ``[start, end]`` — a real windowed scan would decode at most those;
    ``bytes_to_decode`` is their serialized total and
    ``flows_upper_bound`` the sum of their flow counts (an upper bound:
    a segment usually straddles more than one window).
    """

    index: int
    start: float
    end: float
    segments_overlapping: int
    bytes_to_decode: int
    flows_upper_bound: int


@dataclass
class QueryResult:
    """Materialized query output: the rows plus the work accounting."""

    flows: list[FlowSummary] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)


def flow_summaries(
    segment: int, compressed: CompressedTrace
) -> Iterator[FlowSummary]:
    """Resolve every time-seq record of one decoded segment."""
    for record in compressed.time_seq:
        yield summarize_record(segment, compressed, record)


def summarize_record(
    segment: int, compressed: CompressedTrace, record: TimeSeqRecord
) -> FlowSummary:
    """Resolve one ``time-seq`` record into its :class:`FlowSummary` row."""
    return FlowSummary(
        segment=segment,
        timestamp=record.timestamp,
        kind=record.dataset,
        template_index=record.template_index,
        packet_count=compressed.packets_for(record),
        destination=compressed.addresses.lookup(record.address_index),
        rtt=record.rtt,
    )


class SegmentView:
    """One decoded segment's flows, kept so repeat calls skip the decode.

    ``flows`` holds the segment's :class:`FlowSummary` rows in file
    (``time-seq``) order — what :meth:`QueryEngine.run` yields.  Per
    :class:`~repro.core.decompressor.DecompressorConfig`, :meth:`extend`
    adds the segment's :class:`~repro.core.flowmeta.FlowRecord` list in
    ``sorted_time_seq`` order, each record paired with the same summary
    object.  Records are derived from the whole segment: occurrence
    ordinals count over the full walk either way, so filtering the
    cached pairs yields exactly the records a filtered walk would.

    A view keeps the decoded trace it was built from until its first
    records are derived, then drops it: a segment a query decoded
    first gives stats its records without a second decode.  After
    that, a config whose records are not derived yet costs one more
    decode.
    """

    __slots__ = ("segment", "flows", "_by_start", "_records", "_compressed")

    def __init__(self, segment: int, compressed: CompressedTrace) -> None:
        self.segment = segment
        self.flows = tuple(flow_summaries(segment, compressed))
        self._by_start: tuple[FlowSummary, ...] = ()
        self._records: dict[DecompressorConfig, tuple[FlowRecord, ...]] = {}
        self._compressed: CompressedTrace | None = compressed

    def __len__(self) -> int:
        return len(self.flows)

    def covers(self, config: DecompressorConfig | None) -> bool:
        """Whether the view answers for ``config`` without a decode.

        ``None`` asks for summaries only; a config is covered once its
        records are derived, or while the view still holds its trace.
        """
        return (
            config is None
            or config in self._records
            or self._compressed is not None
        )

    def extend(
        self,
        config: DecompressorConfig | None,
        compressed: CompressedTrace | None = None,
    ) -> None:
        """Derive ``config``'s records, from the held trace or ``compressed``.

        ``compressed`` is a fresh decode of this segment, needed only
        when :meth:`covers` is false.  The held trace is dropped once
        records exist.
        """
        if config is None or config in self._records:
            return
        source = compressed if compressed is not None else self._compressed
        records = tuple(flow_records(source, config, segment=self.segment))
        if not self._by_start:
            # sorted_time_seq is a stable sort on timestamp over file
            # order; the summaries carry the same timestamps in the same
            # file order, so this is the records' order.
            self._by_start = tuple(sorted(self.flows, key=attrgetter("timestamp")))
        self._records[config] = records
        self._compressed = None

    def records(
        self, config: DecompressorConfig
    ) -> Iterator[tuple[FlowRecord, FlowSummary]]:
        """(record, summary) pairs in start order; :meth:`extend` first."""
        return zip(self._records[config], self._by_start)


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")


def _entry_backend_spec(entry: SegmentIndexEntry) -> dict[str, str]:
    """Per-section backend names a source segment's index entry recorded.

    Feeding this to :meth:`~repro.archive.writer.ArchiveWriter.write_segment`
    re-packs a filtered segment with the same codecs its source used.
    """
    return {
        section: backend_for_tag(tag).name
        for section, tag in zip(SECTION_NAMES, entry.section_backends)
    }


class QueryEngine:
    """Run predicates against one open :class:`ArchiveReader`."""

    def __init__(self, reader: ArchiveReader) -> None:
        self.reader = reader

    def _totals(self, stats: QueryStats) -> QueryStats:
        """Fill in ``stats``' whole-sequence totals."""
        stats.segments_total = self.reader.segment_count
        stats.bytes_total = sum(entry.length for entry in self.reader.entries)
        return stats

    def _survivors(self, predicate: Predicate) -> list[int]:
        """Segments the footer index cannot rule out, in file order.

        An unindexed segment has no entry to test, so it always survives.
        """
        if not self.reader.indexed:
            return list(range(self.reader.segment_count))
        survivors = []
        for index, entry in enumerate(self.reader.entries):
            if predicate.match_segment(entry):
                survivors.append(index)
            else:
                _log.debug("query: index pruned segment %d", index)
        return survivors

    def run(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        """Evaluate ``predicate``; returns matching flows plus statistics.

        ``limit`` stops the scan once that many flows matched (segments
        after the stop are neither scanned nor counted); ``limit=0``
        scans nothing.  ``segments_decoded`` counts the index survivors
        whose flows were scanned, whether their view came from the
        reader's cache or from a fresh decode.
        """
        _check_limit(limit)
        predicate = predicate or MatchAll()
        stats = self._totals(QueryStats())
        result = QueryResult(stats=stats)
        try:
            for index in self._survivors(predicate):
                if limit is not None and stats.flows_matched >= limit:
                    break
                stats.segments_matched += 1
                view = self.reader.segment_view(index, SegmentView)
                stats.segments_decoded += 1
                stats.bytes_decoded += self.reader.entries[index].length
                for flow in view.flows:
                    stats.flows_scanned += 1
                    if predicate.match_flow(flow):
                        stats.flows_matched += 1
                        result.flows.append(flow)
                        if limit is not None and stats.flows_matched >= limit:
                            return result
            return result
        finally:
            stats.publish()

    def index_probe(self, predicate: Predicate | None = None) -> QueryStats:
        """Dry-run ``predicate`` against the footer index alone.

        Evaluates only the segment-level test — no segment is decoded,
        no flow scanned, and (being a probe, not a query) nothing is
        published to the metrics registry.  ``segments_matched`` is what
        a real run would have to decode; ``bytes_decoded`` carries the
        matched segments' byte total so callers can report how much I/O
        the index saves.  This backs ``repro-trace archive info``'s
        prune statistics.
        """
        predicate = predicate or MatchAll()
        stats = self._totals(QueryStats())
        for entry in self.reader.entries:
            if predicate.match_segment(entry):
                stats.segments_matched += 1
                stats.bytes_decoded += entry.length
        return stats

    def window_probe(
        self,
        windows: int,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[WindowProbe]:
        """Cost-estimate a windowed scan: per-window segment overlap.

        Splits ``[since, until]`` (default: the archive's index time
        bounds) into ``windows`` equal windows and dry-runs a
        :class:`~repro.query.predicates.TimeRange` for each against the
        footer index alone — the per-window extension of
        :meth:`index_probe`.  Nothing is decoded and nothing is
        published; this is what lets an operator see whether a window
        span prunes before paying for the scan.
        """
        if windows < 1:
            raise ValueError(f"windows must be >= 1: {windows}")
        bounds = self.reader.time_bounds()
        if bounds is None:
            return []
        low = since if since is not None else bounds[0]
        high = until if until is not None else bounds[1]
        if high < low:
            raise ValueError(f"empty probe range: [{low}, {high}]")
        span = (high - low) / windows
        probes = []
        for index in range(windows):
            start = low + index * span
            end = high if index == windows - 1 else low + (index + 1) * span
            window = TimeRange(start, end)
            overlapping = bytes_to_decode = flows = 0
            for entry in self.reader.entries:
                if window.match_segment(entry):
                    overlapping += 1
                    bytes_to_decode += entry.length
                    flows += entry.flow_count
            probes.append(
                WindowProbe(
                    index=index,
                    start=start,
                    end=end,
                    segments_overlapping=overlapping,
                    bytes_to_decode=bytes_to_decode,
                    flows_upper_bound=flows,
                )
            )
        return probes

    def iter_flow_records(
        self,
        predicate: Predicate | None = None,
        *,
        config: DecompressorConfig | None = None,
        stats: QueryStats | None = None,
        method: str = "index",
    ) -> Iterator[FlowRecord]:
        """Stream matching flows' metadata — the analytics fast path.

        ``method="index"`` prunes segments on the footer index and
        filters each surviving segment's cached records, derived once
        per session without synthesizing a packet
        (:func:`~repro.core.flowmeta.flow_records`, via
        :class:`SegmentView`);
        ``method="decode"`` synthesizes every segment's packets and
        folds them back down (:func:`flow_records_by_decode`) — the
        differential baseline, which by construction cannot prune.
        Both orders are globally nondecreasing by start and the records
        are bit-identical; ``stats`` fills in as the stream drains and
        publishes when it ends.
        """
        if method not in ("index", "decode"):
            raise ValueError(f"method must be 'index' or 'decode': {method!r}")
        predicate = predicate or MatchAll()
        config = config or DecompressorConfig()
        stats = self._totals(stats if stats is not None else QueryStats())
        if method == "index":
            indices = self._survivors(predicate)
        else:
            indices = list(range(self.reader.segment_count))
        stats.segments_matched = len(indices)
        # MatchAll accepts every flow by definition — skip the per-flow
        # predicate call just to learn that.
        match_all = type(predicate) is MatchAll

        def scanned(segment: int) -> None:
            stats.segments_decoded += 1
            stats.bytes_decoded += self.reader.entries[segment].length

        def cached(segment: int) -> Iterator[FlowRecord]:
            view = self.reader.segment_view(segment, SegmentView, config)
            scanned(segment)
            return matching(view.records(config))

        def matching(
            pairs: Iterator[tuple[FlowRecord, FlowSummary]]
        ) -> Iterator[FlowRecord]:
            for record, flow in pairs:
                stats.flows_scanned += 1
                if match_all or predicate.match_flow(flow):
                    stats.flows_matched += 1
                    yield record

        def decoded(segment: int) -> Iterator[FlowRecord]:
            compressed = self.reader.load_segment(segment)
            scanned(segment)

            def keep(record: TimeSeqRecord) -> bool:
                stats.flows_scanned += 1
                if match_all or predicate.match_flow(
                    summarize_record(segment, compressed, record)
                ):
                    stats.flows_matched += 1
                    return True
                return False

            return flow_records_by_decode(
                compressed, config, segment=segment, record_filter=keep
            )

        def stream() -> Iterator[FlowRecord]:
            try:
                yield from self.reader.iter_flow_records(
                    config,
                    indices=indices,
                    source=cached if method == "index" else decoded,
                )
            finally:
                stats.publish()

        return stream()

    def stream_packets(
        self,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        config: DecompressorConfig | None = None,
        stats: QueryStats | None = None,
        options=None,
    ) -> Iterator[PacketRecord]:
        """Replay the flows matching ``predicate`` as a packet stream.

        Packets arrive in the decompressor's global time order and are
        byte-identical to the corresponding packets of a full archive
        replay (:meth:`~repro.archive.reader.ArchiveReader.iter_packets`)
        — filtering skips flows, it does not perturb the survivors.
        Memory stays bounded by one merge batch plus its carried rows;
        segments the index rules out are never decoded.  ``limit`` caps
        the *flows* replayed (their packets all stream out); pass a
        :class:`QueryStats` to receive the work accounting, which fills
        in as the stream is consumed; ``limit=0`` decodes nothing.
        """
        return packets_from_batches(
            self.stream_row_batches(
                predicate, limit=limit, config=config, stats=stats, options=options
            )
        )

    def stream_row_batches(
        self,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        config: DecompressorConfig | None = None,
        stats: QueryStats | None = None,
        options=None,
    ) -> Iterator[list[tuple]]:
        """:meth:`stream_packets` as sorted batches of replay rows."""
        _check_limit(limit)
        if config is None:
            # The façade's layered Options threads through here; an
            # explicit config still wins (duck-typed — no api import).
            config = options.decompressor if options is not None else None
        config = config or DecompressorConfig()
        if stats is None:
            stats = QueryStats()
        feed = self.spec_feed(predicate, limit=limit, config=config, stats=stats)

        def stream() -> Iterator[list[tuple]]:
            # The stats fill in lazily as the stream is consumed, so they
            # are published when the stream ends (or is closed early) —
            # the one point where the accounting is final.
            try:
                yield from merge_row_batches(feed, config)
            finally:
                stats.publish()

        return stream()

    def spec_feed(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        config: DecompressorConfig,
        stats: QueryStats,
    ) -> ArchiveSpecFeed:
        """The spec feed behind :meth:`stream_packets`.

        Segments the index rules out never enter it; the matching flows
        of the rest are popped in start order, at most ``limit`` of
        them, and ``stats`` counts the work as the feed is drained.
        As in :meth:`run`, ``segments_matched`` counts the survivors
        the feed reached: segments after the limit stopped it are
        neither decoded nor counted.
        """
        predicate = predicate or MatchAll()
        self._totals(stats)
        indices = self._survivors(predicate)

        def spec_source(
            segment: int, compressed: CompressedTrace
        ) -> Iterator[FlowSpec]:
            stats.segments_matched += 1
            stats.segments_decoded += 1
            stats.bytes_decoded += self.reader.entries[segment].length

            def keep(record: TimeSeqRecord) -> bool:
                stats.flows_scanned += 1
                if limit is not None and stats.flows_matched >= limit:
                    return False
                if predicate.match_flow(summarize_record(segment, compressed, record)):
                    stats.flows_matched += 1
                    return True
                return False

            return flow_specs(
                compressed, config, order_prefix=(segment,), record_filter=keep
            )

        halt = None
        if limit is not None:
            halt = lambda: stats.flows_matched >= limit  # noqa: E731
        return ArchiveSpecFeed(
            self.reader,
            segment_runs(self.reader.entries, indices),
            spec_source,
            halt=halt,
        )

    def filter_to(
        self,
        out_path: str | Path,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        name: str | None = None,
        backend: str | None = None,
        level: int | None = None,
        options=None,
    ) -> tuple[int, QueryStats]:
        """Write the flows matching ``predicate`` as a new sub-archive.

        Segment boundaries and the epoch are preserved; segments with no
        matching flow are dropped entirely.  ``limit`` caps the flows
        written, mirroring :meth:`run` — the scan stops once reached,
        and ``limit=0`` writes an empty archive without decoding.
        ``backend``/``level`` re-encode the surviving segments through a
        chosen codec; when ``backend`` is ``None`` each re-packed
        segment keeps the per-section backends its source segment's
        index entry recorded (v1 sources re-pack as raw).  Returns
        (segments written, query statistics).
        """
        if options is not None:
            # Options threads the façade's codec layer through; explicit
            # keywords win, exactly as on ArchiveWriter.create.
            name = name if name is not None else options.name
            backend = backend if backend is not None else options.codec.backend
            level = level if level is not None else options.codec.level
        # Fail fast on a bad backend/level request: the writer only sees
        # the backend per segment (each write_segment call carries its
        # own spec), so validate before out_path is truncated and before
        # any segment is scanned.
        validate_backend_request(backend, level)
        _check_limit(limit)
        predicate = predicate or MatchAll()
        stats = self._totals(QueryStats())
        with ArchiveWriter.create(
            out_path, epoch=self.reader.epoch, name=name, level=level
        ) as writer:
            for index in self._survivors(predicate):
                if limit is not None and stats.flows_matched >= limit:
                    break
                entry = self.reader.entries[index]
                stats.segments_matched += 1
                compressed = self.reader.load_segment(index)
                stats.segments_decoded += 1
                stats.bytes_decoded += entry.length
                matched: list[TimeSeqRecord] = []
                for record in compressed.time_seq:
                    stats.flows_scanned += 1
                    if predicate.match_flow(summarize_record(index, compressed, record)):
                        matched.append(record)
                        if limit is not None and stats.flows_matched + len(matched) >= limit:
                            break
                stats.flows_matched += len(matched)
                if matched:
                    writer.write_segment(
                        compressed.select(matched, name=compressed.name),
                        backend=backend
                        if backend is not None
                        else _entry_backend_spec(entry),
                    )
            written = writer.segment_count
            writer.close()
        stats.publish()
        return written, stats
