"""Segment reader: seek-and-decode access into a ``.fctca`` archive.

:class:`ArchiveReader` memory-maps the archive (falling back to plain
seeks where mmap is unavailable), parses the fixed trailer and footer
index once, and then serves individual segments on demand —
:meth:`load_segment` decodes exactly one segment's bytes through the
ordinary ``.fctc`` codec and nothing else.  The index entries are public
so query planners can decide *which* segments to decode; the reader
counts what was actually decoded (``segments_decoded`` /
``bytes_decoded``) so callers can assert they touched less than the
whole file.

:meth:`iter_packets` is the archive-scale replay path: it streams the
whole archive's synthetic packets in one globally time-ordered sequence,
decoding segments one at a time as the merge frontier reaches them (the
footer's per-segment time bounds tell the merge when the next segment
*must* be decoded without touching its bytes).

:meth:`segment_view` is the repeat-read path: a segment is immutable
once sealed, so whatever a caller derives from one decode (the query
engine's :class:`~repro.query.engine.SegmentView`) is kept in a
per-reader LRU bounded by :data:`VIEW_CACHE_FLOWS` cached flows, and
later calls over the same segment skip the decode entirely — a view
built by a query keeps its decode until stats first derive records
from it, so the two share one decode.

A reader is a *segment sequence*.  An archive is N indexed segments;
:meth:`ArchiveReader.unindexed` wraps one segment with no footer index
(a ``.fctc`` container, or a raw trace compressed in memory) so the
store's verbs run the same engine over every kind.  No predicate prunes
an unindexed segment: there is no index to rule it out.
"""

from __future__ import annotations

import heapq
import io
import mmap
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

from repro.archive.format import (
    ARCHIVE_MAGIC,
    ARCHIVE_VERSION_V1,
    ARCHIVE_VERSION_V2,
    HEADER,
    SUMMARY_EXACT,
    TRAILER,
    TRAILER_MAGIC,
    AddressSummary,
    SegmentIndexEntry,
    unpack_footer,
)
from repro.core.codec import read_compressed
from repro.core.datasets import CompressedTrace
from repro.core.decompressor import (
    DecompressorConfig,
    FlowSpec,
    flow_specs,
)
from repro.core.errors import ArchiveError, CodecError
from repro.core.flowmeta import FlowRecord, flow_records
from repro.core.replay import ReplayStats, merge_row_batches, packets_from_batches
from repro.net.packet import PacketRecord
from repro.obs import current as obs_current

VIEW_CACHE_FLOWS = 1 << 15
"""Most flows one reader's segment view cache keeps resident.

About 20 MB at the ~610 B a cached flow costs (a slotted
:class:`~repro.query.engine.FlowSummary` plus its
:class:`~repro.core.flowmeta.FlowRecord`); a view that still holds its
decode instead of records costs about half that.  Least recently used
views are evicted past it; a segment holding more flows than this on
its own is served but never cached.
"""


def parse_archive_tail(
    stream: BinaryIO,
) -> tuple[float, list[SegmentIndexEntry], int, int]:
    """Validate an archive stream.

    Returns (epoch, entries, footer offset, archive version).  Shared by
    the reader and the append path (which truncates the footer and
    writes new segments over it).  Both archive generations parse: v1
    footers simply report every segment's sections as raw, which is how
    v1 segments are in fact stored.
    """
    stream.seek(0, io.SEEK_END)
    size = stream.tell()
    if size < HEADER.size + TRAILER.size:
        raise ArchiveError(f"archive too small to be valid: {size} bytes")
    stream.seek(0)
    magic, version, epoch = HEADER.unpack(stream.read(HEADER.size))
    if magic != ARCHIVE_MAGIC:
        raise ArchiveError(f"bad archive magic: {magic!r}")
    if version not in (ARCHIVE_VERSION_V1, ARCHIVE_VERSION_V2):
        raise ArchiveError(f"unsupported archive version: {version}")
    stream.seek(size - TRAILER.size)
    footer_offset, footer_length, trailer_magic = TRAILER.unpack(
        stream.read(TRAILER.size)
    )
    if trailer_magic != TRAILER_MAGIC:
        raise ArchiveError(f"bad archive trailer magic: {trailer_magic!r}")
    if (
        footer_offset < HEADER.size
        or footer_offset + footer_length + TRAILER.size != size
    ):
        raise ArchiveError(
            f"archive footer range [{footer_offset}, +{footer_length}] "
            f"inconsistent with file size {size}"
        )
    stream.seek(footer_offset)
    entries = unpack_footer(stream.read(footer_length), version)
    for index, entry in enumerate(entries):
        if entry.offset < HEADER.size or entry.offset + entry.length > footer_offset:
            raise ArchiveError(
                f"segment {index} byte range [{entry.offset}, +{entry.length}] "
                f"escapes the segment region"
            )
    return epoch, entries, footer_offset, version


class ArchiveReader:
    """Open a ``.fctca`` file for segment-granular reads.

    ``indexed`` is False for a reader made by :meth:`unindexed`, whose
    one segment the query engine never prunes.
    """

    indexed = True
    _loader: Callable[[], CompressedTrace] | None = None

    def __init__(self, path: str | Path, *, use_mmap: bool = True) -> None:
        self.path = Path(path)
        self._file: BinaryIO | None = open(self.path, "rb")
        self._mmap: mmap.mmap | None = None
        try:
            (
                self.epoch,
                self.entries,
                self._footer_offset,
                self.version,
            ) = parse_archive_tail(self._file)
            if use_mmap:
                try:
                    self._mmap = mmap.mmap(
                        self._file.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (OSError, ValueError):
                    self._mmap = None  # fall back to seek+read
        except Exception:
            self._file.close()
            raise
        self._start_session()

    @classmethod
    def unindexed(
        cls,
        path: str | Path,
        size: int,
        loader: Callable[[], CompressedTrace],
    ) -> "ArchiveReader":
        """A one-segment sequence with no footer index.

        ``loader()`` returns the segment — a ``.fctc`` store's decoded
        container, or a raw trace's in-memory compression — and is
        called whenever :meth:`load_segment` is; a loader that must not
        redo its work memoizes it.  ``size`` (the source file's bytes)
        is the segment's length in query accounting.  The one index
        entry is a placeholder: no predicate consults it, because the
        query engine never prunes an unindexed segment.
        """
        reader = cls.__new__(cls)
        reader.path = Path(path)
        reader._file = reader._mmap = None
        reader.epoch = 0.0
        reader.entries = [
            SegmentIndexEntry(
                offset=0,
                length=size,
                time_min_units=0,
                time_max_units=0,
                flow_count=0,
                short_flow_count=0,
                packet_count=0,
                min_flow_packets=0,
                max_flow_packets=0,
                min_rtt_units=0,
                max_rtt_units=0,
                address_count=0,
                summary=AddressSummary(SUMMARY_EXACT),
            )
        ]
        reader.indexed = False
        reader._loader = loader
        reader._start_session()
        return reader

    def _start_session(self) -> None:
        self.segments_decoded = 0
        self.bytes_decoded = 0
        self._views: OrderedDict[int, Any] = OrderedDict()
        self._view_flows = 0

    @property
    def segment_count(self) -> int:
        return len(self.entries)

    def flow_count(self) -> int:
        """Total flows across every segment (from the index alone)."""
        return sum(entry.flow_count for entry in self.entries)

    def packet_count(self) -> int:
        """Total original packets across every segment (index only)."""
        return sum(entry.packet_count for entry in self.entries)

    def time_bounds(self) -> tuple[float, float] | None:
        """(earliest, latest) flow timestamp across segments (index only)."""
        if not self.entries:
            return None
        return (
            min(entry.time_min for entry in self.entries),
            max(entry.time_max for entry in self.entries),
        )

    def read_segment_bytes(self, index: int) -> bytes:
        """The raw ``.fctc`` bytes of segment ``index``."""
        entry = self._entry(index)
        if self._mmap is not None:
            return self._mmap[entry.offset : entry.offset + entry.length]
        self._file.seek(entry.offset)
        data = self._file.read(entry.length)
        if len(data) != entry.length:
            raise ArchiveError(f"segment {index}: short read")
        return data

    def load_segment(self, index: int) -> CompressedTrace:
        """Decode one segment; counts toward the decode statistics.

        An unindexed reader's segment comes from its loader instead and
        counts toward nothing: it is not an archive decode.
        """
        entry = self._entry(index)
        if self._loader is not None:
            return self._loader()
        try:
            compressed = read_compressed(io.BytesIO(self.read_segment_bytes(index)))
        except CodecError as exc:
            raise ArchiveError(f"segment {index}: {exc}") from exc
        self.segments_decoded += 1
        self.bytes_decoded += entry.length
        registry = obs_current()
        registry.counter(
            "archive.segments_decoded", "archive segments decoded"
        ).inc()
        registry.counter(
            "archive.bytes_decoded", "serialized segment bytes decoded"
        ).inc(entry.length)
        return compressed

    def segment_view(
        self,
        index: int,
        view_type: Callable[[int, CompressedTrace], Any],
        config: DecompressorConfig | None = None,
    ) -> Any:
        """Segment ``index``'s cached view, decoding only on a miss.

        ``view_type(index, compressed)`` builds a view from one decode;
        ``view.covers(config)`` says whether it can answer for
        ``config`` without a decode, ``view.extend(config, compressed)``
        derives what it lacks (``compressed`` is the fresh decode on a
        miss, ``None`` on a hit), and ``len(view)`` is its flow count.
        A resident view that covers ``config`` is a hit; anything else
        decodes the segment through :meth:`load_segment` (so
        ``segments_decoded`` counts real decodes only), builds or
        extends the view and caches it.  A
        :class:`~repro.query.engine.SegmentView` holds its decode until
        it derives records, so a segment decodes once per session
        unless a second config asks for records or its view was
        evicted.  A decode or derivation that raises caches nothing new.
        """
        registry = obs_current()
        view = self._views.get(index)
        if view is not None and view.covers(config):
            view.extend(config)
            self._views.move_to_end(index)
            registry.counter(
                "archive.segment_cache.hits", "segment views served from the cache"
            ).inc()
            return view
        registry.counter(
            "archive.segment_cache.misses", "segment view requests that decoded"
        ).inc()
        compressed = self.load_segment(index)
        if view is None:
            view = view_type(index, compressed)
        view.extend(config, compressed)
        if index in self._views:
            self._views.move_to_end(index)
        elif len(view) <= VIEW_CACHE_FLOWS:
            self._views[index] = view
            self._view_flows += len(view)
            while self._view_flows > VIEW_CACHE_FLOWS:
                _, evicted = self._views.popitem(last=False)
                self._view_flows -= len(evicted)
                registry.counter(
                    "archive.segment_cache.evictions",
                    "segment views evicted past the flow bound",
                ).inc()
        return view

    @property
    def cached_flows(self) -> int:
        """Flows held by the resident segment views."""
        return self._view_flows

    def adopt_views(self, previous: "ArchiveReader") -> None:
        """Take over ``previous``'s views of every segment left unchanged.

        A segment whose index entry is identical in both readers has the
        same bytes (appends never rewrite a sealed segment), so its view
        stays valid; every other view is dropped.
        """
        for index, view in previous._views.items():
            if (
                index < len(self.entries)
                and self.entries[index] == previous.entries[index]
            ):
                self._views[index] = view
                self._view_flows += len(view)

    def iter_segments(self) -> Iterator[tuple[int, CompressedTrace]]:
        """Decode every segment in file order."""
        for index in range(len(self.entries)):
            yield index, self.load_segment(index)

    def iter_packets(
        self,
        config: DecompressorConfig | None = None,
        *,
        stats: ReplayStats | None = None,
    ) -> Iterator[PacketRecord]:
        """Stream the archive's synthetic packets in global time order.

        The output is exactly the merge of every segment's batch
        ``decompress_trace`` packets under the decompressor's global
        sort order (ties broken by segment, then flow, then packet
        position) — but no segment's packet list is ever materialized:
        segments are decoded one run at a time when the merge frontier
        reaches their index ``time_min``, a merge batch never spans two
        runs, and a decoded run's datasets are dropped once its specs
        are popped.
        """
        return packets_from_batches(self.iter_row_batches(config, stats=stats))

    def iter_row_batches(
        self,
        config: DecompressorConfig | None = None,
        *,
        stats: ReplayStats | None = None,
    ) -> Iterator[list[tuple]]:
        """:meth:`iter_packets` as sorted batches of replay rows."""
        config = config or DecompressorConfig()
        indices = list(range(len(self.entries)))

        def spec_source(
            segment: int, compressed: CompressedTrace
        ) -> Iterator[FlowSpec]:
            return flow_specs(compressed, config, order_prefix=(segment,))

        feed = ArchiveSpecFeed(self, segment_runs(self.entries, indices), spec_source)
        return merge_row_batches(feed, config, stats)

    def iter_flow_records(
        self,
        config: DecompressorConfig | None = None,
        *,
        indices: list[int] | None = None,
        source: Callable[[int], Iterator[FlowRecord]] | None = None,
    ) -> Iterator[FlowRecord]:
        """Stream flow metadata in global start order — no packet synthesis.

        The flow-level twin of :meth:`iter_packets`: one
        :class:`~repro.core.flowmeta.FlowRecord` per flow, start
        timestamps nondecreasing across the whole archive.  Segments are
        walked in :func:`segment_runs` order — within a run the
        per-segment record streams heap-merge, between runs they simply
        concatenate — so downstream window aggregation never needs more
        than the current run's records in memory (plus, on the query
        engine's cached path, the :data:`VIEW_CACHE_FLOWS`-bounded view
        cache).

        ``indices`` restricts the walk (a query planner's surviving
        segments); ``source(segment)`` overrides the per-segment record
        stream — the query engine passes a filtering source over its
        cached segment views, the differential harness the
        synthesize-everything twin.  The default source decodes each
        segment.
        """
        config = config or DecompressorConfig()
        if indices is None:
            indices = list(range(len(self.entries)))
        if source is None:
            source = lambda segment: flow_records(  # noqa: E731
                self.load_segment(segment), config, segment=segment
            )
        for run in segment_runs(self.entries, indices):
            streams = [source(segment) for segment in run]
            if len(streams) == 1:
                yield from streams[0]
            else:
                yield from heapq.merge(
                    *streams, key=lambda record: record.start
                )

    def _entry(self, index: int) -> SegmentIndexEntry:
        if not 0 <= index < len(self.entries):
            raise ArchiveError(
                f"segment index {index} out of range ({len(self.entries)})"
            )
        return self.entries[index]

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- archive-scale streaming replay ---------------------------------------


def order_by_time(
    entries: list[SegmentIndexEntry], indices: list[int]
) -> list[int]:
    """Segment indices sorted by index ``time_min`` (file order on ties).

    :func:`segment_runs` walks segments in this order: it is what makes
    a single-level overlap check there complete.  For archives written
    by a rolling capture it is simply file order.
    """
    return sorted(indices, key=lambda index: (entries[index].time_min_units, index))


def segment_runs(
    entries: list[SegmentIndexEntry], indices: list[int]
) -> list[list[int]]:
    """Group segments whose record-start ranges overlap, in time order.

    A rolling capture rotates segments at points in time, so flow starts
    of segment *k* all precede segment *k + 1*'s and every run is a
    single segment — the streaming sweet spot.  Appended captures (or
    hand-built archives) may interleave; those segments are decoded
    together and their record streams heap-merged, keeping the spec
    stream globally sorted by start time at a memory cost of one run of
    segments instead of one.

    Segments are visited in :func:`order_by_time` order, which makes
    merging into the *latest* run sufficient: a segment overlapping any
    earlier run would have to start before that run's successor did,
    contradicting the sort.  Consecutive runs therefore satisfy
    ``run[i] max start <= run[i+1] min start``, the invariant the feed's
    admission bound relies on.
    """
    runs: list[list[int]] = []
    run_max = 0
    for index in order_by_time(entries, indices):
        entry = entries[index]
        if runs and entry.time_min_units < run_max:
            runs[-1].append(index)
            run_max = max(run_max, entry.time_max_units)
        else:
            runs.append([index])
            run_max = entry.time_max_units
    return runs


class ArchiveSpecFeed:
    """A :class:`~repro.core.replay.SpecFeed` over archive segments.

    Decodes lazily: while the next run is untouched, the footer's
    ``time_min`` serves as the merge's admission bound for free; the
    run's segments are only decoded when the frontier provably needs
    their first record.  ``spec_source(segment, compressed)`` maps one
    decoded segment to its spec stream — the query engine passes a
    filtering source here, the plain replay an unfiltered one.  ``halt``
    (optional) stops the feed from opening further runs — the query
    engine's ``limit``.
    """

    def __init__(
        self,
        reader: ArchiveReader,
        runs: list[list[int]],
        spec_source: Callable[[int, CompressedTrace], Iterator[FlowSpec]],
        halt: Callable[[], bool] | None = None,
    ) -> None:
        self._reader = reader
        self._runs = deque(runs)
        self._spec_source = spec_source
        self._halt = halt
        self._current: Iterator[FlowSpec] | None = None
        self._buffered: FlowSpec | None = None

    def next_start_bound(self) -> float | None:
        if self._buffered is None and self._current is not None:
            self._buffered = next(self._current, None)
            if self._buffered is None:
                self._current = None
        if self._buffered is not None:
            return self._buffered.start
        if self._runs and not (self._halt is not None and self._halt()):
            return self._reader.entries[self._runs[0][0]].time_min
        return None

    def at_run_boundary(self) -> bool:
        """True when the next :meth:`pop` must open (decode) a new run."""
        return self.next_start_bound() is not None and self._buffered is None

    def pop(self) -> FlowSpec | None:
        while self._buffered is None:
            if self._current is None:
                if not self._runs or (self._halt is not None and self._halt()):
                    return None
                self._current = self._open_run(self._runs.popleft())
            self._buffered = next(self._current, None)
            if self._buffered is None:
                self._current = None
        spec, self._buffered = self._buffered, None
        return spec

    def _open_run(self, run: list[int]) -> Iterator[FlowSpec]:
        streams = [
            self._spec_source(segment, self._reader.load_segment(segment))
            for segment in run
        ]
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams, key=lambda spec: (spec.start, *spec.order))
