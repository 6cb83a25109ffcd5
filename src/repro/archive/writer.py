"""Segment writer: rolling captures into one indexed ``.fctca`` file.

:class:`ArchiveWriter` couples the streaming compressor to the archive
container.  Packets are fed one at a time (or via :meth:`feed`); the
writer rotates to a fresh segment whenever the current one reaches
``segment_packets`` packets or spans ``segment_span`` seconds of trace
time, closes the segment's compressor, serializes it as a standalone
``.fctc`` blob, and records its :class:`~repro.archive.format.SegmentIndexEntry`.
Closing the writer lands the footer index and trailer.

Every segment's compressor is anchored to the shared archive ``epoch``
(the first packet's timestamp unless given), so time-seq timestamps are
comparable across segments — the property the time index relies on.

A flow still open at a rotation boundary is flushed into the closing
segment, exactly as a rolling capture that restarts its collector would
split it.  Queries therefore see one flow record per segment the flow
touches.

Appending re-opens an existing archive, parses its footer, truncates it,
and continues writing segments in its place; the epoch is taken from the
archive header so appended captures must share the original time base.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

from repro.archive.format import (
    ARCHIVE_MAGIC,
    ARCHIVE_VERSION,
    HEADER,
    TRAILER,
    TRAILER_MAGIC,
    SegmentIndexEntry,
    index_entry_for,
    pack_footer,
)
from repro.core.codec import validate_backend_request, write_container
from repro.core.compressor import CompressorConfig
from repro.core.datasets import CompressedTrace
from repro.core.errors import ArchiveError
from repro.core.streaming import RECORD_CHUNK_PACKETS, StreamingCompressor
from repro.net.columns import PacketColumns, columns_from_records
from repro.net.packet import PacketRecord
from repro.obs import current as obs_current

_log = logging.getLogger(__name__)

DEFAULT_SEGMENT_PACKETS = 65536
DEFAULT_SEGMENT_SPAN = 60.0

_UNSET = object()  # sentinel: distinguish "not passed" from an explicit None


class EpochRef:
    """A shared, late-bound time base.

    Every compressor that feeds one archive must anchor its relative
    clock to the same instant, but that instant is only known when the
    first packet (from *whichever* stream wins) arrives.  An
    ``EpochRef`` is the one mutable cell they all hold: :meth:`anchor`
    installs the first candidate timestamp and returns the epoch ever
    after.  The archive writer and every :class:`SegmentFeeder` draining
    into it share one ref.
    """

    __slots__ = ("value",)

    def __init__(self, value: float | None = None) -> None:
        self.value = value

    def anchor(self, timestamp: float) -> float:
        if self.value is None:
            self.value = timestamp
        return self.value


class SegmentFeeder:
    """Rotation policy for one packet stream, sealing into a sink.

    The per-stream half of archive building, extracted from
    :class:`ArchiveWriter` so it can be instantiated *per source*: a
    feeder owns one :class:`~repro.core.streaming.StreamingCompressor`,
    applies the packet-count / trace-time rotation bounds, and hands
    each sealed :class:`~repro.core.datasets.CompressedTrace` to
    ``sink`` (typically :meth:`ArchiveWriter.write_segment`).  The
    writer itself runs exactly one feeder; ``repro serve`` runs one per
    ingest source, all sharing the writer's :class:`EpochRef` so their
    segment clocks stay comparable.

    A segment rotates *before* the first packet that would overflow
    ``segment_packets`` or land ``segment_span`` seconds of trace time
    past the segment's first packet — the boundary rule the offline
    writer has always used, preserved bit-for-bit so a live-ingested
    stream segments exactly like the same capture compressed offline.

    Not thread-safe: one feeder belongs to one feeding task.  The sink
    is invoked synchronously from the feed call that closed the
    segment.  ``seal_timer`` (a :mod:`repro.obs` timer), when given,
    observes each seal once: closing the segment's open flows and
    handing the result to ``sink``.
    """

    def __init__(
        self,
        sink: Callable[[CompressedTrace], object],
        *,
        epoch: EpochRef,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        segment_span: float | None = DEFAULT_SEGMENT_SPAN,
        config: CompressorConfig | None = None,
        name: str = "segment",
        segment_name: Callable[[int], str] | None = None,
        engine: str | None = None,
        seal_timer=None,
    ) -> None:
        # ``engine`` is accepted and ignored: there is one compression
        # engine.  Its only caller is ``perf_ledger/workloads.py::
        # _replica_ingest``; delete it with the next change to
        # ``perf_ledger/``.
        if segment_packets < 1:
            raise ValueError(f"segment_packets must be >= 1: {segment_packets}")
        if segment_span is not None and segment_span <= 0:
            raise ValueError(f"segment_span must be positive: {segment_span}")
        self._sink = sink
        self._epoch = epoch
        self._segment_packets = segment_packets
        self._segment_span = segment_span
        self._config = config
        self._name = name
        self._segment_name = segment_name or (
            lambda ordinal: f"{name}/seg-{ordinal:05d}"
        )
        self._compressor: StreamingCompressor | None = None
        self._segment_first_ts = 0.0
        self._segment_fed = 0
        self._sealed = 0
        self._closed = False
        self._seal_timer = seal_timer

    @property
    def packets_pending(self) -> int:
        """Packets fed into the open (unsealed) segment so far."""
        return self._segment_fed

    @property
    def segments_sealed(self) -> int:
        return self._sealed

    @property
    def compressor(self) -> StreamingCompressor | None:
        """The live compressor (``None`` until the first packet)."""
        return self._compressor

    def add_packet(self, packet: PacketRecord) -> None:
        """Feed one packet, sealing a segment at the configured bounds:
        a one-row :meth:`feed_columns`."""
        self.feed_columns(columns_from_records([packet]))

    def feed(
        self, packets: Iterable[PacketRecord] | Iterable[PacketColumns]
    ) -> int:
        """Feed records, columnar chunks, or a mix; returns the count.

        Runs of records are batched into column chunks: rotation and
        compression give the same bytes however rows are chunked.
        """
        if isinstance(packets, PacketColumns):
            return self.feed_columns(packets)
        count = 0
        records: list[PacketRecord] = []
        for item in packets:
            if isinstance(item, PacketColumns):
                count += self._feed_records(records)
                count += self.feed_columns(item)
            else:
                records.append(item)
                if len(records) >= RECORD_CHUNK_PACKETS:
                    count += self._feed_records(records)
        return count + self._feed_records(records)

    def _feed_records(self, records: list[PacketRecord]) -> int:
        """Feed (and empty) a batch of records as one column chunk."""
        if not records:
            return 0
        columns = columns_from_records(records)
        records.clear()
        return self.feed_columns(columns)

    def feed_columns(self, columns: PacketColumns) -> int:
        """Feed one columnar chunk, splitting it at rotation boundaries.

        A segment seals before the first row that would overflow
        ``segment_packets`` or land ``segment_span`` seconds past the
        segment's first packet; each stretch between boundaries is fed
        as one vectorized sub-chunk.
        """
        import numpy as np

        if self._closed:
            raise ArchiveError("segment feeder already closed")
        total = len(columns)
        if total == 0:
            return 0
        timestamps = columns.timestamps
        start = 0
        while start < total:
            now = float(timestamps[start])
            if self._segment_fed and (
                self._segment_fed >= self._segment_packets
                or (
                    self._segment_span is not None
                    and now - self._segment_first_ts >= self._segment_span
                )
            ):
                self._seal()
            if not self._segment_fed:
                self._open_segment(now)
            # Rows [start:stop) all fit in the open segment: stop at the
            # packet budget or the first timestamp past the span bound.
            stop = min(total, start + self._segment_packets - self._segment_fed)
            if self._segment_span is not None:
                # The same float expression as the row-0 check above:
                # ``ts >= first + span`` can round differently and stop
                # on a row that check does not seal on.
                past = np.flatnonzero(
                    timestamps[start:stop] - self._segment_first_ts
                    >= self._segment_span
                )
                if len(past):
                    stop = start + int(past[0])
            self._compressor.feed_columns(columns.slice(start, stop))
            self._segment_fed += stop - start
            start = stop
        return total

    def flush(self) -> bool:
        """Seal the open segment now, regardless of the rotation bounds.

        The wall-clock rotation hook of the ingest daemon (a quiet
        source must still land what it holds) and the drain path.
        Returns whether a segment was written.
        """
        if self._closed:
            raise ArchiveError("segment feeder already closed")
        return self._seal()

    def close(self) -> int:
        """Flush the open segment and retire the feeder; returns seals."""
        if not self._closed:
            self._seal()
            if self._compressor is not None:
                # Publish the trailing (empty) engine's counters so a
                # feeder's metric set is stable regardless of where the
                # last rotation boundary fell.
                self._compressor.finish()
            self._closed = True
        return self._sealed

    def _open_segment(self, first_timestamp: float) -> None:
        if self._compressor is None:
            self._compressor = StreamingCompressor(
                self._config,
                name=self._segment_name(0),
                base_time=self._epoch.anchor(first_timestamp),
            )
        self._segment_first_ts = first_timestamp

    def _seal(self) -> bool:
        if not self._segment_fed or self._compressor is None:
            return False
        if self._seal_timer is None:
            return self._seal_segment()
        with self._seal_timer.time():
            return self._seal_segment()

    def _seal_segment(self) -> bool:
        fed = self._segment_fed
        self._segment_fed = 0
        compressed = self._compressor.flush_segment(
            name=self._segment_name(self._sealed)
        )
        if compressed is None:
            return False
        self._sealed += 1
        self._sink(compressed)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "rotated segment %s: %d packet(s), %d flow(s)",
                compressed.name,
                fed,
                len(compressed.time_seq),
            )
        return True


def _merge_create_kwargs(options, **overrides) -> dict:
    """Expand a layered :class:`repro.api.Options` into writer kwargs.

    The ``options=`` keyword on :meth:`ArchiveWriter.create` /
    :meth:`ArchiveWriter.append` threads the façade's single config
    object through this layer; any explicitly passed keyword still wins
    over the corresponding options field.  Duck-typed on the three
    layers actually read (``archive``, ``compressor``, ``codec``) so
    this module never imports :mod:`repro.api` (which imports it).
    """
    if options is not None:
        merged = {
            "segment_packets": options.archive.segment_packets,
            "segment_span": options.archive.segment_span,
            "epoch": options.archive.epoch,
            "config": options.compressor,
            "name": options.name,
            "backend": options.codec.backend,
            "level": options.codec.level,
        }
    else:
        merged = {
            "segment_packets": DEFAULT_SEGMENT_PACKETS,
            "segment_span": DEFAULT_SEGMENT_SPAN,
            "epoch": None,
            "config": None,
            "name": None,
            "backend": None,
            "level": None,
        }
    merged.update(
        {key: value for key, value in overrides.items() if value is not _UNSET}
    )
    return merged


class ArchiveWriter:
    """Write (or extend) a segmented archive; use as a context manager."""

    def __init__(
        self,
        stream: BinaryIO,
        *,
        entries: list[SegmentIndexEntry],
        epoch: float | None,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        segment_span: float | None = DEFAULT_SEGMENT_SPAN,
        config: CompressorConfig | None = None,
        name: str = "archive",
        backend: str | None = None,
        level: int | None = None,
    ) -> None:
        if segment_packets < 1:
            raise ValueError(f"segment_packets must be >= 1: {segment_packets}")
        if segment_span is not None and segment_span <= 0:
            raise ValueError(f"segment_span must be positive: {segment_span}")
        self._stream = stream
        self._entries = entries
        self._epoch_ref = EpochRef(epoch)
        self._segment_packets = segment_packets
        self._segment_span = segment_span
        self._config = config
        self._name = name
        self._backend = backend
        self._level = level
        self._feeder: SegmentFeeder | None = None
        self._closed = False
        # Serializes segment landing and sealing: the ingest daemon's
        # per-source feeders all sink into one writer, and although its
        # event loop is single-threaded, the container append must stay
        # atomic under any driver (threads included).
        self._lock = threading.Lock()

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        options=None,
        epoch: float | None = _UNSET,
        segment_packets: int = _UNSET,
        segment_span: float | None = _UNSET,
        config: CompressorConfig | None = _UNSET,
        name: str | None = _UNSET,
        backend: str | None = _UNSET,
        level: int | None = _UNSET,
    ) -> "ArchiveWriter":
        """Start a new archive at ``path`` (truncating any existing file).

        ``epoch`` defaults to the first fed packet's timestamp; the
        header is (re)written with the final value on :meth:`close`.
        ``backend``/``level`` select the section codec every segment is
        serialized through (:mod:`repro.core.backends`; ``None`` = raw).
        ``options`` (a layered :class:`repro.api.Options`) fills every
        knob at once; explicit keywords override its fields.  An
        invalid backend/level combination fails here — before the path
        is truncated or a single packet compressed.
        """
        merged = _merge_create_kwargs(
            options,
            epoch=epoch,
            segment_packets=segment_packets,
            segment_span=segment_span,
            config=config,
            name=name,
            backend=backend,
            level=level,
        )
        validate_backend_request(merged["backend"], merged["level"])
        stream = open(path, "w+b")
        stream.write(
            HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, merged["epoch"] or 0.0)
        )
        return cls(
            stream,
            entries=[],
            epoch=merged["epoch"],
            segment_packets=merged["segment_packets"],
            segment_span=merged["segment_span"],
            config=merged["config"],
            name=merged["name"] or Path(path).stem,
            backend=merged["backend"],
            level=merged["level"],
        )

    @classmethod
    def append(
        cls,
        path: str | Path,
        *,
        options=None,
        segment_packets: int = _UNSET,
        segment_span: float | None = _UNSET,
        config: CompressorConfig | None = _UNSET,
        name: str | None = _UNSET,
        backend: str | None = _UNSET,
        level: int | None = _UNSET,
    ) -> "ArchiveWriter":
        """Extend an existing archive in place.

        The old footer is truncated and new segments take its place; the
        epoch is fixed by the archive header, so appended packets must
        carry timestamps on the same clock as the original capture.
        ``backend``/``level`` apply to the *new* segments only, and
        ``options`` fills knobs exactly as in :meth:`create`.
        Appending to a v1 archive upgrades it: the rewritten footer and
        header are v2 (old entries report every section as raw, which is
        exactly how v1 segments are stored) while old segment bytes stay
        untouched.
        """
        merged = _merge_create_kwargs(
            options,
            segment_packets=segment_packets,
            segment_span=segment_span,
            config=config,
            name=name,
            backend=backend,
            level=level,
        )
        segment_packets = merged["segment_packets"]
        segment_span = merged["segment_span"]
        config, name = merged["config"], merged["name"]
        backend, level = merged["backend"], merged["level"]
        validate_backend_request(backend, level)
        stream = open(path, "r+b")
        try:
            epoch, entries, footer_offset = _read_tail(stream)
        except Exception:
            stream.close()
            raise
        stream.seek(footer_offset)
        stream.truncate()
        return cls(
            stream,
            entries=entries,
            epoch=epoch,
            segment_packets=segment_packets,
            segment_span=segment_span,
            config=config,
            name=name or Path(path).stem,
            backend=backend,
            level=level,
        )

    # -- feeding ----------------------------------------------------------

    @property
    def epoch(self) -> float | None:
        return self._epoch_ref.value

    @property
    def epoch_ref(self) -> EpochRef:
        """The shared time-base cell external feeders must anchor to."""
        return self._epoch_ref

    def ensure_epoch(self, timestamp: float) -> float:
        """Anchor the archive epoch to ``timestamp`` if still unset."""
        return self._epoch_ref.anchor(timestamp)

    @property
    def segment_count(self) -> int:
        """Segments landed so far (the open segment is not counted)."""
        return len(self._entries)

    def _ensure_feeder(self) -> SegmentFeeder:
        if self._closed:
            raise ArchiveError("archive writer already closed")
        if self._feeder is None:
            self._feeder = SegmentFeeder(
                self._land_segment,
                epoch=self._epoch_ref,
                segment_packets=self._segment_packets,
                segment_span=self._segment_span,
                config=self._config,
                name=self._name,
                # The archive-global ordinal, not the feeder-local one:
                # segment names have always counted landed entries, and
                # they are serialized into the container bytes.
                segment_name=lambda _ordinal: (
                    f"{self._name}/seg-{len(self._entries):05d}"
                ),
            )
        return self._feeder

    def _land_segment(self, compressed: CompressedTrace) -> SegmentIndexEntry:
        entry = self.write_segment(compressed)
        obs_current().counter(
            "archive.segments_rotated", "segments closed and landed on disk"
        ).inc()
        return entry

    def add_packet(self, packet: PacketRecord) -> None:
        """Feed one packet, rotating segments at the configured bounds."""
        self._ensure_feeder().add_packet(packet)

    def feed(
        self, packets: Iterable[PacketRecord] | Iterable[PacketColumns]
    ) -> int:
        """Feed packets; returns how many were added.

        Accepts a plain packet iterable, a single
        :class:`~repro.net.columns.PacketColumns` chunk, or an iterable
        of such chunks — columnar feeds keep the vectorized hot path all
        the way into each segment's compressor.
        """
        return self._ensure_feeder().feed(packets)

    def feed_columns(self, columns: PacketColumns) -> int:
        """Feed one columnar chunk, splitting it at rotation boundaries.

        A segment rotates before the first row that would overflow
        ``segment_packets`` or land ``segment_span`` seconds past the
        segment's first packet; each stretch between boundaries is fed
        as one vectorized sub-chunk.
        """
        return self._ensure_feeder().feed_columns(columns)

    def write_segment(
        self,
        compressed: CompressedTrace,
        *,
        backend: str | dict[str, str] | None = None,
        level: int | None = None,
    ) -> SegmentIndexEntry:
        """Land a pre-built compressed trace as one segment.

        The low-level hook behind both packet-driven rotation and archive
        filtering (which re-packs record subsets).  The segment's
        time-seq timestamps must already be relative to the archive
        epoch.  Empty traces are rejected — an empty segment indexes
        nothing and would only cost seeks.  ``backend``/``level``
        override the writer-wide codec for this one segment (the query
        engine uses this to preserve each source segment's backends when
        re-packing); the backends actually used are recorded in the
        entry's ``section_backends``.
        """
        if self._closed:
            raise ArchiveError("archive writer already closed")
        if not compressed.time_seq:
            raise ArchiveError("refusing to write an empty segment")
        with self._lock:
            offset = self._stream.tell()
            result = write_container(
                self._stream,
                compressed,
                backend=backend if backend is not None else self._backend,
                level=level if level is not None else self._level,
            )
            entry = index_entry_for(
                compressed, offset, result.length, result.backend_tags
            )
            self._entries.append(entry)
        obs_current().counter(
            "archive.segment_bytes", "serialized segment bytes landed"
        ).inc(result.length)
        return entry

    # -- closing ----------------------------------------------------------

    def close(self) -> list[SegmentIndexEntry]:
        """Flush the open segment, write footer + trailer, close the file."""
        if self._closed:
            return self._entries
        if self._feeder is not None:
            self._feeder.close()
        self._seal()
        return self._entries

    def _seal(self) -> None:
        """Write footer + trailer + final header, fsync, close the stream.

        Also the error-path salvage: whatever segments fully landed are
        sealed into a valid archive.  The stream position may sit after
        partial bytes of a failed segment write — the footer simply
        starts there and no index entry references the dead space.

        Durability: the file *and its directory* are fsynced before the
        handle closes, so a sealed archive survives a crash or power cut
        right after :meth:`close` returns — the contract a long-running
        capture daemon hands its operators.  Streams without a real file
        descriptor (in-memory buffers) skip the sync.
        """
        registry = obs_current()
        with registry.timer(
            "archive.seal", "wall time writing footer, trailer, and final header"
        ).time():
            with self._lock:
                footer_offset = self._stream.tell()
                footer = pack_footer(self._entries)
                self._stream.write(footer)
                self._stream.write(
                    TRAILER.pack(footer_offset, len(footer), TRAILER_MAGIC)
                )
                self._stream.seek(0)
                self._stream.write(
                    HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, self.epoch or 0.0)
                )
                _fsync_stream_and_dir(self._stream)
                self._stream.close()
                self._closed = True
        registry.counter("archive.index_bytes", "footer index bytes written").inc(
            len(footer)
        )
        _log.debug(
            "sealed archive: %d segment(s), %d index byte(s)",
            len(self._entries),
            len(footer),
        )

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            # A failed feed must not destroy the file: append has already
            # truncated the old footer and build has claimed the path, so
            # seal the fully-landed segments back into a valid archive
            # (the open segment's packets are discarded).  Best effort —
            # if even sealing fails (dead disk), just drop the handle.
            try:
                self._seal()
            except OSError:
                self._stream.close()
                self._closed = True


def _fsync_stream_and_dir(stream: BinaryIO) -> None:
    """Flush ``stream`` to stable storage, then its directory entry.

    The two-step seal durability: ``fsync`` on the file makes the bytes
    durable, ``fsync`` on the containing directory makes the *name*
    durable (a freshly created archive is otherwise lost if the
    directory inode never lands).  Both steps degrade to no-ops for
    streams without a real descriptor (``BytesIO`` raises
    ``UnsupportedOperation``, which is both ``OSError`` and
    ``ValueError``).
    """
    try:
        stream.flush()
        os.fsync(stream.fileno())
    except (AttributeError, OSError, ValueError):
        return
    name = getattr(stream, "name", None)
    if not isinstance(name, (str, bytes, os.PathLike)):
        return
    directory = os.path.dirname(os.path.abspath(os.fspath(name)))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _read_tail(stream: BinaryIO) -> tuple[float, list[SegmentIndexEntry], int]:
    """Parse header + trailer + footer of an existing archive stream.

    Drops the version component of :func:`parse_archive_tail`: the
    writer always seals as the current version, upgrading v1 archives in
    place on append.
    """
    from repro.archive.reader import parse_archive_tail  # local: avoid cycle

    epoch, entries, footer_offset, _version = parse_archive_tail(stream)
    return epoch, entries, footer_offset
