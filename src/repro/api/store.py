"""The :class:`TraceStore` session — one façade over the whole system.

``repro.open(path)`` sniffs the input (TSH / pcap / ``.fctc`` container
/ ``.fctca`` archive) and returns the matching session class.  All four
expose one capability-driven surface:

========================  ====  ====  =========  =======
verb                      tsh   pcap  container  archive
========================  ====  ====  =========  =======
``info()``                 ✓     ✓       ✓          ✓
``packets()``              ✓     ✓       ✓          ✓
``flows()`` / ``query()``  ✓     ✓       ✓          ✓
``compress(dest)``         ✓     ✓       ✓¹         ✓¹
``export(dest)``           ✓     ✓       ✓          ✓
``append(source)``         —     —       —          ✓
``filter(dest, pred)``     —     —       —          ✓
``stats()``                ✓     ✓       ✓³         ✓³
``matrices()``             ✓     ✓       ✓          ✓
``model()``                ✓     ✓       ✓²         —
========================  ====  ====  =========  =======

¹ re-encode through a different section backend; ² a container *is* a
fitted traffic model, a trace file is compressed first; ³ the windowed
traffic-matrix report (``repro.analysis/matrix-report/v1``) — a raw
trace's ``stats()`` without matrix arguments keeps returning the legacy
packet-level :class:`~repro.trace.stats.TraceStatistics`.

A verb a kind cannot honor raises
:class:`~repro.api.errors.CapabilityError` naming the kinds that can.

``flows``, ``query``, matrix ``stats``, ``matrices`` and the container
and archive replay (``packets``/``export``) are written once, in
:class:`TraceStore`, over the store's *segment sequence* — an
:class:`~repro.archive.reader.ArchiveReader`.  A ``.fctca`` is N
indexed segments; a ``.fctc`` is one unindexed segment, the container
decoded at open; a TSH or pcap file is one unindexed segment,
compressed on first use and at most once per session.  An unindexed
segment is never pruned.  Each kind class keeps only how it gets its
sequence, ``compress``, ``info`` and its kind-only verbs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from repro.api.errors import (
    CapabilityError,
    CorruptInputError,
    EmptyTraceError,
    OptionsError,
)
from repro.api.options import Options
from repro.api.sniff import SourceKind, sniff_kind
from repro.analysis.matrices import (
    DEFAULT_SCAN_FANOUT,
    DEFAULT_TOP_K,
    DEFAULT_WINDOW,
    AddressAnonymizer,
    MatrixReport,
    StreamingWindowAggregator,
    TrafficMatrix,
    matrix_report_for_archive,
)
from repro.archive.reader import ArchiveReader
from repro.core.codec import (
    container_info,
    dataset_sizes,
    deserialize_compressed,
    serialize_compressed,
)
from repro.core.datasets import CompressedTrace
from repro.core.errors import CodecError
from repro.core.pipeline import CompressionReport, report_for_stream
from repro.core.replay import packets_from_batches
from repro.core.generator import TraceModel
from repro.flows.characterize import PacketValueError
from repro.net.columns import PacketColumns
from repro.net.packet import PacketRecord
from repro.obs import RunReport, record_run, scoped as obs_scoped
from repro.query.engine import FlowSummary, QueryEngine, QueryResult, QueryStats
from repro.query.predicates import MatchAll, Predicate
from repro.trace.export import ExportResult, export_packet_stream
from repro.trace.framing import FrameDecodeError
from repro.trace import reader as trace_reader
from repro.trace.pcaplite import read_pcap_columns
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.trace import Trace

__all__ = [
    "ArchiveBuildReport",
    "ArchiveStore",
    "ContainerStore",
    "StoreInfo",
    "TraceFileStore",
    "TraceStore",
    "open_store",
]


_DECODE_ERRORS = (CodecError, FrameDecodeError, PacketValueError)
"""Low-level decode failures: ``.fctc``/``.fctca`` framing (ArchiveError
subclasses CodecError), pcap/TSH framing, and template values that are
no ``f(p)`` encoding — the last only surfaces during synthesis."""


@contextmanager
def _typed_decode_errors(path: Path):
    """Re-raise low-level decode failures as the façade's typed errors."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise CorruptInputError(f"{path}: {exc}") from exc


def _typed_stream(path: Path, stream: Iterator) -> Iterator:
    """``stream``, re-raising decode failures met while it drains as typed.

    Archive segments decode, and templates synthesize, only as a lazy
    result is consumed — long after the verb that built it returned.
    """
    with _typed_decode_errors(path):
        yield from stream


def _typed_verb(verb):
    """Type a store verb's decode failures, eager and lazy alike.

    Failures raised while the verb runs, and while an iterator it
    returns drains, surface as :class:`CorruptInputError`.
    """

    @wraps(verb)
    def typed(self, *args, **kwargs):
        with _typed_decode_errors(self.path):
            result = verb(self, *args, **kwargs)
        if isinstance(result, Iterator):
            return _typed_stream(self.path, result)
        return result

    return typed


@dataclass(frozen=True)
class StoreInfo:
    """The uniform ``store.info()`` headline plus kind-specific lines.

    ``packets`` counts original (pre-compression) packets; ``flows`` is
    ``None`` where the source has no flow structure on disk (raw trace
    files).  ``detail_lines`` carries the kind-specific report the CLI
    prints verbatim.
    """

    kind: SourceKind
    path: Path
    size_bytes: int
    packets: int
    flows: int | None
    detail_lines: tuple[str, ...]

    def summary_lines(self) -> list[str]:
        return list(self.detail_lines)


@dataclass(frozen=True)
class ArchiveBuildReport:
    """What one archive write (build / append / re-encode) produced."""

    path: Path
    segments_written: int
    segments_total: int
    packets: int


class TraceStore:
    """Base session: the path + options, and every shared verb, once.

    The flow-level verbs run over :meth:`_segments`; verbs a kind
    cannot honor default to typed errors.  Use as a context manager;
    only the archive session holds an open file handle, but closing
    uniformly keeps caller code kind-agnostic.
    """

    kind: SourceKind

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        self.path = Path(path)
        self.options = options or Options()

    # -- capability scaffolding ------------------------------------------

    def _unsupported(self, verb: str, supported: str) -> CapabilityError:
        return CapabilityError(
            f"{verb} is not supported on a {self.kind.value} store "
            f"({self.path}); supported on: {supported}"
        )

    # -- the uniform surface ---------------------------------------------

    def _segments(self) -> ArchiveReader:
        """The segment sequence the flow-level verbs run over."""
        raise NotImplementedError

    def info(self) -> StoreInfo:
        raise NotImplementedError

    @_typed_verb
    def packets(
        self,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        stats: QueryStats | None = None,
    ) -> Iterator[PacketRecord]:
        """The (optionally filtered) packet stream, in time order.

        Damaged input raises :class:`CorruptInputError`, whether it is
        found when the stream is set up or while it is drained — as it
        does from every verb that reads flows or packets.
        """
        return self._packets(predicate, limit=limit, stats=stats)

    def _packets(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator[PacketRecord]:
        return packets_from_batches(
            self._row_batches(predicate, limit=limit, stats=stats)
        )

    def _row_batches(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator[list[tuple]]:
        """The replay as sorted row batches (container and archive)."""
        _check_limit(limit)
        segments = self._segments()
        if predicate is None and limit is None and stats is None:
            return segments.iter_row_batches(self.options.decompressor)
        return QueryEngine(segments).stream_row_batches(
            predicate, limit=limit, stats=stats, options=self.options
        )

    def _export_stream(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator:
        """What ``export`` writes: replay row batches, or packets."""
        return self._row_batches(predicate, limit=limit, stats=stats)

    @_typed_verb
    def flows(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> Iterator[FlowSummary]:
        """The flows matching ``predicate``, at most ``limit`` of them."""
        yield from self.query(predicate, limit=limit).flows

    @_typed_verb
    def query(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        """The matching flows plus the work accounting.

        ``limit=0`` scans nothing: no segment is decoded and a raw trace
        is not compressed.
        """
        _check_limit(limit)
        return QueryEngine(self._segments()).run(predicate, limit=limit)

    @_typed_verb
    def compress(
        self,
        dest: str | Path,
        *,
        options: Options | None = None,
        report: bool = False,
    ) -> CompressionReport | ArchiveBuildReport | RunReport:
        """Compress (or re-encode) this source into ``dest``.

        With ``report=True`` the whole run records into a private
        :mod:`repro.obs` registry and the structured
        :class:`~repro.obs.RunReport` is returned instead of the
        kind-specific build report — every counter, stage timer and
        high-water mark of the run, ready for ``to_json()``.  With
        ``report=False`` (default) metrics land in the ambient registry,
        unless ``options.metrics`` is False, which scopes a disabled
        registry around the verb.  The engine path taken is the same in
        all three cases.  Damaged input raises
        :class:`CorruptInputError`, as it does from every reading verb.
        """
        options = options or self.options
        if report:
            with record_run(
                "compress",
                meta={
                    "source": str(self.path),
                    "dest": str(Path(dest)),
                    "source_kind": self.kind.value,
                },
            ) as run:
                self._compress(dest, options=options)
            return run.report
        if not options.metrics:
            with obs_scoped(None):
                return self._compress(dest, options=options)
        return self._compress(dest, options=options)

    def _compress(
        self, dest: str | Path, *, options: Options
    ) -> CompressionReport | ArchiveBuildReport:
        raise NotImplementedError

    @_typed_verb
    def export(
        self,
        dest: str | Path,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        stats: QueryStats | None = None,
    ) -> ExportResult:
        """Write the (optionally filtered) packet stream to ``dest``.

        The output format follows the suffix (``.pcap`` → pcap-lite,
        anything else → TSH); a replay streams to disk one merge batch
        at a time, TSH packed straight from the replay rows, so memory
        never scales with the trace.  One verb covers what used to be
        three subcommands: decompress, replay, and convert.
        """
        return export_packet_stream(
            self._export_stream(predicate, limit=limit, stats=stats),
            dest,
        )

    def append(
        self,
        sources: Iterable[str | Path] | Iterable[PacketRecord],
        *,
        options: Options | None = None,
    ) -> ArchiveBuildReport:
        raise self._unsupported("append", "archive")

    def filter(
        self,
        dest: str | Path,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        options: Options | None = None,
    ) -> tuple[int, QueryStats]:
        raise self._unsupported("filter", "archive")

    @_typed_verb
    def stats(
        self,
        *,
        window: float | None = DEFAULT_WINDOW,
        origin: float = 0.0,
        since: float | None = None,
        until: float | None = None,
        top_k: int = DEFAULT_TOP_K,
        scan_fanout: int = DEFAULT_SCAN_FANOUT,
        anonymize_key: str | bytes | None = None,
        method: str = "index",
        query_stats: QueryStats | None = None,
    ) -> MatrixReport:
        """Windowed matrix statistics over the segment sequence.

        ``method="index"`` (default) rides the flow-metadata fast path —
        no packet is ever synthesized and the footer index prunes
        archive segments outside ``[since, until]``; ``method="decode"``
        is the full-decompression baseline producing identical windows.
        Pass ``query_stats`` to observe the segment/byte accounting.
        """
        return matrix_report_for_archive(
            self._segments(),
            window=window,
            origin=origin,
            since=since,
            until=until,
            top_k=top_k,
            scan_fanout=scan_fanout,
            anonymize_key=anonymize_key,
            method=method,
            config=self.options.decompressor,
            stats=query_stats,
        )

    @_typed_verb
    def matrices(
        self,
        *,
        window: float | None = DEFAULT_WINDOW,
        origin: float = 0.0,
        anonymize_key: str | bytes | None = None,
        predicate: Predicate | None = None,
        query_stats: QueryStats | None = None,
    ) -> Iterator[TrafficMatrix]:
        """Per-window traffic matrices, streamed one window at a time.

        ``predicate`` keeps only the matching flows (index-pruned like
        :meth:`query`); pass ``query_stats`` to observe the
        segment/byte accounting, complete once the stream is drained.
        """
        return _matrices_over(
            QueryEngine(self._segments()).iter_flow_records(
                predicate, config=self.options.decompressor, stats=query_stats
            ),
            window=window,
            origin=origin,
            anonymize_key=anonymize_key,
        )

    def window_probe(
        self,
        windows: int,
        *,
        since: float | None = None,
        until: float | None = None,
    ):
        raise self._unsupported("window_probe", "archive")

    def fidelity(self, *, options: Options | None = None):
        raise self._unsupported("fidelity", "tsh, pcap")

    def model(self) -> TraceModel:
        raise self._unsupported("model", "tsh, pcap, container")

    def addresses(self) -> list[int]:
        raise self._unsupported("listing the address dataset", "container")

    def sections(self):
        raise self._unsupported("listing stored sections", "container")

    def close(self) -> None:
        """Release any open handles (idempotent)."""

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shared helpers ---------------------------------------------------

    def _name(self, options: Options) -> str:
        return options.name or self.path.stem


class TraceFileStore(TraceStore):
    """Session over a raw packet-header trace (TSH or pcap).

    Every verb reads the trace as one stream of columnar chunks
    (:meth:`_chunks`): TSH streams from disk; pcap is decoded, and so
    validated, once at open into compact chunks (about 39 B a packet).
    The flow-level verbs run over the input's in-memory compression,
    one unindexed segment made on first use: a raw trace has no flow
    records on disk, so the compressor *is* the flow scanner, and it
    runs at most once per session.
    """

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        super().__init__(path, options)
        self.kind = sniff_kind(self.path)
        if self.kind not in (SourceKind.TSH, SourceKind.PCAP):
            raise CorruptInputError(
                f"{self.path}: not a raw trace file ({self.kind.value})"
            )
        self._trace: Trace | None = None
        self._compressed: CompressedTrace | None = None
        self._pcap_chunks: list[PacketColumns] | None = None
        if self.kind is SourceKind.PCAP:
            chunk_packets = self.options.streaming.chunk_packets
            with _typed_decode_errors(self.path):
                self._pcap_chunks = list(
                    read_pcap_columns(self.path, chunk_packets)
                )
        if self.packet_count() == 0:
            raise EmptyTraceError(f"{self.path}: trace holds no packets")
        self._one_segment = ArchiveReader.unindexed(
            self.path, self.path.stat().st_size, self._flow_scan
        )

    def _segments(self) -> ArchiveReader:
        return self._one_segment

    def _flow_scan(self) -> CompressedTrace:
        """This session's one in-memory compression of the trace."""
        if self._compressed is None:
            self._compressed = self._compress_in_memory(self.options)
        return self._compressed

    # -- reading -----------------------------------------------------------

    def _chunks(self, options: Options) -> Iterator[PacketColumns]:
        """The trace as columnar chunks — every verb's one packet source."""
        if self._pcap_chunks is not None:
            return iter(self._pcap_chunks)
        # Looked up at call time: instrumentation may wrap the reader.
        return trace_reader.read_columns(
            self.path, options.streaming.chunk_packets
        )

    def packet_count(self) -> int:
        if self._pcap_chunks is not None:
            return sum(map(len, self._pcap_chunks))
        return trace_reader.count_tsh_packets(self.path)

    def load_trace(self) -> Trace:
        """Materialize the whole trace, once per session (batch verbs).

        Every whole-trace read goes through here, so damaged input
        raises :class:`CorruptInputError` whichever verb reads it.
        """
        if self._trace is None:
            with _typed_decode_errors(self.path):
                self._trace = Trace(
                    list(self._packets(None, limit=None, stats=None)),
                    name=self._name(self.options),
                )
        return self._trace

    def _packets(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator[PacketRecord]:
        if predicate is not None or limit is not None or stats is not None:
            raise self._unsupported(
                "filtered packet replay", "container, archive"
            )
        return chain.from_iterable(
            chunk.to_records() for chunk in self._chunks(self.options)
        )

    _export_stream = _packets

    def stats(
        self,
        *,
        window: float | None = None,
        since: float | None = None,
        until: float | None = None,
        anonymize_key: str | bytes | None = None,
        method: str = "index",
        **report_args,
    ) -> TraceStatistics | MatrixReport:
        """Packet-level statistics, or the windowed matrix report.

        With no matrix arguments this stays the legacy packet-level
        :class:`~repro.trace.stats.TraceStatistics`.  Any matrix
        argument (a ``window`` span, time bounds, an anonymization key,
        ``method="decode"``) switches to the
        :class:`~repro.analysis.matrices.MatrixReport` every store
        builds (:meth:`TraceStore.stats`).
        """
        if (
            window is None
            and since is None
            and until is None
            and anonymize_key is None
            and method == "index"
        ):
            return compute_statistics(self.load_trace())
        return super().stats(
            window=window,
            since=since,
            until=until,
            anonymize_key=anonymize_key,
            method=method,
            **report_args,
        )

    def fidelity(self, *, options: Options | None = None):
        """Score this capture's compress→reconstruct roundtrip.

        Returns a :class:`~repro.analysis.fidelity.ScenarioFidelity`
        labelled with the store's name (``seed`` is 0 — captures have
        no generator seed): compression ratio against the TSH size plus
        the interarrival-entropy / temporal-complexity / flow-size-KS
        drift between this file and its reconstruction.
        """
        from repro.analysis.fidelity import score_roundtrip
        from repro.core.decompressor import decompress_trace

        options = options or self.options
        original = self.load_trace()
        compressed = self._compress_in_memory(options)
        data = serialize_compressed(
            compressed, backend=options.codec.backend, level=options.codec.level
        )
        reconstructed = decompress_trace(
            deserialize_compressed(data), options.decompressor
        )
        return score_roundtrip(
            self._name(options), 0, original, reconstructed, len(data)
        )

    def model(self) -> TraceModel:
        return TraceModel.fit(self._flow_scan())

    def info(self) -> StoreInfo:
        packets = self.packet_count()
        size = self.path.stat().st_size
        return StoreInfo(
            kind=self.kind,
            path=self.path,
            size_bytes=size,
            packets=packets,
            flows=None,
            detail_lines=(
                f"kind    : {self.kind.value} trace file",
                f"packets : {packets}",
                f"size    : {size} B",
            ),
        )

    # -- compressing -------------------------------------------------------

    def _compress(
        self, dest: str | Path, *, options: Options
    ) -> CompressionReport | ArchiveBuildReport:
        """Compress into ``dest`` — ``.fctca`` builds a segmented archive,
        anything else a single ``.fctc`` container."""
        dest = Path(dest)
        if dest.suffix.lower() == ".fctca":
            return _build_archive(dest, [self._chunks(options)], options)
        compressed = self._compress_in_memory(options)
        data = serialize_compressed(
            compressed, backend=options.codec.backend, level=options.codec.level
        )
        dest.write_bytes(data)
        return report_for_stream(compressed, data)

    def _compress_in_memory(self, options: Options) -> CompressedTrace:
        """Compress the chunk stream without serializing."""
        from repro.core.streaming import compress_chunks

        return compress_chunks(
            self._chunks(options), options.compressor, name=self._name(options)
        ).output


class ContainerStore(TraceStore):
    """Session over one compressed ``.fctc`` container.

    The container is decoded eagerly — it is the *compressed* form, a
    few percent of the trace — so corruption surfaces at
    :func:`repro.open` as :class:`CorruptInputError`, and every verb
    afterwards works off the validated datasets.
    """

    kind = SourceKind.CONTAINER

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        super().__init__(path, options)
        self._data = self.path.read_bytes()
        with _typed_decode_errors(self.path):
            self.compressed = deserialize_compressed(self._data)
            self._container_info = container_info(self._data)
        self._one_segment = ArchiveReader.unindexed(
            self.path, len(self._data), lambda: self.compressed
        )

    def _segments(self) -> ArchiveReader:
        return self._one_segment

    def _compress(
        self, dest: str | Path, *, options: Options
    ) -> CompressionReport | ArchiveBuildReport:
        """Re-encode: same datasets, different section backends.

        A ``None`` backend keeps each section's *source* backend — the
        default is a faithful rewrite, matching the archive verbs, not
        a silent fall-back to raw.  ``dest`` ending in ``.fctca`` wraps
        the container as a one-segment archive instead (epoch 0 —
        container timestamps are already relative to their base time).
        """
        dest = Path(dest)
        backend = options.codec.backend
        if backend is None:
            backend = self._source_backend_spec()
        if dest.suffix.lower() == ".fctca":
            from repro.archive.writer import ArchiveWriter

            with ArchiveWriter.create(
                dest,
                options=options,
                epoch=options.archive.epoch or 0.0,
                name=self._name(options),
            ) as writer:
                writer.write_segment(
                    self.compressed, backend=backend, level=options.codec.level
                )
                entries = writer.close()
            return ArchiveBuildReport(
                path=dest,
                segments_written=len(entries),
                segments_total=len(entries),
                packets=self.compressed.original_packet_count,
            )
        data = serialize_compressed(
            self.compressed, backend=backend, level=options.codec.level
        )
        dest.write_bytes(data)
        return report_for_stream(self.compressed, data)

    def _source_backend_spec(self) -> dict[str, str]:
        """Per-section backend names this container was stored with."""
        return {
            section.name: section.backend
            for section in self._container_info.sections
        }

    def model(self) -> TraceModel:
        return TraceModel.fit(self.compressed)

    def info(self) -> StoreInfo:
        """Everything ``repro-trace inspect`` prints, as structured lines."""
        info = self._container_info
        compressed = self.compressed
        sizes = dataset_sizes(compressed, format_version=info.format_version)
        lines = [
            f"name                 : {compressed.name}",
            f"format               : v{info.format_version}",
            f"flows (time-seq)     : {compressed.flow_count()}",
            f"original packets     : {compressed.original_packet_count}",
        ]
        short_count, long_count = compressed.template_counts()
        lines.append(f"short templates      : {short_count}")
        lines.append(f"long templates       : {long_count}")
        lines.append(f"unique destinations  : {len(compressed.addresses)}")
        total = sizes["total"] or 1
        lines.append("raw dataset sizes (pre-backend):")
        for dataset, size in sizes.items():
            if dataset == "total":
                lines.append(f"  {dataset:<22}: {size} B")
            else:
                lines.append(
                    f"  {dataset:<22}: {size} B ({100.0 * size / total:.1f}%)"
                )
        stored_total = info.total_bytes or 1
        lines.append("stored sections:")
        for section in info.sections:
            share = 100.0 * section.stored_bytes / stored_total
            ratio = 100.0 * section.stored_bytes / (section.raw_bytes or 1)
            lines.append(
                f"  {section.name:<22}: {section.stored_bytes} B "
                f"({section.backend}, {share:.1f}% of file, "
                f"{ratio:.1f}% of raw)"
            )
        lines.append(f"  {'file total':<22}: {info.total_bytes} B")
        return StoreInfo(
            kind=self.kind,
            path=self.path,
            size_bytes=len(self._data),
            packets=compressed.original_packet_count,
            flows=compressed.flow_count(),
            detail_lines=tuple(lines),
        )

    def addresses(self) -> list[int]:
        """The destination-address dataset, in index order."""
        return list(self.compressed.addresses)

    def sections(self):
        """Per-section storage framing (name, backend, sizes) as stored.

        A tuple of :class:`~repro.core.codec.SectionInfo` — what the
        CLI's backend report prints after an encoded compress.
        """
        return self._container_info.sections


class ArchiveStore(TraceStore):
    """Session over a segmented ``.fctca`` archive.

    Wraps an open :class:`~repro.archive.reader.ArchiveReader`; the
    footer index is parsed (and validated) at :func:`repro.open` time,
    segment bytes only when a verb actually needs them.  ``query``,
    ``flows`` and index-path ``stats``/``matrices`` share the reader's
    bounded cache of decoded segment views for the store's lifetime, so
    each segment decodes once per session (``append`` keeps the views
    of every segment it leaves unchanged).  The reader is this store's
    segment sequence.
    """

    kind = SourceKind.ARCHIVE

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        super().__init__(path, options)
        with _typed_decode_errors(self.path):
            self.reader = ArchiveReader(self.path)

    def close(self) -> None:
        self.reader.close()

    def _segments(self) -> ArchiveReader:
        return self.reader

    def _engine(self) -> QueryEngine:
        return QueryEngine(self.reader)

    @_typed_verb
    def filter(
        self,
        dest: str | Path,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        options: Options | None = None,
    ) -> tuple[int, QueryStats]:
        """Write the matching flows as a new sub-archive at ``dest``.

        ``options.codec`` re-encodes the surviving segments; a ``None``
        backend keeps each source segment's own section backends.
        """
        _check_limit(limit)
        options = options or self.options
        return self._engine().filter_to(
            dest, predicate, limit=limit, options=options
        )

    def _compress(
        self, dest: str | Path, *, options: Options
    ) -> CompressionReport | ArchiveBuildReport:
        """Re-encode every segment through ``options.codec`` into ``dest``."""
        dest = Path(dest)
        if dest.suffix.lower() != ".fctca":
            raise self._unsupported(
                "compressing an archive into a single container",
                "archive -> .fctca (or export + recompress)",
            )
        # A None backend keeps each source segment's own backends —
        # compress() with default options is a faithful rewrite.
        written, _stats = self._engine().filter_to(
            dest, MatchAll(), options=options
        )
        return ArchiveBuildReport(
            path=dest,
            segments_written=written,
            segments_total=written,
            packets=self.reader.packet_count(),
        )

    def append(
        self,
        sources: Iterable[str | Path] | Iterable[PacketRecord],
        *,
        options: Options | None = None,
    ) -> ArchiveBuildReport:
        """Extend the archive in place with more captures.

        ``sources`` is a list of trace paths (each opened through the
        façade and fed as its column chunks) or a bare packet iterable.
        The reader is reopened afterwards, so the session sees the
        appended segments; it keeps the cached views of every segment
        whose index entry the append left unchanged — all of them on
        success, since sealed segments are never rewritten.
        """
        options = options or self.options
        from repro.archive.writer import ArchiveWriter

        feeds = _packet_feeds(sources, options)
        previous = self.reader
        previous.close()
        try:
            with ArchiveWriter.append(self.path, options=options) as writer:
                before = writer.segment_count
                fed = 0
                for feed in feeds:
                    fed += writer.feed(feed)
                entries = writer.close()
        finally:
            self.reader = ArchiveReader(self.path)
            self.reader.adopt_views(previous)
        return ArchiveBuildReport(
            path=self.path,
            segments_written=len(entries) - before,
            segments_total=len(entries),
            packets=fed,
        )

    def window_probe(
        self,
        windows: int,
        *,
        since: float | None = None,
        until: float | None = None,
    ):
        """Per-window segment-overlap dry run (no payload decoded).

        Returns the :class:`~repro.query.engine.WindowProbe` rows the
        CLI prints for ``repro archive info --windows N`` — the decode
        cost estimate to consult before running windowed stats.
        """
        return self._engine().window_probe(windows, since=since, until=until)

    def info(self) -> StoreInfo:
        from repro.analysis.archive import (
            archive_overview_lines,
            backend_usage_lines,
            prune_probe_lines,
            segment_table,
        )

        lines = list(archive_overview_lines(self.reader))
        lines.extend(backend_usage_lines(self.reader))
        lines.extend(prune_probe_lines(self.reader))
        if self.reader.entries:
            lines.append("")
            lines.extend(segment_table(self.reader).splitlines())
        return StoreInfo(
            kind=self.kind,
            path=self.path,
            size_bytes=self.path.stat().st_size,
            packets=self.reader.packet_count(),
            flows=self.reader.flow_count(),
            detail_lines=tuple(lines),
        )


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 0:
        raise OptionsError(f"limit must be >= 0, got {limit}")


_STORE_CLASSES = {
    SourceKind.TSH: TraceFileStore,
    SourceKind.PCAP: TraceFileStore,
    SourceKind.CONTAINER: ContainerStore,
    SourceKind.ARCHIVE: ArchiveStore,
}


def open_store(path: str | Path, *, options: Options | None = None) -> TraceStore:
    """Open ``path`` as the right :class:`TraceStore` session.

    The one way in: sniffs the content (never just the suffix), raises
    the :mod:`repro.api.errors` types on anything unusable, and returns
    a session whose verbs pick engine paths internally.  Exposed as
    :func:`repro.open` and :func:`repro.api.open`.
    """
    kind = sniff_kind(path)
    return _STORE_CLASSES[kind](path, options)


def _matrices_over(
    records,
    *,
    window: float | None,
    origin: float,
    anonymize_key: str | bytes | None,
) -> Iterator[TrafficMatrix]:
    """Stream per-window matrices off a flow-record iterator."""
    anonymizer = (
        AddressAnonymizer(anonymize_key) if anonymize_key is not None else None
    )
    aggregator = StreamingWindowAggregator(
        window, origin=origin, anonymizer=anonymizer
    )
    for record in records:
        yield from aggregator.feed(record)
    yield from aggregator.finish()


# -- multi-source archive construction --------------------------------------


def _packet_feeds(
    sources: Iterable[str | Path] | Iterable[PacketRecord],
    options: Options,
) -> list[Iterator[PacketRecord] | Iterator[PacketColumns]]:
    """Normalize append/build sources into archive-writer feeds.

    Paths are opened through the façade (sniffed, typed errors — and
    validated *before* the destination is touched) and feed their column
    chunks; a bare :class:`PacketRecord` iterable passes through lazily
    as one feed.
    """
    iterator = iter(sources)
    try:
        first = next(iterator)
    except StopIteration:
        return []
    if isinstance(first, PacketRecord):
        return [chain([first], iterator)]
    feeds = []
    for source in chain([first], iterator):
        store = open_store(source, options=options)
        if not isinstance(store, TraceFileStore):
            raise CapabilityError(
                f"{source}: archive feeds take raw trace files, "
                f"not {store.kind.value}"
            )
        feeds.append(store._chunks(options))
    return feeds


def _build_archive(
    dest: Path,
    feeds: list[Iterator[PacketRecord] | Iterator[PacketColumns]],
    options: Options,
) -> ArchiveBuildReport:
    from repro.archive.writer import ArchiveWriter

    with ArchiveWriter.create(
        dest, options=options, name=options.name or dest.stem
    ) as writer:
        fed = 0
        for feed in feeds:
            fed += writer.feed(feed)
        entries = writer.close()
    return ArchiveBuildReport(
        path=dest,
        segments_written=len(entries),
        segments_total=len(entries),
        packets=fed,
    )


def create_archive(
    dest: str | Path,
    sources: Iterable[str | Path] | Iterable[PacketRecord],
    *,
    options: Options | None = None,
) -> ArchiveBuildReport:
    """Compress one or more captures into a new ``.fctca`` at ``dest``.

    Every source is sniffed and validated before ``dest`` is truncated;
    sources must be raw trace files (or one packet iterable), in time
    order, sharing one clock.
    """
    options = options or Options()
    dest = Path(dest)
    return _build_archive(dest, _packet_feeds(sources, options), options)
