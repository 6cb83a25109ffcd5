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
Internally each verb picks its path (chunked TSH reads, whole pcap
loads, or archive segments) by source kind — callers never choose a
module, only an :class:`~repro.api.options.Options` value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
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
    matrix_report_for_compressed,
)
from repro.core.flowmeta import flow_records
from repro.core.codec import (
    container_info,
    dataset_sizes,
    deserialize_compressed,
    serialize_compressed,
)
from repro.core.compressor import compress_trace
from repro.core.datasets import CompressedTrace
from repro.core.errors import CodecError, CompressionError
from repro.core.pipeline import CompressionReport, report_for, report_for_stream
from repro.core.replay import (
    IteratorSpecFeed,
    StreamingDecompressor,
    merge_row_batches,
    packets_from_batches,
)
from repro.core.decompressor import flow_specs
from repro.core.generator import TraceModel
from repro.flows.characterize import PacketValueError
from repro.net.packet import PacketRecord
from repro.obs import RunReport, record_run, scoped as obs_scoped
from repro.query.engine import (
    FlowSummary,
    QueryEngine,
    QueryResult,
    QueryStats,
    flow_summaries,
    summarize_record,
)
from repro.query.predicates import MatchAll, Predicate
from repro.trace.export import ExportResult, export_packet_stream
from repro.trace.framing import FrameDecodeError
from repro.trace.reader import count_tsh_packets, iter_tsh_packets
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
    """Base session: holds the path + options, defaults verbs to typed errors.

    Use as a context manager; only the archive session holds an open
    file handle, but closing uniformly keeps caller code kind-agnostic.
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
        raise NotImplementedError

    def _export_stream(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator:
        """What ``export`` writes: replay row batches, or packets."""
        return self._row_batches(predicate, limit=limit, stats=stats)

    def flows(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> Iterator[FlowSummary]:
        raise NotImplementedError

    def query(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        raise NotImplementedError

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
        all three cases.
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

    def stats(
        self,
        *,
        window: float | None = None,
        origin: float = 0.0,
        since: float | None = None,
        until: float | None = None,
        top_k: int = DEFAULT_TOP_K,
        scan_fanout: int = DEFAULT_SCAN_FANOUT,
        anonymize_key: str | bytes | None = None,
        method: str = "index",
    ) -> TraceStatistics | MatrixReport:
        raise self._unsupported("stats", "tsh, pcap, container, archive")

    def matrices(
        self,
        *,
        window: float | None = DEFAULT_WINDOW,
        origin: float = 0.0,
        anonymize_key: str | bytes | None = None,
    ) -> Iterator[TrafficMatrix]:
        raise self._unsupported("matrices", "tsh, pcap, container, archive")

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

    def _query_over_rows(
        self,
        rows: Iterator[FlowSummary],
        predicate: Predicate | None,
        limit: int | None,
        stats: QueryStats,
    ) -> Iterator[FlowSummary]:
        """Evaluate a predicate over summary rows, maintaining ``stats``."""
        predicate = predicate or MatchAll()
        if limit == 0:
            return
        for row in rows:
            stats.flows_scanned += 1
            if predicate.match_flow(row):
                stats.flows_matched += 1
                yield row
                if limit is not None and stats.flows_matched >= limit:
                    return


class TraceFileStore(TraceStore):
    """Session over a raw packet-header trace (TSH or pcap).

    TSH inputs stream in fixed-size chunks wherever possible; pcap — a
    format this library only keeps for interoperability — is read
    whole.  Flow-level verbs (``flows``/``query``) run the input
    through the streaming compressor first: a raw trace has no flow
    records on disk, so the compressor *is* the flow scanner.
    """

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        super().__init__(path, options)
        self.kind = sniff_kind(self.path)
        if self.kind not in (SourceKind.TSH, SourceKind.PCAP):
            raise CorruptInputError(
                f"{self.path}: not a raw trace file ({self.kind.value})"
            )
        self._trace: Trace | None = None
        if self.packet_count() == 0:
            raise EmptyTraceError(f"{self.path}: trace holds no packets")

    # -- reading -----------------------------------------------------------

    def packet_count(self) -> int:
        if self.kind is SourceKind.TSH:
            return count_tsh_packets(self.path)
        return len(self.load_trace())

    def load_trace(self) -> Trace:
        """Materialize the whole trace, once per session (batch verbs).

        Every whole-trace read goes through here, so a damaged pcap
        raises :class:`CorruptInputError` whichever verb reads it.
        """
        if self._trace is None:
            with _typed_decode_errors(self.path):
                if self.kind is SourceKind.TSH:
                    self._trace = Trace.load_tsh(self.path, name=self.options.name)
                else:
                    self._trace = Trace.load_pcap(self.path, name=self.options.name)
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
        if self.kind is SourceKind.TSH:
            return iter_tsh_packets(
                self.path, self.options.streaming.chunk_packets
            )
        return iter(self.load_trace().packets)

    _export_stream = _packets

    @_typed_verb
    def flows(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> Iterator[FlowSummary]:
        _check_limit(limit)
        stats = QueryStats()
        return self._query_over_rows(
            flow_summaries(0, self._compress_in_memory(self.options)),
            predicate,
            limit,
            stats,
        )

    @_typed_verb
    def query(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        _check_limit(limit)
        stats = QueryStats(
            segments_total=1,
            segments_matched=1,
            segments_decoded=1,
            bytes_total=self.path.stat().st_size,
            bytes_decoded=self.path.stat().st_size,
        )
        result = QueryResult(stats=stats)
        rows = flow_summaries(0, self._compress_in_memory(self.options))
        result.flows = list(self._query_over_rows(rows, predicate, limit, stats))
        return result

    @_typed_verb
    def stats(
        self,
        *,
        window: float | None = None,
        origin: float = 0.0,
        since: float | None = None,
        until: float | None = None,
        top_k: int = DEFAULT_TOP_K,
        scan_fanout: int = DEFAULT_SCAN_FANOUT,
        anonymize_key: str | bytes | None = None,
        method: str = "index",
    ) -> TraceStatistics | MatrixReport:
        """Packet-level statistics, or the windowed matrix report.

        With no matrix arguments this stays the legacy packet-level
        :class:`~repro.trace.stats.TraceStatistics`.  Any matrix
        argument (a ``window`` span, time bounds, an anonymization key,
        ``method="decode"``) switches to the
        :class:`~repro.analysis.matrices.MatrixReport` built from this
        trace's in-memory compression — a raw trace has no flow records
        on disk, so the compressor is the flow scanner here too.
        """
        if (
            window is None
            and since is None
            and until is None
            and anonymize_key is None
            and method == "index"
        ):
            return compute_statistics(self.load_trace())
        return matrix_report_for_compressed(
            self._compress_in_memory(self.options),
            source=str(self.path),
            window=window,
            origin=origin,
            since=since,
            until=until,
            top_k=top_k,
            scan_fanout=scan_fanout,
            anonymize_key=anonymize_key,
            method=method,
            config=self.options.decompressor,
        )

    @_typed_verb
    def matrices(
        self,
        *,
        window: float | None = DEFAULT_WINDOW,
        origin: float = 0.0,
        anonymize_key: str | bytes | None = None,
    ) -> Iterator[TrafficMatrix]:
        return _matrices_over(
            flow_records(
                self._compress_in_memory(self.options),
                self.options.decompressor,
            ),
            window=window,
            origin=origin,
            anonymize_key=anonymize_key,
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
        from repro.core.codec import (
            deserialize_compressed,
            serialize_compressed,
        )
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
        return TraceModel.fit(self._compress_in_memory(self.options))

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
        anything else a single ``.fctc`` container.

        TSH input is read in ``options.streaming.chunk_packets`` chunks
        (bounded memory); pcap has no chunked reader and loads whole.
        """
        dest = Path(dest)
        if dest.suffix.lower() == ".fctca":
            return _build_archive(dest, [self._input_feed(options)], options)
        backend, level = options.codec.backend, options.codec.level
        if self.kind is SourceKind.TSH:
            compressed = self._compress_in_memory(options)
            data = serialize_compressed(compressed, backend=backend, level=level)
            dest.write_bytes(data)
            return report_for_stream(compressed, data)
        trace = self.load_trace()
        trace.name = self._name(options)
        compressed = compress_trace(trace, options.compressor)
        data = serialize_compressed(compressed, backend=backend, level=level)
        dest.write_bytes(data)
        return report_for(trace, compressed, data)

    def _input_feed(self, options: Options):
        """The archive-build feed: columnar chunks for TSH input, packet
        records for pcap.  :meth:`ArchiveWriter.feed` accepts either."""
        if self.kind is SourceKind.TSH:
            from repro.trace.reader import read_columns

            return read_columns(self.path, options.streaming.chunk_packets)
        return iter(self.load_trace().packets)

    def _compress_in_memory(self, options: Options) -> CompressedTrace:
        """The flow scan behind ``flows``/``query``/``model``: compress
        without serializing, streaming where the format allows."""
        if self.kind is SourceKind.TSH:
            from repro.core.streaming import compress_tsh_file

            return compress_tsh_file(
                self.path,
                options.compressor,
                chunk_size=options.streaming.chunk_packets,
                name=self._name(options),
            ).output
        return compress_trace(self.load_trace(), options.compressor)


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

    def _row_batches(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator[list[tuple]]:
        _check_limit(limit)
        config = self.options.decompressor
        if predicate is None and limit is None and stats is None:
            return StreamingDecompressor(self.compressed, config).row_batches()
        if stats is None:
            stats = QueryStats()
        stats.segments_total = stats.segments_matched = 1
        stats.segments_decoded = 1
        stats.bytes_total = stats.bytes_decoded = len(self._data)
        match = (predicate or MatchAll()).match_flow

        def keep(record) -> bool:
            stats.flows_scanned += 1
            if limit is not None and stats.flows_matched >= limit:
                return False
            if match(summarize_record(0, self.compressed, record)):
                stats.flows_matched += 1
                return True
            return False

        feed = IteratorSpecFeed(
            flow_specs(self.compressed, config, record_filter=keep)
        )
        return merge_row_batches(feed, config)

    @_typed_verb
    def flows(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> Iterator[FlowSummary]:
        _check_limit(limit)
        return self._query_over_rows(
            flow_summaries(0, self.compressed), predicate, limit, QueryStats()
        )

    @_typed_verb
    def query(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        _check_limit(limit)
        stats = QueryStats(
            segments_total=1,
            segments_matched=1,
            segments_decoded=1,
            bytes_total=len(self._data),
            bytes_decoded=len(self._data),
        )
        result = QueryResult(stats=stats)
        result.flows = list(
            self._query_over_rows(
                flow_summaries(0, self.compressed), predicate, limit, stats
            )
        )
        return result

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
    ) -> MatrixReport:
        """The windowed traffic-matrix report over this container's flows."""
        return matrix_report_for_compressed(
            self.compressed,
            source=str(self.path),
            window=window,
            origin=origin,
            since=since,
            until=until,
            top_k=top_k,
            scan_fanout=scan_fanout,
            anonymize_key=anonymize_key,
            method=method,
            config=self.options.decompressor,
        )

    @_typed_verb
    def matrices(
        self,
        *,
        window: float | None = DEFAULT_WINDOW,
        origin: float = 0.0,
        anonymize_key: str | bytes | None = None,
    ) -> Iterator[TrafficMatrix]:
        return _matrices_over(
            flow_records(self.compressed, self.options.decompressor),
            window=window,
            origin=origin,
            anonymize_key=anonymize_key,
        )

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
    of every segment it leaves unchanged).
    """

    kind = SourceKind.ARCHIVE

    def __init__(self, path: str | Path, options: Options | None = None) -> None:
        super().__init__(path, options)
        from repro.archive.reader import ArchiveReader

        with _typed_decode_errors(self.path):
            self.reader = ArchiveReader(self.path)

    def close(self) -> None:
        self.reader.close()

    def _engine(self) -> QueryEngine:
        return QueryEngine(self.reader)

    def _row_batches(
        self,
        predicate: Predicate | None,
        *,
        limit: int | None,
        stats: QueryStats | None,
    ) -> Iterator[list[tuple]]:
        _check_limit(limit)
        if predicate is None and limit is None and stats is None:
            return self.reader.iter_row_batches(self.options.decompressor)
        return self._engine().stream_row_batches(
            predicate,
            limit=limit,
            stats=stats,
            options=self.options,
        )

    @_typed_verb
    def flows(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> Iterator[FlowSummary]:
        yield from self.query(predicate, limit=limit).flows

    @_typed_verb
    def query(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        _check_limit(limit)
        return self._engine().run(predicate, limit=limit)

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
        façade, so TSH streams and pcap loads) or a bare packet
        iterable.  The reader is reopened afterwards, so the session
        sees the appended segments; it keeps the cached views of every
        segment whose index entry the append left unchanged — all of
        them on success, since sealed segments are never rewritten.
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
            from repro.archive.reader import ArchiveReader

            self.reader = ArchiveReader(self.path)
            self.reader.adopt_views(previous)
        return ArchiveBuildReport(
            path=self.path,
            segments_written=len(entries) - before,
            segments_total=len(entries),
            packets=fed,
        )

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
        """Windowed matrix statistics straight off the archive.

        ``method="index"`` (default) rides the flow-metadata fast path —
        no packet is ever synthesized and the footer index prunes
        segments outside ``[since, until]``; ``method="decode"`` is the
        full-decompression baseline producing identical windows.  Pass
        ``query_stats`` to observe the segment/byte accounting.
        """
        return matrix_report_for_archive(
            self.reader,
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
    ) -> Iterator[TrafficMatrix]:
        return _matrices_over(
            self._engine().iter_flow_records(
                None, config=self.options.decompressor
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
) -> list[Iterator[PacketRecord]]:
    """Normalize append/build sources into packet iterators.

    Paths are opened through the façade (sniffed, typed errors — and
    validated *before* the destination is touched); a bare
    :class:`PacketRecord` iterable passes through lazily as one feed.
    """
    from itertools import chain

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
        # TSH sources feed columnar chunks, pcap sources records; the
        # archive writer accepts either feed shape.
        feeds.append(store._input_feed(options))
    return feeds


def _build_archive(
    dest: Path, feeds: list[Iterator[PacketRecord]], options: Options
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
