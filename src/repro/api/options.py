"""The one layered configuration object of the façade.

Before the façade, every subsystem grew its own knobs: the compressor
has :class:`~repro.core.compressor.CompressorConfig`, the decompressor
:class:`~repro.core.decompressor.DecompressorConfig`, the codec takes
``backend``/``level`` strings, the streaming front-end chunk sizes,
and the archive writer segment bounds.  :class:`Options`
nests them into one validated value that every façade verb (and, via
their ``options=`` keywords, the archive writer and query engine)
accepts:

* ``options.codec`` — section backend + level (:class:`CodecOptions`)
* ``options.streaming`` — input chunking (:class:`StreamingOptions`)
* ``options.archive`` — segment rotation bounds + epoch
  (:class:`ArchiveOptions`)
* ``options.serve`` — ingest-daemon sources, queue bounds, drain policy
  (:class:`ServeOptions`)
* ``options.compressor`` / ``options.decompressor`` — the paper's
  algorithm tunables, unchanged.

All layers are frozen dataclasses: derive variants with
:func:`dataclasses.replace` or build one from flat CLI-style knobs with
:meth:`Options.make`.  Validation happens eagerly at construction and
raises :class:`~repro.api.errors.OptionsError`, so a bad combination
fails before any input byte is read or output path truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.api.errors import OptionsError
from repro.core.backends import backend_names
from repro.core.compressor import CompressorConfig
from repro.core.decompressor import DecompressorConfig

# Mirrored defaults (imported, not copied) so Options and the underlying
# modules can never disagree about what "default" means.
from repro.trace.framing import DEFAULT_MAX_FRAME_BYTES
from repro.trace.reader import DEFAULT_CHUNK_PACKETS
from repro.archive.writer import DEFAULT_SEGMENT_PACKETS, DEFAULT_SEGMENT_SPAN

@dataclass(frozen=True)
class CodecOptions:
    """Section-backend choice for serialized containers and segments.

    ``backend`` is a registered backend name (``raw``/``zlib``/``bz2``/
    ``lzma``), ``"auto"`` to trial each backend per section, or ``None``
    for the library default (``raw``, the paper's format).  ``level`` is
    the backend compression level; with ``backend=None`` it is advisory,
    exactly as the pre-façade entry points treated it.
    """

    backend: str | None = None
    level: int | None = None

    def __post_init__(self) -> None:
        # Re-raise the codec's validation as the façade's typed error.
        from repro.core.codec import validate_backend_request
        from repro.core.errors import CodecError

        try:
            validate_backend_request(self.backend, self.level)
        except (ValueError, CodecError) as exc:
            raise OptionsError(str(exc)) from exc


@dataclass(frozen=True)
class StreamingOptions:
    """How compression reads its input: ``chunk_packets`` per read.

    Every TSH input is read in chunks of this many packets (bounded
    memory); the output bytes do not depend on the chunk size.
    """

    chunk_packets: int = DEFAULT_CHUNK_PACKETS

    def __post_init__(self) -> None:
        if self.chunk_packets < 1:
            raise OptionsError(
                f"chunk_packets must be >= 1, got {self.chunk_packets}"
            )

    @property
    def engine(self) -> str:
        """Always ``"columnar"``, the one compression engine.

        Read only by ``perf_ledger/workloads.py::_replica_ingest``, which
        passes it to ``SegmentFeeder(engine=...)``; delete both with the
        next change to ``perf_ledger/``.
        """
        return "columnar"


@dataclass(frozen=True)
class ArchiveOptions:
    """Segment rotation bounds and time base for ``.fctca`` writes."""

    segment_packets: int = DEFAULT_SEGMENT_PACKETS
    segment_span: float | None = DEFAULT_SEGMENT_SPAN
    epoch: float | None = None

    def __post_init__(self) -> None:
        if self.segment_packets < 1:
            raise OptionsError(
                f"segment_packets must be >= 1: {self.segment_packets}"
            )
        if self.segment_span is not None and self.segment_span <= 0:
            raise OptionsError(
                f"segment_span must be positive: {self.segment_span}"
            )


DEFAULT_QUEUE_CHUNKS = 64
"""Per-source ingest queue bound, in decoded packet chunks.

Each queue slot holds one decoded payload chunk (at most one socket
frame or one tail read — a few thousand packets); the bound is what
keeps daemon memory independent of how fast a source bursts.
"""

DEFAULT_DRAIN_TIMEOUT = 10.0
"""Seconds a draining daemon waits for queued packets to compress."""

DEFAULT_TAIL_POLL_SECONDS = 0.25
"""How often a ``tail:`` source polls its file for growth."""


@dataclass(frozen=True)
class ServeOptions:
    """The ingest-daemon layer: sources, queue bounds, drain policy.

    ``sources`` are ``scheme:target[+format]`` strings (see
    :func:`repro.serve.sources.parse_source` for the grammar); rotation
    bounds stay where they always lived, in :class:`ArchiveOptions` —
    this layer only adds what a long-running service needs on top:
    ``rotate_seconds`` force-flushes quiet sources on a wall clock,
    ``queue_chunks`` bounds each source's ingest queue (backpressure
    beyond it), ``drain_timeout`` caps the graceful SIGTERM/SIGINT
    drain, ``stop_after_packets`` turns the daemon into a bounded run
    (smoke tests, benchmarks), and ``prometheus_port`` mounts the text
    exposition endpoint (0 picks an ephemeral port).
    """

    sources: tuple[str, ...] = ()
    rotate_seconds: float | None = None
    queue_chunks: int = DEFAULT_QUEUE_CHUNKS
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    stop_after_packets: int | None = None
    prometheus_port: int | None = None
    tail_poll_seconds: float = DEFAULT_TAIL_POLL_SECONDS

    def __post_init__(self) -> None:
        # Lazy: the parser is pure and import-light, but keeping the
        # serve package out of this module's import graph preserves the
        # façade's fast startup.
        from repro.serve.sources import parse_source

        if not isinstance(self.sources, tuple):
            object.__setattr__(self, "sources", tuple(self.sources))
        for spec in self.sources:
            try:
                parse_source(spec)
            except ValueError as exc:
                raise OptionsError(str(exc)) from exc
        if self.rotate_seconds is not None and self.rotate_seconds <= 0:
            raise OptionsError(
                f"rotate_seconds must be positive: {self.rotate_seconds}"
            )
        if self.queue_chunks < 1:
            raise OptionsError(
                f"queue_chunks must be >= 1: {self.queue_chunks}"
            )
        if self.max_frame_bytes < 44:
            raise OptionsError(
                "max_frame_bytes must hold at least one 44-byte record: "
                f"{self.max_frame_bytes}"
            )
        if self.drain_timeout <= 0:
            raise OptionsError(
                f"drain_timeout must be positive: {self.drain_timeout}"
            )
        if self.stop_after_packets is not None and self.stop_after_packets < 1:
            raise OptionsError(
                f"stop_after_packets must be >= 1: {self.stop_after_packets}"
            )
        if self.prometheus_port is not None and not (
            0 <= self.prometheus_port <= 65535
        ):
            raise OptionsError(
                f"prometheus_port out of range: {self.prometheus_port}"
            )
        if self.tail_poll_seconds <= 0:
            raise OptionsError(
                f"tail_poll_seconds must be positive: {self.tail_poll_seconds}"
            )


@dataclass(frozen=True)
class Options:
    """Every knob of the compression system, in one validated value.

    The zero-argument ``Options()`` reproduces the library's historic
    defaults (raw sections, the paper's algorithm constants) — safe for
    fixtures and byte-level compatibility.  :meth:`production` is the deployment preset.
    ``name`` overrides the compressed trace's embedded name (default:
    the input file's stem).
    """

    codec: CodecOptions = field(default_factory=CodecOptions)
    streaming: StreamingOptions = field(default_factory=StreamingOptions)
    archive: ArchiveOptions = field(default_factory=ArchiveOptions)
    serve: ServeOptions = field(default_factory=ServeOptions)
    compressor: CompressorConfig = field(default_factory=CompressorConfig)
    decompressor: DecompressorConfig = field(default_factory=DecompressorConfig)
    name: str | None = None
    metrics: bool = True
    """Record :mod:`repro.obs` metrics during façade verbs.

    ``False`` scopes a disabled registry around each verb, reducing the
    instrumentation to no-op factory calls — the knob the overhead
    benchmark and metrics-averse embedders use.  Reports
    (``compress(..., report=True)``) force their own scoped registry
    regardless, since a report without metrics would be empty.
    """

    @classmethod
    def make(
        cls,
        *,
        backend: str | None = None,
        level: int | None = None,
        chunk_packets: int | None = None,
        segment_packets: int | None = None,
        segment_span: float | None = None,
        epoch: float | None = None,
        name: str | None = None,
        compressor: CompressorConfig | None = None,
        decompressor: DecompressorConfig | None = None,
    ) -> "Options":
        """Build an :class:`Options` from flat, CLI-shaped knobs.

        ``None`` means "keep the default" everywhere, which lets a thin
        caller forward its optional flags verbatim.
        """
        streaming_kwargs = {}
        if chunk_packets is not None:
            streaming_kwargs["chunk_packets"] = chunk_packets
        archive_kwargs = {}
        if segment_packets is not None:
            archive_kwargs["segment_packets"] = segment_packets
        if segment_span is not None:
            archive_kwargs["segment_span"] = segment_span
        if epoch is not None:
            archive_kwargs["epoch"] = epoch
        return cls(
            codec=CodecOptions(backend=backend, level=level),
            streaming=StreamingOptions(**streaming_kwargs),
            archive=ArchiveOptions(**archive_kwargs),
            compressor=compressor or CompressorConfig(),
            decompressor=decompressor or DecompressorConfig(),
            name=name,
        )

    @classmethod
    def production(cls) -> "Options":
        """The deployment preset: entropy-coded sections.

        ``zlib`` sections (the backend sweep's best ratio/throughput
        trade) and the default archive rotation.  Everything else stays
        at the paper's constants.
        """
        return cls(codec=CodecOptions(backend="zlib"))

    def with_codec(
        self, backend: str | None, level: int | None = None
    ) -> "Options":
        """A copy with the codec layer swapped — the commonest variant."""
        return replace(self, codec=CodecOptions(backend=backend, level=level))

    def validate_backend_name(self) -> None:
        """Raise :class:`OptionsError` for an unregistered backend name.

        Construction already validates; this re-check exists for callers
        that mutate the registry between building options and using them.
        """
        names = (*backend_names(), "auto", None)
        if self.codec.backend not in names:
            raise OptionsError(f"unknown backend: {self.codec.backend!r}")
