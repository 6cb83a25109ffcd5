"""The streaming front-end: the one way to drive the compressor.

The paper's algorithm is online — packets stream in, flows close on
FIN/RST or idle timeout, templates grow incrementally — and every
compress path runs it through this module:

:class:`StreamingCompressor`
    Accepts packets incrementally (single records, record chunks,
    :class:`~repro.net.columns.PacketColumns` chunks, or any iterable)
    and never holds more state than the active flows plus the
    compressed datasets.  Output bytes do not depend on how the feed is
    chunked or shaped, so record feeds are batched into column chunks
    (:func:`record_chunks`).  :func:`~repro.core.compressor.compress_trace`
    is a thin wrapper over it.

:func:`compress_chunks` / :func:`compress_tsh_file`
    Drive the streaming compressor over columnar chunks — any chunk
    iterator, or a ``.tsh`` file's chunked reader — holding no more than
    the chunks, the active flows and the compressed output (a few
    percent of the trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig, CompressorStats
from repro.core.datasets import CompressedTrace
from repro.net.columns import PacketColumns, columns_from_records
from repro.net.packet import PacketRecord
from repro.obs import current as obs_current
from repro.trace.reader import DEFAULT_CHUNK_PACKETS, read_columns


RECORD_CHUNK_PACKETS = 2048
"""Rows per column chunk a record feed is batched into: enough for the
chunk kernel, while a chunk's working arrays stay small beside the
flow table."""


def record_chunks(
    packets: Iterable[PacketRecord], size: int = RECORD_CHUNK_PACKETS
) -> Iterator[PacketColumns]:
    """A record iterable as column chunks of at most ``size`` rows.

    The compressor's bytes do not depend on chunking, so a record feed
    reaches the chunk kernel a chunk at a time, not one row per call.
    """
    packets = iter(packets)
    while batch := list(islice(packets, size)):
        yield columns_from_records(batch)


@dataclass
class StreamingStats:
    """Feed-side counters; compression counters live in ``stats``."""

    packets_fed: int = 0
    chunks_fed: int = 0
    peak_active_flows: int = 0


class StreamingCompressor:
    """Incremental compression over :class:`ColumnarFlowCompressor`.

    Feed packets with :meth:`add_packet` or whole chunks with
    :meth:`feed` / :meth:`feed_columns`, then call :meth:`finish`.
    Output is the same bytes however the feed is chunked or shaped.
    """

    def __init__(
        self,
        config: CompressorConfig | None = None,
        name: str = "compressed",
        base_time: float | None = None,
    ) -> None:
        self._name = name
        self._engine = ColumnarFlowCompressor(config, name=name, base_time=base_time)
        self.streaming_stats = StreamingStats()
        self._published = False
        self._segments_flushed = 0

    @property
    def config(self) -> CompressorConfig:
        return self._engine.config

    @property
    def stats(self) -> CompressorStats:
        return self._engine.stats

    @property
    def output(self) -> CompressedTrace:
        """The datasets built so far (complete only after :meth:`finish`)."""
        return self._engine.output

    @property
    def active_flows(self) -> int:
        """Flows currently open — the streaming working-set size."""
        return self._engine.active_flows

    @property
    def base_time(self) -> float | None:
        """The engine's time anchor (resolved from the first packet when
        not given explicitly); ``None`` until a packet has been fed."""
        return self._engine._base_time

    @property
    def segments_flushed(self) -> int:
        """How many sealed segments :meth:`flush_segment` has emitted."""
        return self._segments_flushed

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet (timestamp order across all feeds)."""
        self._engine.add_packet(packet)
        self.streaming_stats.packets_fed += 1
        self._note_peak()

    def feed(self, packets: Iterable[PacketRecord] | PacketColumns) -> int:
        """Process one chunk of packets; returns how many were fed.

        Accepts a :class:`~repro.net.columns.PacketColumns` chunk as
        well as any record iterable — columnar chunks route through
        :meth:`feed_columns`, records are batched into column chunks.
        """
        if isinstance(packets, PacketColumns):
            return self.feed_columns(packets)
        feed = self._engine.feed_columns
        count = 0
        for chunk in record_chunks(packets):
            count += feed(chunk)
        stats = self.streaming_stats
        stats.packets_fed += count
        stats.chunks_fed += 1
        self._note_peak()
        return count

    def feed_columns(self, columns: PacketColumns) -> int:
        """Process one columnar chunk; returns how many rows were fed."""
        count = self._engine.feed_columns(columns)
        stats = self.streaming_stats
        stats.packets_fed += count
        stats.chunks_fed += 1
        self._note_peak()
        return count

    def _note_peak(self) -> None:
        # The engine tracks its own high-water mark; this one spans the
        # engines that flush_segment swaps in.
        peak = self._engine.peak_active_flows
        if peak > self.streaming_stats.peak_active_flows:
            self.streaming_stats.peak_active_flows = peak

    def finish(self) -> CompressedTrace:
        """Flush open flows and return the completed datasets.

        The first call also publishes the run's counters to the active
        :mod:`repro.obs` registry (idempotent — ``finish`` may be called
        again, e.g. via :meth:`to_bytes`).
        """
        output = self._engine.finish()
        if not self._published:
            self._published = True
            registry = obs_current()
            self._engine.stats.publish(registry)
            feed = self.streaming_stats
            registry.counter("stream.chunks", "chunks fed to the compressor").inc(
                feed.chunks_fed
            )
            registry.gauge(
                "stream.active_flows.peak",
                "high-water mark of concurrently open flows",
            ).set_max(feed.peak_active_flows)
        return output

    def flush_segment(self, name: str | None = None) -> CompressedTrace | None:
        """Seal everything fed since the last flush; keep accepting feeds.

        The live-capture primitive: closes every open flow, returns the
        finished :class:`~repro.core.datasets.CompressedTrace` (``None``
        when nothing was fed since the last flush), and swaps in a fresh
        engine anchored to the *same* time base — so a long-running
        feed can rotate sealed segments into an archive without ever
        calling :meth:`finish`.  Output is identical to compressing each
        inter-flush packet run with its own compressor on a shared
        ``base_time``, which is exactly how the archive writer has
        always built segments.  ``name`` labels the sealed segment
        (default: the compressor's name plus a running ordinal).
        """
        outgoing = self._engine
        output = outgoing.finish()
        sealed = bool(output.time_seq)
        if sealed:
            if name is not None:
                output.name = name
            self._segments_flushed += 1
            outgoing.stats.publish(obs_current())
        # A fresh engine rather than an in-place reset — even for an
        # empty flush, because ``finish`` is terminal on an engine.
        # Segment equality with a one-compressor-per-segment build
        # depends on starting from pristine matcher/dataset state, and
        # the constructor is the one place that state is defined.  The
        # carried base_time keeps the segment clocks comparable — the
        # property the archive time index relies on.
        self._engine = ColumnarFlowCompressor(
            outgoing.config,
            name=f"{self._name}+{self._segments_flushed}",
            base_time=outgoing._base_time,
        )
        return output if sealed else None

    def to_bytes(
        self, *, backend: str | None = None, level: int | None = None
    ) -> bytes:
        """Finish (idempotently) and serialize through ``backend``.

        The streaming shortcut for "compress this feed into a file":
        equivalent to ``serialize_compressed(self.finish(), ...)`` —
        backend selection happens at serialization time, so one finished
        compressor can be written with several backends.
        """
        from repro.core.codec import serialize_compressed

        return serialize_compressed(self.finish(), backend=backend, level=level)


def compress_chunks(
    chunks: Iterable[PacketColumns],
    config: CompressorConfig | None = None,
    *,
    name: str = "compressed",
) -> StreamingCompressor:
    """Compress a stream of columnar chunks, timing read and clustering.

    Returns the finished :class:`StreamingCompressor` so callers can read
    ``output`` alongside ``stats`` / ``streaming_stats``.
    """
    compressor = StreamingCompressor(config, name=name)
    registry = obs_current()
    # A lazy chunk source decodes inside ``next``, so timing that call
    # captures read+decode and the feed call captures clustering — two
    # timer observations per chunk, nothing per packet.
    decode_timer = registry.timer(
        "stage.decode", "wall time reading and decoding input chunks"
    )
    cluster_timer = registry.timer(
        "stage.cluster", "wall time clustering decoded chunks"
    )
    chunks = iter(chunks)
    while True:
        with decode_timer.time():
            chunk = next(chunks, None)
        if chunk is None:
            break
        with cluster_timer.time():
            compressor.feed_columns(chunk)
    compressor.finish()
    return compressor


def compress_tsh_file(
    path: str | Path,
    config: CompressorConfig | None = None,
    *,
    chunk_size: int = DEFAULT_CHUNK_PACKETS,
    name: str | None = None,
) -> StreamingCompressor:
    """:func:`compress_chunks` over a ``.tsh`` file's
    :func:`~repro.trace.reader.read_columns`, ``chunk_size`` at a time."""
    return compress_chunks(
        read_columns(path, chunk_size), config, name=name or Path(path).stem
    )
