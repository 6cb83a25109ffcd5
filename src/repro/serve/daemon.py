"""The ``repro serve`` event loop: many sources, one sealed archive.

One asyncio loop runs three kinds of task per daemon:

* **producers** — one per source: socket servers decode length-framed
  TSH/pcap payloads per connection, tail sources poll a growing file;
  both push decoded :class:`~repro.net.columns.PacketColumns` chunks
  (one per socket or tail read) into the source's bounded queue
  (``put_nowait`` first; a full queue counts a backpressure event and
  awaits — that bound, times the chunk size, is the daemon's whole
  ingest memory);
* **consumers** — one per source: pop chunks and feed the source's
  :class:`~repro.archive.writer.SegmentFeeder`, which rotates sealed
  segments into the shared :class:`~repro.archive.writer.ArchiveWriter`
  exactly as the offline build path would;
* **stage timers** — ``stage.serve.read`` (one socket or tail read:
  awaiting the bytes, framing and decoding them), ``stage.serve.queue_wait``
  (a decoded chunk's wait from its read to its compress, backpressure
  included), ``stage.serve.compress`` (one chunk through the feeder)
  and ``stage.serve.seal`` (one segment's seal: closing its flows and
  writing it) observe once per chunk or segment, never per packet;
* **services** — the optional wall-clock rotation tick and the optional
  Prometheus text endpoint.

Shutdown is one path for every trigger (SIGTERM, SIGINT, every socket
source reaching end-of-stream, or the ``stop_after_packets`` budget):
producers stop accepting, in-flight connections and tail reads get
until ``drain_timeout`` to finish, consumers drain their queues, each
feeder flushes its open segment, and the writer seals the archive with
the fsync-backed footer.  A drain that overruns the timeout is *cut*,
not hung: whatever compressed is sealed, the loss is counted
(``serve.dropped_chunks``) and reported.

Because the loop is single-threaded, feeder and writer calls never
interleave mid-operation; the writer's internal lock is a second line
of defense, not the correctness argument.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
from dataclasses import dataclass, field
from time import perf_counter

from repro.api.errors import OptionsError
from repro.api.options import Options
from repro.archive.writer import ArchiveWriter, SegmentFeeder
from repro.core.datasets import CompressedTrace
from repro.net.columns import PacketColumns
from repro.obs import current as obs_current, render_prometheus
from repro.serve.sources import (
    SCHEME_TAIL,
    SCHEME_UNIX,
    SourceSpec,
    parse_source,
)
from repro.trace.framing import (
    FrameDecodeError,
    LengthFramer,
    stream_decoder,
)

_log = logging.getLogger(__name__)

_SOCKET_READ_BYTES = 1 << 16
_TAIL_READ_BYTES = 1 << 18


@dataclass
class SourceReport:
    """What one source ingested over the daemon's lifetime."""

    label: str
    source: str
    packets: int = 0
    chunks: int = 0
    segments: int = 0
    backpressure_waits: int = 0
    decode_errors: int = 0

    def summary_line(self) -> str:
        return (
            f"  {self.label:<8s} {self.source:<32s} "
            f"packets={self.packets:<8d} segments={self.segments:<4d} "
            f"backpressure={self.backpressure_waits} "
            f"decode_errors={self.decode_errors}"
        )


@dataclass
class ServeReport:
    """The daemon's final accounting, printed by the CLI."""

    archive: str
    packets: int = 0
    segments: int = 0
    clean: bool = True
    stop_reason: str = "end of stream"
    dropped_chunks: int = 0
    prometheus_port: int | None = None
    sources: list[SourceReport] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        drain = "clean" if self.clean else f"cut ({self.dropped_chunks} chunk(s) dropped)"
        lines = [
            f"sealed {self.segments} segments / {self.packets} packets "
            f"to {self.archive}",
            f"stop: {self.stop_reason}; drain: {drain}",
        ]
        lines.extend(source.summary_line() for source in self.sources)
        return lines


class _Source:
    """Runtime state of one ingest source: queue, feeder, metrics."""

    def __init__(
        self,
        spec: SourceSpec,
        label: str,
        feeder: SegmentFeeder,
        queue_chunks: int,
    ) -> None:
        self.spec = spec
        self.label = label
        self.feeder = feeder
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_chunks)
        self.report = SourceReport(label=label, source=str(spec))
        registry = obs_current()
        prefix = f"serve.source.{label}"
        self.packets_counter = registry.counter(
            f"{prefix}.packets", "packets ingested from this source"
        )
        self.chunks_counter = registry.counter(
            f"{prefix}.chunks", "decoded chunks enqueued from this source"
        )
        self.segments_counter = registry.counter(
            f"{prefix}.segments", "segments this source sealed into the archive"
        )
        self.backpressure_counter = registry.counter(
            f"{prefix}.backpressure",
            "enqueue attempts that found the queue full and had to wait",
        )
        self.decode_errors_counter = registry.counter(
            f"{prefix}.decode_errors", "framing/format violations on this source"
        )
        self.queue_depth_gauge = registry.gauge(
            f"{prefix}.queue_depth.peak", "high-water mark of queued chunks"
        )
        self.connections_counter = registry.counter(
            f"{prefix}.connections", "client connections accepted"
        )

    def record_decode_error(self, exc: Exception) -> None:
        self.report.decode_errors += 1
        self.decode_errors_counter.inc()
        _log.warning("source %s: %s", self.label, exc)


class _Daemon:
    def __init__(self, archive: str, options: Options) -> None:
        if not options.serve.sources:
            raise OptionsError("serve needs at least one source")
        self._archive_path = os.fspath(archive)
        self._options = options
        self._serve = options.serve
        self._registry = None
        self._writer: ArchiveWriter | None = None
        self._sources: list[_Source] = []
        self._stop = None  # asyncio.Event, created inside the loop
        self._stop_reason = "end of stream"
        self._total_packets = 0
        self._report: ServeReport | None = None
        self._read_timer = self._queue_timer = self._compress_timer = None

    # -- lifecycle --------------------------------------------------------

    def run(self) -> ServeReport:
        return asyncio.run(self._run())

    async def _run(self) -> ServeReport:
        self._registry = registry = obs_current()
        self._read_timer = registry.timer(
            "stage.serve.read",
            "wall time of one source read: awaiting, framing and decoding it",
        )
        self._queue_timer = registry.timer(
            "stage.serve.queue_wait",
            "wall time a decoded chunk waits between its read and its compress",
        )
        self._compress_timer = registry.timer(
            "stage.serve.compress", "wall time feeding one chunk to its feeder"
        )
        seal_timer = registry.timer(
            "stage.serve.seal",
            "wall time sealing one segment: closing its flows and writing it",
        )
        self._stop = asyncio.Event()
        options = self._options
        self._writer = ArchiveWriter.create(self._archive_path, options=options)
        self._report = ServeReport(archive=self._archive_path)
        for index, spec_string in enumerate(self._serve.sources):
            spec = parse_source(spec_string)
            label = f"{spec.scheme}{index}"
            feeder = SegmentFeeder(
                self._make_sink(label),
                epoch=self._writer.epoch_ref,
                segment_packets=options.archive.segment_packets,
                segment_span=options.archive.segment_span,
                config=options.compressor,
                name=label,
                seal_timer=seal_timer,
            )
            self._sources.append(
                _Source(spec, label, feeder, self._serve.queue_chunks)
            )
        self._install_signal_handlers()
        metrics_server = await self._start_prometheus()
        rotator = (
            asyncio.create_task(self._rotate_periodically())
            if self._serve.rotate_seconds is not None
            else None
        )
        producers = [
            asyncio.create_task(
                self._supervise(source), name=f"produce:{source.label}"
            )
            for source in self._sources
        ]
        consumers = [
            asyncio.create_task(
                self._consume(source), name=f"consume:{source.label}"
            )
            for source in self._sources
        ]
        report = self._report
        try:
            # Phase 1 — run: until every producer returned (each source
            # hit end-of-stream or died) or a stop was requested
            # (signal / packet budget), whichever comes first.
            stop_wait = asyncio.create_task(self._stop.wait())
            live = list(producers)
            while live and not self._stop.is_set():
                await asyncio.wait(
                    [*live, stop_wait], return_when=asyncio.FIRST_COMPLETED
                )
                live = [task for task in live if not task.done()]
            self._stop.set()
            stop_wait.cancel()
            # Phase 2 — drain: one shared deadline bounds both the
            # producers' wind-down (in-flight connections, final tail
            # read) and the consumers emptying their queues.
            deadline = (
                asyncio.get_running_loop().time() + self._serve.drain_timeout
            )
            cut_producers = await self._await_until(producers, deadline)
            if cut_producers:
                self._stop_reason += "; producer wind-down timed out"
            report.dropped_chunks += await self._drain(consumers, deadline)
        finally:
            self._stop.set()
            for task in (*producers, *consumers):
                task.cancel()
            if rotator is not None:
                rotator.cancel()
            if metrics_server is not None:
                metrics_server.close()
            await asyncio.gather(
                *producers,
                *consumers,
                *((rotator,) if rotator else ()),
                return_exceptions=True,
            )
            self._close_feeders()
            self._writer.close()
        report.packets = self._total_packets
        report.segments = self._writer.segment_count
        report.stop_reason = self._stop_reason
        report.clean = report.dropped_chunks == 0
        report.sources = [source.report for source in self._sources]
        self._registry.gauge(
            "serve.drain.clean", "1 when the last drain lost nothing"
        ).set(1.0 if report.clean else 0.0)
        return report

    async def _await_until(self, tasks, deadline: float) -> list:
        """Wait for ``tasks`` until ``deadline``; cancel and return stragglers."""
        loop = asyncio.get_running_loop()
        pending = [task for task in tasks if not task.done()]
        if not pending:
            return []
        timeout = max(0.0, deadline - loop.time())
        _done, still_pending = await asyncio.wait(pending, timeout=timeout)
        for task in still_pending:
            task.cancel()
        if still_pending:
            await asyncio.gather(*still_pending, return_exceptions=True)
        return list(still_pending)

    async def _drain(self, consumers, deadline: float) -> int:
        """Wait for consumers to empty their queues; cut at the deadline.

        Producers have already stopped, so each queue ends with its
        sentinel; a consumer that cannot finish by the deadline is
        cancelled and whatever chunks it still held are counted as
        dropped.
        """
        cut = await self._await_until(consumers, deadline)
        dropped = 0
        if cut:
            self._stop_reason += "; drain timeout"
            for source in self._sources:
                while not source.queue.empty():
                    if source.queue.get_nowait() is not None:
                        dropped += 1
        if dropped:
            self._registry.counter(
                "serve.dropped_chunks",
                "queued chunks discarded because the drain timed out",
            ).inc(dropped)
            _log.warning("drain timed out; dropped %d queued chunk(s)", dropped)
        return dropped

    def _close_feeders(self) -> None:
        """Flush every open segment; archive sealing follows."""
        for source in self._sources:
            sealed_before = source.feeder.segments_sealed
            try:
                source.feeder.close()
            except Exception:  # noqa: BLE001 — one bad source must not
                _log.exception(
                    "source %s: final flush failed", source.label
                )  # lose the others' flushes
            if source.feeder.segments_sealed > sealed_before:
                _log.info(
                    "source %s: flushed final segment", source.label
                )

    def _make_sink(self, label: str):
        def sink(compressed: CompressedTrace) -> None:
            self._writer.write_segment(compressed)
            registry = self._registry
            registry.counter(
                "archive.segments_rotated", "segments closed and landed on disk"
            ).inc()
            registry.counter(
                "serve.segments", "segments sealed by the ingest daemon"
            ).inc()
            source = next(s for s in self._sources if s.label == label)
            source.report.segments += 1
            source.segments_counter.inc()
            if self._serve.prometheus_port is not None:
                # Live window snapshot: fold the sealed segment's flows
                # into one matrix and mirror its statistics onto the
                # /metrics gauges.  The fast path walks time-seq only —
                # no packet synthesis on the ingest thread.
                from repro.analysis.matrices import (
                    publish_window_gauges,
                    window_stats_for_compressed,
                )

                stats = window_stats_for_compressed(compressed)
                if stats is not None:
                    publish_window_gauges(stats, registry)

        return sink

    def _request_stop(self, reason: str) -> None:
        if self._stop is not None and not self._stop.is_set():
            self._stop_reason = reason
            _log.info("stopping: %s", reason)
            self._stop.set()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):  # non-unix / nested
                pass

    # -- producers --------------------------------------------------------

    async def _supervise(self, source: _Source) -> None:
        """Run one source's producer; always leave the queue a sentinel."""
        try:
            if source.spec.scheme == SCHEME_TAIL:
                await self._run_tail(source)
            else:
                await self._run_socket(source)
        except Exception:  # noqa: BLE001 — a dead source must not kill the daemon
            _log.exception("source %s: producer failed", source.label)
        finally:
            try:
                source.queue.put_nowait(None)
            except asyncio.QueueFull:
                # The consumer is behind; losing the sentinel only
                # matters if it never catches up, and that case is cut
                # by the drain deadline anyway.
                pass

    async def _enqueue(self, source: _Source, columns: PacketColumns) -> None:
        queue = source.queue
        item = (perf_counter(), columns)  # stamped for stage.serve.queue_wait
        try:
            queue.put_nowait(item)
        except asyncio.QueueFull:
            source.report.backpressure_waits += 1
            source.backpressure_counter.inc()
            await queue.put(item)
        source.report.chunks += 1
        source.chunks_counter.inc()
        source.queue_depth_gauge.set_max(float(queue.qsize()))

    async def _run_socket(self, source: _Source) -> None:
        """Accept length-framed client streams until stop or all-EOS.

        Each connection decodes independently (its own framer + format
        decoder); packets from concurrent connections interleave into
        the source queue in arrival order.  The *source* ends when a
        stop is requested — a socket source with no budget and no
        signal serves forever.
        """
        connections: set[asyncio.Task] = set()

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            source.connections_counter.inc()
            framer = LengthFramer(self._serve.max_frame_bytes)
            decoder = stream_decoder(source.spec.format)
            try:
                while not framer.eof:
                    with self._read_timer.time():
                        data = await reader.read(_SOCKET_READ_BYTES)
                        if not data:
                            break
                        # Payloads are transport chunking of one continuous
                        # stream: decode everything this read completed at once.
                        columns = decoder.feed_columns(b"".join(framer.feed(data)))
                    if columns:
                        await self._enqueue(source, columns)
                framer.finish()
                decoder.finish()
            except FrameDecodeError as exc:
                source.record_decode_error(exc)
            finally:
                writer.close()

        def track(reader, writer):
            task = asyncio.create_task(handle(reader, writer))
            connections.add(task)
            task.add_done_callback(connections.discard)

        if source.spec.scheme == SCHEME_UNIX:
            try:
                # A stale socket file from a previous run would fail the
                # bind; nothing can be listening on it if we can't connect.
                os.unlink(source.spec.target)
            except OSError:
                pass
            server = await asyncio.start_unix_server(track, path=source.spec.target)
        else:
            host, port = source.spec.tcp_address()
            server = await asyncio.start_server(track, host=host, port=port)
            bound = server.sockets[0].getsockname()
            _log.info("source %s: listening on %s:%d", source.label, *bound[:2])
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            if connections:
                # In-flight clients get the drain window to finish;
                # the caller's deadline cuts us if they do not.
                await asyncio.gather(*connections, return_exceptions=True)
            if source.spec.scheme == SCHEME_UNIX:
                try:
                    os.unlink(source.spec.target)
                except OSError:
                    pass

    async def _run_tail(self, source: _Source) -> None:
        """Follow a growing capture file until stop, then read the rest."""
        decoder = stream_decoder(source.spec.format)
        path = source.spec.target
        position = 0
        while True:
            stopping = self._stop.is_set()
            position = await self._tail_catch_up(source, decoder, path, position)
            if stopping:
                break
            try:
                await asyncio.wait_for(
                    self._stop.wait(), timeout=self._serve.tail_poll_seconds
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass
        try:
            decoder.finish()
        except FrameDecodeError as exc:
            # The file ended mid-record (a writer cut off mid-write):
            # ingest what was whole, count the tear.
            source.record_decode_error(exc)

    async def _tail_catch_up(self, source, decoder, path: str, position: int) -> int:
        """Read every byte the file grew past ``position``; bounded chunks."""
        while True:
            try:
                size = os.stat(path).st_size
            except FileNotFoundError:
                return position  # not created yet — keep polling
            if size <= position:
                return position
            with self._read_timer.time():
                with open(path, "rb") as stream:
                    stream.seek(position)
                    data = stream.read(min(size - position, _TAIL_READ_BYTES))
                if not data:
                    return position
                position += len(data)
                columns = decoder.feed_columns(data)
            if columns:
                await self._enqueue(source, columns)

    # -- consumers and services -------------------------------------------

    async def _consume(self, source: _Source) -> None:
        serve_budget = self._serve.stop_after_packets
        while True:
            item = await source.queue.get()
            if item is None:
                break
            enqueued, chunk = item
            self._queue_timer.observe(perf_counter() - enqueued)
            count = len(chunk)
            try:
                with self._compress_timer.time():
                    source.feeder.feed(chunk)
            except Exception:  # noqa: BLE001 — poison data, not a daemon bug
                _log.exception(
                    "source %s: compressing a chunk failed; source abandoned",
                    source.label,
                )
                break
            source.report.packets += count
            source.packets_counter.inc(count)
            self._total_packets += count
            self._registry.counter(
                "serve.packets", "packets ingested across all sources"
            ).inc(count)
            if serve_budget is not None and self._total_packets >= serve_budget:
                self._request_stop(
                    f"packet budget ({serve_budget}) reached"
                )

    async def _rotate_periodically(self) -> None:
        interval = self._serve.rotate_seconds
        while not self._stop.is_set():
            try:
                await asyncio.wait_for(self._stop.wait(), timeout=interval)
            except (asyncio.TimeoutError, TimeoutError):
                for source in self._sources:
                    if source.feeder.packets_pending:
                        source.feeder.flush()

    async def _start_prometheus(self):
        port = self._serve.prometheus_port
        if port is None:
            return None
        registry = self._registry

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                body = render_prometheus(registry).encode()
                writer.write(
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, host="127.0.0.1", port=port)
        bound_port = server.sockets[0].getsockname()[1]
        self._report.prometheus_port = bound_port
        _log.info("metrics endpoint: http://127.0.0.1:%d/metrics", bound_port)
        return server


def serve(archive: str, options: Options | None = None) -> ServeReport:
    """Run the ingest daemon until its sources end or a stop arrives.

    ``options.serve.sources`` names at least one source
    (``scheme:target[+format]``); rotation bounds come from
    ``options.archive`` and the section codec from ``options.codec`` —
    the same knobs, same defaults, and same bytes as the offline
    ``archive build`` path.  Blocks until shutdown and
    returns the final :class:`ServeReport`; the archive at ``archive``
    is sealed and durable when this returns.
    """
    return _Daemon(archive, options or Options()).run()
