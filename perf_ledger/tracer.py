"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here edits the program.  :meth:`Tracer.patched` swaps public
functions and bound methods of the layer modules (``repro.trace``,
``repro.core``, ``repro.archive``, ``repro.query``, ``repro.analysis``)
for wrappers that time each call, and restores the originals on exit.

Every wrapped call opens a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its *self time* (the
duration minus its children's) to its span name.  Calls that run once
per chunk or segment are recorded as individual spans; calls that run
once per packet or flow are summed into one aggregate span per op,
which keeps the trace small and the recording cost per packet to two
clock reads.  Generators are traced per ``next()``, because their work
happens when the consumer pulls, inside the consumer's own span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Span stack, per-name self time, and the recorded spans of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.op_id = -1
        self.ops = 0
        self.op_seconds = 0.0
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Layer counts measured on the benchmark's side of a call:
        # packets out of a generator, bytes exported, links per window.
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        # A frame is [name, start, child_seconds, span_id, aggregate].
        self._stack: list[list] = []
        self._aggregates: dict[str, list] = {}
        self._next_id = 0

    # -- frames ------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def enter(self, name: str, aggregate: bool = False) -> None:
        if aggregate:
            slot = self._aggregates.get(name)
            if slot is None:
                parent = self._stack[-1][3] if self._stack else None
                # [span id, parent id, first start, total seconds, calls]
                slot = [self._new_id(), parent, _clock(), 0.0, 0]
                self._aggregates[name] = slot
            span_id = slot[0]
        else:
            span_id = self._new_id()
        self._stack.append([name, _clock(), 0.0, span_id, aggregate])

    def leave(self) -> None:
        end = _clock()
        name, start, children, span_id, aggregate = self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if aggregate:
            slot = self._aggregates[name]
            slot[3] += duration
            slot[4] += 1
        else:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": self._stack[-1][3] if self._stack else None,
                    "workload": self.workload,
                    "op": self.op_id,
                }
            )

    @contextmanager
    def op(self, kind: str):
        """The root span of one closed-loop operation."""
        self.op_id += 1
        self._aggregates = {}
        self.enter(f"op.{kind}")
        start = self._stack[-1][1]
        try:
            yield
        finally:
            self.leave()
            self.ops += 1
            self.op_seconds += self.spans[-1]["end"] - start
            for name, (span_id, parent, first, total, calls) in (
                self._aggregates.items()
            ):
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "start": first,
                        "end": first + total,
                        "parent": parent,
                        "workload": self.workload,
                        "op": self.op_id,
                        "calls": calls,
                        "aggregate": True,
                    }
                )

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, function, name, *, aggregate=False, after=None):
        """Time every call of ``function`` as one frame named ``name``.

        ``name`` may be a callable of the call's arguments; ``after``
        sees (args, kwargs, result) once the frame has closed.
        """
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(name(*args, **kwargs) if callable(name) else name, aggregate)
            try:
                result = function(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_iterator(self, iterator, name, *, aggregate=False, on_item=None):
        """Time each ``next()`` of ``iterator`` as one frame."""
        enter, leave = self.enter, self.leave
        try:
            while True:
                enter(name, aggregate)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave()
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def wrap_generator_function(self, function, name, **options):
        """Trace the iterator a generator function returns, per ``next()``."""
        wrap_iterator = self.wrap_iterator

        def traced(*args, **kwargs):
            return wrap_iterator(function(*args, **kwargs), name, **options)

        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def patched(self):
        """Install the layer wrappers for the duration of the block."""
        undo = []

        def patch(owner, attribute, replacement):
            original = owner.__dict__[attribute]
            undo.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

        try:
            _install(self, patch)
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def unattributed_seconds(self) -> float:
        """Op time no layer span claimed (the op roots' own self time)."""
        return sum(
            seconds
            for name, seconds in self.self_seconds.items()
            if name.startswith("op.")
        )


def _install(tracer: Tracer, patch) -> None:
    """Wrap the public calls each pipeline makes into the layers."""
    import repro.api.store as store
    import repro.archive.reader as archive_reader
    import repro.core.replay as replay
    import repro.query.engine as query_engine
    import repro.trace.reader as trace_reader
    from repro.analysis.matrices import TrafficMatrix
    from repro.archive.reader import ArchiveReader
    from repro.archive.writer import ArchiveWriter, SegmentFeeder
    from repro.core.streaming import StreamingCompressor
    from repro.query.engine import QueryEngine
    from repro.trace.framing import LengthFramer, TshStreamDecoder

    counts, samples = tracer.counts, tracer.samples
    call, generator = tracer.wrap_call, tracer.wrap_generator_function

    # repro.trace ------------------------------------------------------------
    def count_chunk(chunk) -> None:
        counts["trace.read_columns.packets"] += len(chunk)

    patch(
        trace_reader,
        "read_columns",
        generator(
            trace_reader.read_columns, "trace.read_columns", on_item=count_chunk
        ),
    )
    patch(LengthFramer, "feed", call(LengthFramer.feed, "trace.framing"))

    def count_decoded(args, kwargs, packets) -> None:
        counts["trace.framing.packets"] += len(packets)

    patch(
        TshStreamDecoder,
        "feed",
        call(TshStreamDecoder.feed, "trace.framing", after=count_decoded),
    )

    # The export span owns the packet pull: the merge runs inside it.
    export = store.export_packet_stream

    def traced_export(packets, path, format=None):
        merged = tracer.wrap_iterator(iter(packets), "core.merge", aggregate=True)
        tracer.enter("trace.export")
        try:
            result = export(merged, path, format)
        finally:
            tracer.leave()
        counts["trace.export.bytes_out"] += result.size_bytes
        return result

    patch(store, "export_packet_stream", traced_export)

    # repro.core -------------------------------------------------------------
    for method in ("feed_columns", "flush_segment", "finish"):
        patch(
            StreamingCompressor,
            method,
            call(getattr(StreamingCompressor, method), "core.compress"),
        )
    patch(
        StreamingCompressor,
        "add_packet",
        call(StreamingCompressor.add_packet, "core.compress", aggregate=True),
    )
    patch(
        archive_reader,
        "flow_specs",
        generator(archive_reader.flow_specs, "core.flow_specs", aggregate=True),
    )

    open_flows = [0]

    def synthesize(spec, config):
        # One open generator per flow still holding packets: the merge
        # heap's size, which the program keeps to itself.
        open_flows[0] += 1
        if open_flows[0] > counts["core.merge.peak_open_flows"]:
            counts["core.merge.peak_open_flows"] = open_flows[0]
        try:
            for packet in tracer.wrap_iterator(
                synthesize_flow(spec, config),
                "core.synthesize_flow",
                aggregate=True,
            ):
                counts["core.synthesize_flow.packets"] += 1
                yield packet
        finally:
            open_flows[0] -= 1

    synthesize_flow = replay.synthesize_flow
    patch(replay, "synthesize_flow", synthesize)

    def count_record(record) -> None:
        counts["core.flow_records.flows"] += 1

    patch(
        query_engine,
        "flow_records",
        generator(
            query_engine.flow_records,
            "core.flow_records",
            aggregate=True,
            on_item=count_record,
        ),
    )

    # repro.archive ----------------------------------------------------------
    patch(SegmentFeeder, "feed", call(SegmentFeeder.feed, "archive.rotate"))
    patch(
        ArchiveWriter,
        "write_segment",
        call(ArchiveWriter.write_segment, "archive.write_segment"),
    )
    patch(ArchiveWriter, "close", call(ArchiveWriter.close, "archive.close"))
    append = ArchiveWriter.__dict__["append"].__func__
    patch(ArchiveWriter, "append", classmethod(call(append, "archive.append")))
    patch(
        ArchiveReader,
        "load_segment",
        call(ArchiveReader.load_segment, "archive.load_segment"),
    )

    # repro.query ------------------------------------------------------------
    def query_name(engine, predicate=None, **kwargs) -> str:
        return f"query.{_QUERY_TYPES.get(type(predicate).__name__, 'other')}"

    def count_query(args, kwargs, result) -> None:
        prefix = query_name(*args, **kwargs)
        stats = result.stats
        counts[f"{prefix}.runs"] += 1
        counts[f"{prefix}.segments_decoded"] += stats.segments_decoded
        counts[f"{prefix}.segments_useful"] += len(
            {flow.segment for flow in result.flows}
        )
        counts[f"{prefix}.flows_scanned"] += stats.flows_scanned
        counts[f"{prefix}.flows_matched"] += stats.flows_matched

    patch(QueryEngine, "run", call(QueryEngine.run, query_name, after=count_query))

    # repro.analysis ---------------------------------------------------------
    patch(
        store,
        "matrix_report_for_archive",
        call(store.matrix_report_for_archive, "analysis.matrices.aggregate"),
    )

    def record_links(args, kwargs, result) -> None:
        samples["analysis.matrices.window_stats.links"].append(args[0].links)

    patch(
        TrafficMatrix,
        "stats",
        call(
            TrafficMatrix.stats,
            "analysis.matrices.window_stats",
            after=record_links,
        ),
    )


_QUERY_TYPES = {"TimeRange": "time_range", "DestinationAddress": "destination"}
