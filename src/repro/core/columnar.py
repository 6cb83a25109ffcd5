"""The flow-clustering engine — one chunk at a time, one flow at a time.

:class:`ColumnarFlowCompressor` implements section 3 of the paper over
:class:`~repro.net.columns.PacketColumns` chunks.  Per-chunk work —
flag/payload classes, canonical keys, direction bits, terminator tests —
is vectorized with numpy.  The per-packet loop survives only where the
paper's algorithm is sequential, and a chunk is cut where that starts:

* **The split row** is the first row where the per-packet step would
  rebase the implicit base time (``now < base``) or pass the idle gate
  (``now - earliest > idle_timeout``).  Both tests run element by
  element with the step's own float expressions, so the cut lands on
  exactly the row the step would act on.
* **The chunk kernel** takes every row before the split.  One stable
  ``np.lexsort`` groups them by key; each group is cut after every
  FIN/RST row into flow instances; values and the first direction
  turnaround (the RTT) are arrays; one Python loop then visits the
  instances in the order of their first rows — a dict probe or a new
  state, and two list extends each.  Instances that end in FIN/RST
  close after the loop, in the order of their last rows.
* **The per-row step** (:meth:`ColumnarFlowCompressor._add_row`) takes
  the rows from the split to the end of the chunk, and every record fed
  through :meth:`~ColumnarFlowCompressor.add_packet`.  No row takes
  both paths.
* **One batched close** (:meth:`ColumnarFlowCompressor._close_flows`)
  serves the kernel, the per-row step, idle eviction and ``finish``.

**Byte identity with the paper's algorithm is a hard contract**, pinned
by the differential harness in ``tests/property/test_columnar_identity.py``
against the linked-list reference in ``tests/compress_oracle.py``: for
any packet sequence and any chunking, this engine's output equals the
reference's to the byte.  The replicated semantics worth naming:

* insertion-ordered dicts stand in for the active-flow linked list and
  its last-seen map — both hold the same flows in the same order (the
  kernel inserts only the flows that survive the chunk, in the order of
  their opening rows), so iteration (idle eviction, end-of-trace flush)
  visits flows in the same order;
* a flow's direction structure collapses to booleans: a packet's
  direction equals the first packet's exactly when their canonical
  ``forward`` bits agree, so g2 dependence and the RTT turnaround are
  tracked with two bits and one lazily-set float per flow;
* base-time rebase, the idle-eviction freshness gate and its
  ``exclude`` rule, and the close/dataset logic follow the reference
  line for line (same float arithmetic, same ordering).
"""

from __future__ import annotations

import logging
from dataclasses import replace

from repro.obs import current as obs_current
from repro.core.compressor import (
    CompressorConfig,
    CompressorStats,
    TemplateMatcher,
)
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    TimeSeqRecord,
    inter_packet_gaps,
)
from repro.core.errors import CompressionError
from repro.net.columns import PacketColumns
from repro.net.flowkey import canonical_key_columns
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_FIN, TCP_RST, classify_flags

_log = logging.getLogger(__name__)

_TERMINATOR_MASK = TCP_FIN | TCP_RST

# g1 class per raw flag byte — classify_flags tabulated once.
_FLAG_CLASS = tuple(int(classify_flags(flags)) for flags in range(256))
_flag_class_np = None


# Flow-state list layout (a list, not a dataclass: the hot loop indexes
# it directly).
_FIRST_TS = 0  # first packet timestamp
_DST_IP = 1  # first packet's destination address (the interned one)
_FIRST_FWD = 2  # first packet's canonical-forward bit
_LAST_FWD = 3  # previous packet's canonical-forward bit
_RTT = 4  # first direction turnaround delta, or None
_LAST_SEEN = 5  # last packet timestamp (idle eviction)
_VALUES = 6  # accumulated f(p_i) values
_TIMES = 7  # accumulated timestamps (long-flow gaps)


class ColumnarFlowCompressor:
    """Streaming compressor over columnar chunks.

    Feed :class:`PacketColumns` chunks with :meth:`feed_columns` (or
    single records with :meth:`add_packet`), then :meth:`finish`.
    """

    def __init__(
        self,
        config: CompressorConfig | None = None,
        name: str = "compressed",
        base_time: float | None = None,
    ) -> None:
        self.config = config or CompressorConfig()
        self.stats = CompressorStats()
        self._flows: dict[tuple[int, int], list] = {}
        self._output = CompressedTrace(name=name)
        self._matcher = TemplateMatcher(self._output.short_templates, self.config)
        self._base_time = base_time
        self._explicit_base = base_time is not None
        self._earliest_seen: float | None = None
        self._peak_active = 0
        self._finished = False
        self._idle_timeout = self.config.idle_timeout
        self._w_dep = self.config.characterization.weights.dependence

    @property
    def output(self) -> CompressedTrace:
        """The datasets built so far (complete only after :meth:`finish`)."""
        return self._output

    @property
    def active_flows(self) -> int:
        """Flows currently open — the streaming working-set size."""
        return len(self._flows)

    @property
    def peak_active_flows(self) -> int:
        """High-water mark of :attr:`active_flows` over the whole feed."""
        return self._peak_active

    # -- feeding ----------------------------------------------------------

    def feed_columns(self, columns: PacketColumns) -> int:
        """Process one chunk (timestamp order across all feeds).

        Rows before the chunk's split row go through the chunk kernel,
        the rest through the per-row step; no row takes both.
        """
        if self._finished:
            raise CompressionError("compressor already finished")
        count = len(columns)
        if count == 0:
            return 0
        registry = obs_current()
        registry.histogram(
            "columnar.chunk_packets", "rows per columnar chunk fed"
        ).observe(count)
        derived = self._derive(columns)
        split = self._split_row(derived[0])
        registry.counter(
            "columnar.rows.sequential",
            "rows fed through the per-row step (at or after a chunk's "
            "first rebase or idle-gate row)",
        ).inc(count - split)
        if split:
            self._feed_kernel(*(column[:split] for column in derived))
        if split < count:
            timestamps, key_lo, key_hi, forwards, base_values, terminators, dsts = (
                column[split:].tolist() for column in derived
            )
            add_row = self._add_row
            for now, lo, hi, forward, base_value, terminator, dst in zip(
                timestamps, key_lo, key_hi, forwards, base_values, terminators, dsts
            ):
                add_row(now, (lo, hi), forward, base_value, terminator, dst)
        return count

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet — the record entry point (serve, ingest and
        :func:`~repro.core.compressor.compress_trace` feed records)."""
        if self._finished:
            raise CompressionError("compressor already finished")
        forward_end = (packet.src_ip << 16) | packet.src_port
        backward_end = (packet.dst_ip << 16) | packet.dst_port
        forward = forward_end <= backward_end
        low, high = (
            (forward_end, backward_end)
            if forward
            else (backward_end, forward_end)
        )
        characterization = self.config.characterization
        weights = characterization.weights
        payload = packet.payload_len
        if payload == 0:
            payload_class = 0
        elif payload <= characterization.payload_small_max:
            payload_class = 1
        else:
            payload_class = 2
        self._add_row(
            packet.timestamp,
            ((low << 8) | packet.protocol, high),
            forward,
            weights.flags * _FLAG_CLASS[packet.flags & 0xFF]
            + weights.payload * payload_class,
            packet.flags & _TERMINATOR_MASK,
            packet.dst_ip,
        )

    def finish(self) -> CompressedTrace:
        """Flush open flows (in arrival order) and return the datasets."""
        if not self._finished:
            self._close_flows(list(self._flows.values()))
            self._flows.clear()
            self._finished = True
        return self._output

    # -- internals --------------------------------------------------------

    def _add_row(self, now, key, forward, base_value, terminator, dst) -> None:
        """One packet through the paper's per-packet step, line for line."""
        base = self._base_time
        if base is None:
            self._base_time = now
        elif now < base and not self._explicit_base:
            self._rebase(now)
        earliest = self._earliest_seen
        if earliest is not None and not now - earliest <= self._idle_timeout:
            self._expire_idle(now, exclude=key)
            earliest = self._earliest_seen
        self.stats.packets += 1
        flows = self._flows
        state = flows.get(key)
        if state is None:
            # Flow opener: g2 is 1 (waits on nothing).
            flows[key] = state = [
                now,
                dst,
                forward,
                forward,
                None,
                now,
                [base_value + self._w_dep],
                [now],
            ]
            if len(flows) > self._peak_active:
                self._peak_active = len(flows)
        else:
            if forward == state[_LAST_FWD]:
                base_value += self._w_dep
            if state[_RTT] is None and forward != state[_FIRST_FWD]:
                state[_RTT] = now - state[_FIRST_TS]
            state[_LAST_FWD] = forward
            state[_LAST_SEEN] = now
            state[_VALUES].append(base_value)
            state[_TIMES].append(now)
        if earliest is None or now < earliest:
            self._earliest_seen = now
        if terminator:
            del flows[key]
            self._close_flows((state,))

    def _rebase(self, now: float) -> None:
        # Shift already-closed flows to the new earlier base, relative to
        # the trace's true earliest packet.
        delta = self._base_time - now
        self._base_time = now
        self._output.time_seq[:] = [
            replace(record, timestamp=record.timestamp + delta)
            for record in self._output.time_seq
        ]

    def _split_row(self, timestamps) -> int:
        """The first row where the per-row step does something sequential.

        That is a rebase (``now < base`` under an implicit base) or the
        idle gate (``now - earliest > idle_timeout``, with ``earliest``
        the bound before the row) — the step's own float expressions,
        element by element.  A NaN anywhere makes its row the split
        (the gate's negated ``<=`` fires on it), which is early but
        exact: the per-row step is always right.
        """
        import numpy as np

        count = len(timestamps)
        earliest = self._earliest_seen
        before = np.empty(count)
        # Row 0 sees the carried bound; with none, its gate cannot fire.
        before[0] = np.inf if earliest is None else earliest
        np.minimum.accumulate(timestamps[:-1], out=before[1:])
        if earliest is not None:
            np.minimum(before, earliest, out=before)
        events = ~(timestamps - before <= self._idle_timeout)
        if not self._explicit_base:
            base = self._base_time
            events |= timestamps < (timestamps[0] if base is None else base)
        first = int(events.argmax())
        return first if events[first] else count

    def _feed_kernel(
        self, timestamps, key_lo, key_hi, forwards, base_values, terminators, dsts
    ) -> None:
        """Rows with no rebase and no idle gate: one iteration per flow.

        Rows are grouped by key with one stable sort and cut after each
        FIN/RST; each piece is one flow instance, visited in the order
        of its first row.  Instances ending in FIN/RST close after the
        loop in the order of their last rows — the per-row step's close
        order — and only surviving new flows enter ``_flows``, in the
        order of their opening rows, as the per-row step leaves them.
        """
        import numpy as np

        count = len(timestamps)
        if self._base_time is None:
            self._base_time = timestamps[0].item()
        order = np.lexsort((key_hi, key_lo))
        key_lo, key_hi = key_lo[order], key_hi[order]
        forwards, terminators = forwards[order], terminators[order]
        starts_mask = np.empty(count, dtype=bool)
        starts_mask[0] = True
        np.not_equal(key_lo[1:], key_lo[:-1], out=starts_mask[1:])
        starts_mask[1:] |= key_hi[1:] != key_hi[:-1]
        starts_mask[1:] |= terminators[:-1]
        starts = np.flatnonzero(starts_mask)
        lasts = np.append(starts[1:], count) - 1

        # A packet depends on its predecessor (+w_dep) when they travel
        # the same way; an opener waits on nothing and gets it too.
        same = starts_mask.copy()
        same[1:] |= forwards[1:] == forwards[:-1]
        base_values = base_values[order]
        values = np.where(same, base_values + self._w_dep, base_values)
        # The first direction turnaround inside each instance.
        flips = np.append(np.flatnonzero(~same), count)
        turns = flips[np.searchsorted(flips, starts)]
        turned = turns <= lasts
        sorted_ts = timestamps[order]
        rtts = np.full(len(starts), None, dtype=object)
        rtts[turned] = sorted_ts[turns[turned]] - sorted_ts[starts[turned]]

        first_rows = order[starts]
        visit = np.argsort(first_rows)
        closed = np.flatnonzero(terminators[lasts])
        last_rows = order[lasts]
        close_order = closed[np.argsort(last_rows[closed])]
        close_rank = np.full(len(starts), -1)
        close_rank[close_order] = np.arange(len(close_order))

        values = values.tolist()
        times = sorted_ts.tolist()
        firsts, ends = starts[visit], lasts[visit]
        instances = zip(
            key_lo[firsts].tolist(),
            key_hi[firsts].tolist(),
            firsts.tolist(),
            (ends + 1).tolist(),
            sorted_ts[firsts].tolist(),
            sorted_ts[ends].tolist(),
            dsts[order[firsts]].tolist(),
            forwards[firsts].tolist(),
            forwards[ends].tolist(),
            rtts[visit].tolist(),
            turns[visit].tolist(),
            base_values[firsts].tolist(),
            close_rank[visit].tolist(),
        )
        closing = [None] * len(close_order)
        continued = []
        flows = self._flows
        open_before = len(flows)
        for position, (
            lo, hi, start, stop, first, last, dst,
            first_fwd, last_fwd, rtt, turn, opener_base, rank,
        ) in enumerate(instances):
            key = (lo, hi)
            state = flows.get(key)
            if state is None:
                state = [
                    first,
                    dst,
                    first_fwd,
                    last_fwd,
                    rtt,
                    last,
                    values[start:stop],
                    times[start:stop],
                ]
                if rank < 0:
                    flows[key] = state
                else:
                    closing[rank] = state
                continue
            # The instance continues a flow opened in an earlier feed.
            continued.append(position)
            piece = values[start:stop]
            if first_fwd != state[_LAST_FWD]:
                piece[0] = opener_base
            if state[_RTT] is None:
                if first_fwd != state[_FIRST_FWD]:
                    state[_RTT] = first - state[_FIRST_TS]
                elif rtt is not None:
                    state[_RTT] = times[turn] - state[_FIRST_TS]
            state[_LAST_FWD] = last_fwd
            state[_LAST_SEEN] = last
            state[_VALUES] += piece
            state[_TIMES] += times[start:stop]
            if rank >= 0:
                del flows[key]
                closing[rank] = state

        # The per-row step checks the peak right after each open: the
        # flows open then are the earlier opens less the earlier closes.
        opens = np.delete(first_rows[visit], continued)
        if len(opens):
            live = (
                open_before
                + np.arange(1, len(opens) + 1)
                - np.searchsorted(np.sort(last_rows[closed]), opens)
            )
            self._peak_active = max(self._peak_active, int(live.max()))
        self.stats.packets += count
        earliest = timestamps.min().item()
        if self._earliest_seen is None or earliest < self._earliest_seen:
            self._earliest_seen = earliest
        self._close_flows(closing)

    def _derive(self, columns: PacketColumns):
        """Per-chunk vectorized precomputation, as aligned arrays:
        timestamps, key pair, direction, base value, FIN/RST, destination."""
        import numpy as np

        characterization = self.config.characterization
        weights = characterization.weights
        small_max = characterization.payload_small_max
        global _flag_class_np
        if _flag_class_np is None:
            _flag_class_np = np.array(_FLAG_CLASS, dtype=np.int64)
        flags = np.asarray(columns.flags)
        payload = np.asarray(columns.payload_len)
        payload_class = (payload > 0).astype(np.int64) + (payload > small_max)
        base_values = (
            weights.flags * _flag_class_np[flags] + weights.payload * payload_class
        )
        terminators = (flags & _TERMINATOR_MASK) != 0
        key_lo, key_hi, forwards = canonical_key_columns(columns)
        return (
            np.asarray(columns.timestamps, dtype=np.float64),
            key_lo,
            key_hi,
            forwards,
            base_values,
            terminators,
            np.asarray(columns.dst_ip),
        )

    def _expire_idle(self, now: float, exclude=None) -> None:
        # Mirrors the reference: the freshness gate on the earliest
        # last-activity bound, the strict exclusion of the flow carrying
        # the clock tick, stale collection in flow-arrival order, and
        # the bound recomputation afterwards.
        timeout = self._idle_timeout
        if self._earliest_seen is None or now - self._earliest_seen <= timeout:
            return
        flows = self._flows
        stale = [
            key
            for key, state in flows.items()
            if now - state[_LAST_SEEN] > timeout and key != exclude
        ]
        if stale:
            self._close_flows([flows.pop(key) for key in stale])
            self.stats.flows_evicted += len(stale)
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "idle eviction at t=%.6f: closed %d stale flow(s), "
                    "%d active",
                    now,
                    len(stale),
                    len(flows),
                )
        self._earliest_seen = min(
            (state[_LAST_SEEN] for state in flows.values()), default=None
        )

    def _close_flows(self, states) -> None:
        """Route finished flows, in order, to the short or long dataset."""
        if not states:
            return
        output = self._output
        stats = self.stats
        short_max = self.config.short_flow_max
        find, add = self._matcher.find, self._matcher.add
        intern = output.addresses.intern
        long_templates = output.long_templates
        append = output.time_seq.append
        base = self._base_time if self._base_time is not None else 0.0
        short = hits = packets = 0
        for state in states:
            values = state[_VALUES]
            packets += len(values)
            if len(values) <= short_max:
                short += 1
                vector = tuple(values)
                index = find(vector)
                if index is None:
                    index = add(vector)
                else:
                    hits += 1
                rtt = state[_RTT]
                record = TimeSeqRecord(
                    max(0.0, state[_FIRST_TS] - base),
                    _SHORT,
                    index,
                    intern(state[_DST_IP]),
                    0.0 if rtt is None else max(0.0, rtt),
                )
            else:
                index = len(long_templates)
                long_templates.append(
                    LongFlowTemplate(
                        tuple(values), tuple(inter_packet_gaps(state[_TIMES]))
                    )
                )
                record = TimeSeqRecord(
                    max(0.0, state[_FIRST_TS] - base),
                    _LONG,
                    index,
                    intern(state[_DST_IP]),
                    0.0,
                )
            append(record)
        stats.flows_closed += len(states)
        stats.short_flows += short
        stats.long_flows += len(states) - short
        stats.template_hits += hits
        stats.template_misses += short - hits
        output.original_packet_count += packets


_SHORT, _LONG = DatasetId.SHORT, DatasetId.LONG
