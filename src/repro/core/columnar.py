"""The flow-clustering engine — one chunk at a time, one table of open flows.

:class:`ColumnarFlowCompressor` implements section 3 of the paper over
:class:`~repro.net.columns.PacketColumns` chunks.  Per-chunk work —
flag/payload classes, canonical keys, direction bits, terminator tests —
is vectorized with numpy.  The per-packet loop survives only where the
paper's algorithm is sequential, and a chunk is cut where that starts:

* **The open-flow table** (:class:`_FlowTable`) holds every open flow
  as one integer slot: a dict maps the flow key to its slot, per-slot
  arrays hold the scalar state (first and last timestamp, destination,
  first and last direction bit, RTT and whether it is set), and one
  growable packet log holds ``(slot, f(p), timestamp)`` rows.  An open
  flow costs no Python object of its own beyond its dict entry.
* **The split row** is the first row where the per-packet step would
  rebase the implicit base time (``now < base``) or pass the idle gate
  (``now - earliest > idle_timeout``).  Both tests run element by
  element with the step's own float expressions, so the cut lands on
  exactly the row the step would act on.
* **The chunk kernel** takes every row before the split.  One stable
  ``np.lexsort`` groups them by key; each group is cut after every
  FIN/RST row into flow instances; values and the first direction
  turnaround (the RTT) are arrays.  One ``dict.get`` probe per key finds
  the instances that continue an open flow; their table state is updated
  as arrays.  New instances that survive the chunk take slots in the
  order of their opening rows; instances that end in FIN/RST close in
  the order of their last rows.
* **The per-row step** (:meth:`ColumnarFlowCompressor._add_row`) takes
  the rows from the split to the end of the chunk, and every record fed
  through :meth:`~ColumnarFlowCompressor.add_packet`.  No row takes
  both paths.  It reads and writes the same table.
* **One batched close** (:meth:`ColumnarFlowCompressor._close_flows`)
  serves the kernel, the per-row step, idle eviction and ``finish``: it
  takes the closing flows as arrays, resolves each distinct short vector
  with the template matcher once and interns each distinct destination
  once, both in first-close order.

**Byte identity with the paper's algorithm is a hard contract**, pinned
by the differential harness in ``tests/property/test_columnar_identity.py``
against the linked-list reference in ``tests/compress_oracle.py``: for
any packet sequence and any chunking, this engine's output equals the
reference's to the byte.  The replicated semantics worth naming:

* the insertion-ordered slot dict stands in for the active-flow linked
  list — it holds the same flows in the same order (the kernel inserts
  only the flows that survive the chunk, in the order of their opening
  rows), and each slot carries its opening sequence number, so idle
  eviction and the end-of-trace flush visit flows in the same order;
* a flow's direction structure collapses to booleans: a packet's
  direction equals the first packet's exactly when their canonical
  ``forward`` bits agree, so g2 dependence and the RTT turnaround are
  tracked with two bits and one lazily-set float per flow;
* base-time rebase, the idle-eviction freshness gate and its
  ``exclude`` rule, and the close/dataset logic follow the reference
  (same float arithmetic, same ordering; ``max(0.0, x)`` clamps become
  ``where(x > 0.0, x, 0.0)``, which agrees on NaN and −0.0).
"""

from __future__ import annotations

import logging
from dataclasses import replace
from itertools import repeat
from operator import lshift, or_

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

_MIN_SLOTS = 256
_MIN_LOG_ROWS = 1024
_RECORD_BATCH = 4096

# A flow's dict key is its canonical key pair as one int, ``lo << 48 |
# hi`` (``hi`` is an address-and-port end, 48 bits): one untracked
# object per open flow instead of a tuple and two ints.
_KEY_SHIFT = 48
_KEY_HI_MASK = (1 << _KEY_SHIFT) - 1


def _flow_keys(key_lo, key_hi):
    """The dict keys of aligned key-pair arrays."""
    return map(or_, map(lshift, key_lo.tolist(), repeat(_KEY_SHIFT)), key_hi.tolist())


class _FlowTable:
    """The open flows: a key → slot dict, per-slot arrays, a packet log.

    A slot's arrays are valid while its key is in :attr:`slots`.  Slots
    below :attr:`used` have been handed out at least once; a released
    one's ``last_ts`` is +inf, so no idle test ever finds it stale.  The
    log keeps each open flow's rows in feed order; rows of closed flows
    are marked dead (slot -1) and dropped by a compaction once they
    outnumber the live ones.  Arrays grow uninitialized, so memory the
    feed never reaches is never touched.
    """

    _SLOT_COLUMNS = (
        "first_ts", "last_ts", "dst", "first_fwd", "last_fwd", "rtt", "rtt_set",
        "key_lo", "key_hi", "seq", "first_row",
    )

    def __init__(self) -> None:
        import numpy as np

        self.slots: dict[int, int] = {}
        self.used = 0
        self.first_ts = np.empty(0)
        self.last_ts = np.empty(0)
        self.dst = np.empty(0, dtype=np.int64)
        self.first_fwd = np.empty(0, dtype=bool)
        self.last_fwd = np.empty(0, dtype=bool)
        self.rtt = np.empty(0)  # 0.0 until set
        self.rtt_set = np.empty(0, dtype=bool)
        self.key_lo = np.empty(0, dtype=np.uint64)
        self.key_hi = np.empty(0, dtype=np.uint64)
        self.seq = np.empty(0, dtype=np.int64)  # opening order
        self.first_row = np.empty(0, dtype=np.int64)  # log row of the first packet
        # Rank + 1 of each slot :meth:`take` is collecting, else 0; one
        # spare entry at the end answers the dead rows' slot -1.
        self._mark = np.zeros(1, dtype=np.int64)
        self._free = np.empty(0, dtype=np.int64)  # released slots, a stack
        self._free_count = 0
        self._next_seq = 0
        self.log_slot = np.empty(0, dtype=np.int64)
        self.log_value = np.empty(0, dtype=np.int64)
        self.log_time = np.empty(0)
        self.log_len = 0
        self._dead = 0

    # -- slots ------------------------------------------------------------

    def _grow(self, needed: int) -> None:
        import numpy as np

        old = len(self.first_ts)
        new = max(2 * old, old + needed, _MIN_SLOTS)
        for name in self._SLOT_COLUMNS:
            setattr(self, name, _grown(getattr(self, name), new, self.used))
        self._free = _grown(self._free, new, self._free_count)
        self._mark = np.zeros(new + 1, dtype=np.int64)

    def _alloc(self, count: int):
        import numpy as np

        reused = min(count, self._free_count)
        self._free_count -= reused
        slots = self._free[self._free_count : self._free_count + reused].copy()
        fresh = count - reused
        if fresh:
            if self.used + fresh > len(self.first_ts):
                self._grow(self.used + fresh - len(self.first_ts))
            slots = np.concatenate((slots, np.arange(self.used, self.used + fresh)))
            self.used += fresh
        return slots

    def open(self, key_lo, key_hi, first_ts, last_ts, dst, first_fwd, last_fwd,
             rtt_set, rtt):
        """Give new flows slots, in the given (opening) order."""
        import numpy as np

        count = len(key_lo)
        slots = self._alloc(count)
        self.first_ts[slots] = first_ts
        self.last_ts[slots] = last_ts
        self.dst[slots] = dst
        self.first_fwd[slots] = first_fwd
        self.last_fwd[slots] = last_fwd
        self.rtt_set[slots] = rtt_set
        self.rtt[slots] = rtt
        self.key_lo[slots] = key_lo
        self.key_hi[slots] = key_hi
        self.seq[slots] = np.arange(self._next_seq, self._next_seq + count)
        self._next_seq += count
        self.slots.update(zip(_flow_keys(key_lo, key_hi), slots.tolist()))
        return slots

    def open_one(self, key, now, dst, forward) -> int:
        """One new flow: the per-row step's open."""
        if self._free_count:
            self._free_count -= 1
            slot = int(self._free[self._free_count])
        else:
            if self.used == len(self.first_ts):
                self._grow(1)
            slot = self.used
            self.used += 1
        self.first_ts[slot] = self.last_ts[slot] = now
        self.dst[slot] = dst
        self.first_fwd[slot] = self.last_fwd[slot] = forward
        self.rtt_set[slot] = False
        self.rtt[slot] = 0.0
        self.key_lo[slot] = key >> _KEY_SHIFT
        self.key_hi[slot] = key & _KEY_HI_MASK
        self.seq[slot] = self._next_seq
        self._next_seq += 1
        self.first_row[slot] = self.log_len
        self.slots[key] = slot
        return slot

    def release(self, slots) -> None:
        """Return closed flows' slots (their keys already left the dict)."""
        self.last_ts[slots] = float("inf")
        count = self._free_count
        self._free[count : count + len(slots)] = slots
        self._free_count = count + len(slots)

    def keys(self, slots):
        """The dict keys of ``slots``."""
        return _flow_keys(self.key_lo[slots], self.key_hi[slots])

    def open_slots(self):
        """Every open slot, in opening order."""
        import numpy as np

        return np.fromiter(self.slots.values(), dtype=np.int64, count=len(self.slots))

    # -- the packet log ---------------------------------------------------

    def _reserve(self, rows: int) -> int:
        start = self.log_len
        if start + rows > len(self.log_slot):
            size = max(2 * len(self.log_slot), start + rows, _MIN_LOG_ROWS)
            for name in ("log_slot", "log_value", "log_time"):
                setattr(self, name, _grown(getattr(self, name), size, start))
        self.log_len = start + rows
        return start

    def append(self, slots, values, times) -> int:
        """Log rows (per-flow feed order); returns the first row's index."""
        start = self._reserve(len(slots))
        stop = self.log_len
        self.log_slot[start:stop] = slots
        self.log_value[start:stop] = values
        self.log_time[start:stop] = times
        return start

    def append_one(self, slot: int, value: int, time: float) -> None:
        row = self._reserve(1)
        self.log_slot[row] = slot
        self.log_value[row] = value
        self.log_time[row] = time

    def take(self, slots):
        """Remove the logged rows of ``slots``: ``(ranks, values, times)``.

        ``ranks[i]`` is the position in ``slots`` of the flow row ``i``
        belongs to; rows come in log order, which is each flow's feed
        order.  The scan starts at the earliest first row among
        ``slots``, so closing recent flows touches only the log's tail.
        """
        import numpy as np

        low = int(self.first_row[slots].min())
        mark = self._mark
        mark[slots] = np.arange(1, len(slots) + 1)
        ranks = mark[self.log_slot[low : self.log_len]] - 1
        mark[slots] = 0
        rows = np.flatnonzero(ranks >= 0)
        ranks = ranks[rows]
        rows += low
        values, times = self.log_value[rows], self.log_time[rows]
        self.log_slot[rows] = -1
        self._dead += len(rows)
        if 2 * self._dead > self.log_len:
            self._compact()
        return ranks, values, times

    def _compact(self) -> None:
        import numpy as np

        live = np.flatnonzero(self.log_slot[: self.log_len] >= 0)
        for name in ("log_slot", "log_value", "log_time"):
            column = getattr(self, name)
            column[: len(live)] = column[live]
        self.log_len = len(live)
        self._dead = 0
        # Every flow with live rows keeps its first one's new position.
        owners, firsts = np.unique(self.log_slot[: self.log_len], return_index=True)
        self.first_row[owners] = firsts


def _grown(column, size: int, keep: int):
    """``column`` reallocated to ``size``, its first ``keep`` entries kept.

    The rest is left uninitialized, so pages the table never reaches
    are never touched.
    """
    import numpy as np

    grown = np.empty(size, dtype=column.dtype)
    grown[:keep] = column[:keep]
    return grown


def _group(ranks, values, times, count: int):
    """Rows tagged with a flow rank → per-flow runs in rank order.

    A stable sort keeps each flow's rows in the order given.
    """
    import numpy as np

    order = np.argsort(ranks, kind="stable")
    return values[order], times[order], np.bincount(ranks, minlength=count)


def _vector_keys(values, sizes):
    """Sort keys that are equal exactly for equal vectors: the length,
    then the values zero-padded to the longest.

    ``values`` holds the vectors back to back.  Byte-sized values pack
    eight to a ``uint64`` key; any other value takes a key of its own.
    """
    import numpy as np

    width = int(sizes.max())
    owner = np.repeat(np.arange(len(sizes)), sizes)
    column = np.arange(len(values)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if values.min() >= 0 and values.max() <= 0xFF:
        grid = np.zeros((len(sizes), -(-width // 8) * 8), dtype=np.uint8)
        grid[owner, column] = values
        grid = grid.view(np.uint64)
    else:
        grid = np.zeros((len(sizes), width), dtype=np.int64)
        grid[owner, column] = values
    return [sizes, *grid.T]


def _distinct(columns):
    """Distinct rows of aligned integer columns, in first-occurrence order.

    Returns ``(firsts, inverse)``: the index of each distinct row's first
    occurrence, and for every row the position of its distinct row in
    ``firsts``.
    """
    import numpy as np

    order = np.lexsort(columns[::-1])
    count = len(order)
    boundary = np.empty(count, dtype=bool)
    boundary[0] = True
    boundary[1:] = False
    for column in columns:
        ordered = column[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    group = np.cumsum(boundary) - 1
    # The sort is stable, so a group's first sorted row is its first row.
    firsts = order[boundary]
    by_first = np.argsort(firsts)
    renumber = np.empty(len(firsts), dtype=np.int64)
    renumber[by_first] = np.arange(len(firsts))
    inverse = np.empty(count, dtype=np.int64)
    inverse[order] = renumber[group]
    return firsts[by_first], inverse


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
        self._table = _FlowTable()
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
        return len(self._table.slots)

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
                add_row(
                    now, lo << _KEY_SHIFT | hi, forward, base_value, terminator, dst
                )
        return count

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet through the per-row step."""
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
            ((low << 8) | packet.protocol) << _KEY_SHIFT | high,
            forward,
            weights.flags * _FLAG_CLASS[packet.flags & 0xFF]
            + weights.payload * payload_class,
            packet.flags & _TERMINATOR_MASK,
            packet.dst_ip,
        )

    def finish(self) -> CompressedTrace:
        """Flush open flows (in arrival order) and return the datasets."""
        if not self._finished:
            slots = self._table.open_slots()
            self._table.slots.clear()
            # A close gives the same output batch by batch.  Batches bound
            # the working arrays of a large flush, and the table is gone
            # before the close builds its records.
            batches = [
                self._take_flows(slots[start : start + _RECORD_BATCH])
                for start in range(0, len(slots), _RECORD_BATCH)
            ]
            self._table = _FlowTable()
            for flows in batches:
                self._close_flows(*flows)
            self._finished = True
        return self._output

    # -- internals --------------------------------------------------------

    def _add_row(self, now, key, forward, base_value, terminator, dst) -> None:
        """One packet through the paper's per-packet step."""
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
        table = self._table
        slot = table.slots.get(key)
        if slot is None:
            # Flow opener: g2 is 1 (waits on nothing).
            base_value += self._w_dep
            slot = table.open_one(key, now, dst, forward)
            if len(table.slots) > self._peak_active:
                self._peak_active = len(table.slots)
        else:
            if forward == table.last_fwd[slot]:
                base_value += self._w_dep
            if not table.rtt_set[slot] and forward != table.first_fwd[slot]:
                table.rtt[slot] = now - table.first_ts[slot]
                table.rtt_set[slot] = True
            table.last_fwd[slot] = forward
            table.last_ts[slot] = now
        table.append_one(slot, base_value, now)
        if earliest is None or now < earliest:
            self._earliest_seen = now
        if terminator:
            del table.slots[key]
            self._close_slots([slot])

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
        """Rows with no rebase and no idle gate, as array operations.

        Rows are grouped by key with one stable sort and cut after each
        FIN/RST; each piece is one flow instance.  Only the first
        instance of a key can continue an open flow (a later one follows
        a FIN/RST), so only those probe the table.  Instances ending in
        FIN/RST close in the order of their last rows — the per-row
        step's close order — and surviving new flows take slots in the
        order of their opening rows, as the per-row step leaves them.
        """
        import numpy as np

        count = len(timestamps)
        if self._base_time is None:
            self._base_time = timestamps[0].item()
        table = self._table
        open_before = len(table.slots)
        w_dep = self._w_dep
        order = np.lexsort((key_hi, key_lo))
        key_lo, key_hi = key_lo[order], key_hi[order]
        forwards, terminators = forwards[order], terminators[order]
        new_key = np.empty(count, dtype=bool)
        new_key[0] = True
        np.not_equal(key_lo[1:], key_lo[:-1], out=new_key[1:])
        new_key[1:] |= key_hi[1:] != key_hi[:-1]
        starts_mask = new_key.copy()
        starts_mask[1:] |= terminators[:-1]
        starts = np.flatnonzero(starts_mask)
        lasts = np.append(starts[1:], count) - 1
        instance_of = np.cumsum(starts_mask) - 1

        # A packet depends on its predecessor (+w_dep) when they travel
        # the same way; an opener waits on nothing and gets it too.
        same = starts_mask.copy()
        same[1:] |= forwards[1:] == forwards[:-1]
        base_values = base_values[order]
        values = np.where(same, base_values + w_dep, base_values)
        # The first direction turnaround inside each instance.
        flips = np.append(np.flatnonzero(~same), count)
        turns = flips[np.searchsorted(flips, starts)]
        turned = turns <= lasts
        times = timestamps[order]
        first_ts = times[starts]
        last_ts = times[lasts]
        turn_ts = times[np.minimum(turns, count - 1)]
        rtts = np.where(turned, turn_ts - first_ts, 0.0)
        first_fwd, last_fwd = forwards[starts], forwards[lasts]
        flow_dst = dsts[order[starts]].astype(np.int64)
        first_rows, last_rows = order[starts], order[lasts]
        closes = terminators[lasts]
        slot = np.full(len(starts), -1, dtype=np.int64)

        continued = np.empty(0, dtype=np.int64)
        if table.slots:
            heads = np.flatnonzero(new_key[starts])
            found = np.fromiter(
                map(
                    table.slots.get,
                    _flow_keys(key_lo[starts[heads]], key_hi[starts[heads]]),
                    repeat(-1),
                ),
                dtype=np.int64,
                count=len(heads),
            )
            continued = heads[found >= 0]
            slot[continued] = found[found >= 0]
        if len(continued):
            slots = slot[continued]
            opener = starts[continued]
            # The opener continues the flow: it depends on the flow's
            # last packet, not on nothing.
            values[opener] = np.where(
                first_fwd[continued] == table.last_fwd[slots],
                base_values[opener] + w_dep,
                base_values[opener],
            )
            flipped = first_fwd[continued] != table.first_fwd[slots]
            setting = ~table.rtt_set[slots] & (flipped | turned[continued])
            turn_at = np.where(flipped, first_ts[continued], turn_ts[continued])
            table.rtt[slots] = np.where(
                setting, turn_at - table.first_ts[slots], table.rtt[slots]
            )
            table.rtt_set[slots] |= setting
            table.last_fwd[slots] = last_fwd[continued]
            table.last_ts[slots] = last_ts[continued]
            first_ts[continued] = table.first_ts[slots]
            flow_dst[continued] = table.dst[slots]
            rtts[continued] = table.rtt[slots]

        # Carried flows that close leave the dict before this chunk's
        # survivors enter it: a survivor may reopen the same key.
        carried = continued[closes[continued]]
        for key in _flow_keys(key_lo[starts[carried]], key_hi[starts[carried]]):
            del table.slots[key]
        opened = np.ones(len(starts), dtype=bool)
        opened[continued] = False
        survivors = np.flatnonzero(opened & ~closes)
        if len(survivors):
            survivors = survivors[np.argsort(first_rows[survivors])]
            slot[survivors] = table.open(
                key_lo[starts[survivors]],
                key_hi[starts[survivors]],
                first_ts[survivors],
                last_ts[survivors],
                flow_dst[survivors],
                first_fwd[survivors],
                last_fwd[survivors],
                turned[survivors],
                rtts[survivors],
            )
        resident = ~closes[instance_of]
        if resident.any():
            first = table.append(
                slot[instance_of[resident]], values[resident], times[resident]
            )
            if len(survivors):
                logged = np.cumsum(resident) - 1
                table.first_row[slot[survivors]] = first + logged[starts[survivors]]

        # The per-row step checks the peak right after each open: the
        # flows open then are the earlier opens less the earlier closes.
        closed = np.flatnonzero(closes)
        opens = np.sort(first_rows[opened])
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

        if not len(closed):
            return
        close_order = closed[np.argsort(last_rows[closed])]
        rank = np.full(len(starts), -1, dtype=np.int64)
        rank[close_order] = np.arange(len(close_order))
        rows = ~resident
        ranks, flow_values, flow_times = (
            rank[instance_of[rows]], values[rows], times[rows]
        )
        carried = close_order[slot[close_order] >= 0]
        if len(carried):
            slots = slot[carried]
            logged_ranks, logged_values, logged_times = table.take(slots)
            table.release(slots)
            # Logged rows are older than the chunk's: they go first.
            ranks = np.concatenate((rank[carried][logged_ranks], ranks))
            flow_values = np.concatenate((logged_values, flow_values))
            flow_times = np.concatenate((logged_times, flow_times))
        self._close_flows(
            first_ts[close_order],
            flow_dst[close_order],
            rtts[close_order],
            *_group(ranks, flow_values, flow_times, len(close_order)),
        )

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
        import numpy as np

        timeout = self._idle_timeout
        if self._earliest_seen is None or now - self._earliest_seen <= timeout:
            return
        table = self._table
        flows = table.slots
        if not flows:
            self._earliest_seen = None
            return
        stale = now - table.last_ts[: table.used] > timeout
        excluded = flows.get(exclude)
        if excluded is not None:
            stale[excluded] = False
        stale = np.flatnonzero(stale)
        if len(stale):
            stale = stale[np.argsort(table.seq[stale])]
            for key in table.keys(stale):
                del flows[key]
            self._close_slots(stale)
            self.stats.flows_evicted += len(stale)
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "idle eviction at t=%.6f: closed %d stale flow(s), "
                    "%d active",
                    now,
                    len(stale),
                    len(flows),
                )
        if not flows:
            self._earliest_seen = None
            return
        # ``min`` over the flows in arrival order: a NaN first keeps the
        # NaN, any later NaN is never smaller.  Released slots hold +inf.
        first = float(table.last_ts[next(iter(flows.values()))])
        self._earliest_seen = (
            first
            if first != first
            else float(np.fmin.reduce(table.last_ts[: table.used]))
        )

    def _close_slots(self, slots) -> None:
        """Close open flows (keys already removed), in the given order."""
        self._close_flows(*self._take_flows(slots))

    def _take_flows(self, slots):
        """Release open flows (keys already removed) as
        :meth:`_close_flows` arguments, in the given order."""
        import numpy as np

        table = self._table
        slots = np.asarray(slots, dtype=np.int64)
        flows = _group(*table.take(slots), len(slots))
        first_ts, dsts, rtts = (
            table.first_ts[slots], table.dst[slots], table.rtt[slots]
        )
        table.release(slots)
        return (first_ts, dsts, rtts, *flows)

    def _close_flows(self, first_ts, dsts, rtts, values, times, lengths) -> None:
        """Route finished flows, in order, to the short or long dataset.

        One flow per entry of ``first_ts``/``dsts``/``rtts``/``lengths``;
        ``values`` and ``times`` hold the flows' packets back to back.
        """
        import numpy as np

        count = len(lengths)
        if not count:
            return
        output = self._output
        stats = self.stats
        base = self._base_time if self._base_time is not None else 0.0
        offsets = np.cumsum(lengths) - lengths
        short = lengths <= self.config.short_flow_max
        indices = np.empty(count, dtype=np.int64)

        short_flows = np.flatnonzero(short)
        hits = 0
        if len(short_flows):
            # Each distinct vector meets the matcher once, in first-close
            # order; a repeat is a memoized hit.
            firsts, label = _distinct(
                _vector_keys(values[np.repeat(short, lengths)], lengths[short_flows])
            )
            find, add = self._matcher.find, self._matcher.add
            resolved = np.empty(len(firsts), dtype=np.int64)
            for distinct, flow in enumerate(short_flows[firsts].tolist()):
                start = int(offsets[flow])
                vector = tuple(values[start : start + int(lengths[flow])].tolist())
                index = find(vector)
                if index is None:
                    index = add(vector)
                else:
                    hits += 1
                resolved[distinct] = index
            hits += len(short_flows) - len(firsts)
            indices[short_flows] = resolved[label]

        long_flows = np.flatnonzero(~short)
        if len(long_flows):
            long_templates = output.long_templates
            indices[long_flows] = np.arange(
                len(long_templates), len(long_templates) + len(long_flows)
            )
            value_list, time_list = values.tolist(), times.tolist()
            for start, size in zip(
                offsets[long_flows].tolist(), lengths[long_flows].tolist()
            ):
                stop = start + size
                long_templates.append(
                    LongFlowTemplate(
                        tuple(value_list[start:stop]),
                        tuple(inter_packet_gaps(time_list[start:stop])),
                    )
                )

        firsts, inverse = _distinct([dsts])
        interned = list(map(output.addresses.intern, dsts[firsts].tolist()))
        stamps = first_ts - base
        stamps = np.where(stamps > 0.0, stamps, 0.0)
        rtts = np.where(short & (rtts > 0.0), rtts, 0.0)
        # Records are built a batch at a time, so the field lists stay
        # small; the address indices are the table's own ints, and a
        # zero RTT is the one shared 0.0.
        append = output.time_seq.extend
        for start in range(0, count, _RECORD_BATCH):
            batch = slice(start, start + _RECORD_BATCH)
            append(
                map(
                    TimeSeqRecord,
                    stamps[batch].tolist(),
                    map((_LONG, _SHORT).__getitem__, short[batch].tolist()),
                    indices[batch].tolist(),
                    map(interned.__getitem__, inverse[batch].tolist()),
                    [rtt or 0.0 for rtt in rtts[batch].tolist()],
                )
            )
        short_count = len(short_flows)
        stats.flows_closed += count
        stats.short_flows += short_count
        stats.long_flows += count - short_count
        stats.template_hits += hits
        stats.template_misses += short_count - hits
        output.original_packet_count += int(lengths.sum())


_SHORT, _LONG = DatasetId.SHORT, DatasetId.LONG
