"""The flow-clustering engine — one chunk at a time, one table of open flows.

:class:`ColumnarFlowCompressor` implements section 3 of the paper over
:class:`~repro.net.columns.PacketColumns` chunks.  Every row goes
through one array kernel; per-chunk work — flag/payload classes,
canonical keys, direction bits, terminator tests — is vectorized with
numpy:

* **The open-flow table** (:class:`_FlowTable`) holds every open flow
  as one integer slot: a dict maps the flow key to its slot, per-slot
  arrays hold the scalar state (first and last timestamp, destination,
  first and last direction bit, RTT and whether it is set), and one
  growable packet log holds ``(slot, f(p), timestamp)`` rows.  An open
  flow costs no Python object of its own beyond its dict entry.
* **The chunk kernel** (:meth:`ColumnarFlowCompressor._feed_kernel`).
  One stable ``np.lexsort`` groups the rows by key; each group is cut
  into flow instances after every FIN/RST row and wherever the flow
  goes idle before its next row; values and the first direction
  turnaround (the RTT) are arrays.  One ``dict.get`` probe per key
  finds the instances that continue an open flow; their table state is
  updated as arrays.  New instances that survive take slots in the
  order of their opening rows.
* **Idle eviction** follows one rule: before row ``r`` is processed,
  every open flow other than row ``r``'s own with
  ``ts_r - last_ts > idle_timeout`` closes, in opening order, after any
  rebase at ``r`` and before ``r``'s own FIN/RST close.  A flow goes
  stale at the first row whose running maximum timestamp passes that
  test (:func:`_first_stale`).  A chunk is cut into kernel calls only
  at rebase rows and deep-reorder rows (:meth:`~ColumnarFlowCompressor.
  _call_bounds`), where the running maximum would stop being exact.
  The minimum of the open flows' last timestamps gates the search, so a
  call that spans less than the timeout pays nothing for it.
* **One batched close** (:meth:`ColumnarFlowCompressor._close_flows`)
  serves the kernel and ``finish``: it takes the closing flows as
  arrays, in (row, eviction before FIN/RST, opening sequence) order,
  resolves each distinct short vector with the template matcher once
  and interns each distinct destination once, both in first-close
  order.

**Byte identity with the paper's algorithm is a hard contract**, pinned
by the differential harness in ``tests/property/test_columnar_identity.py``
against the linked-list reference in ``tests/compress_oracle.py``: for
any packet sequence and any chunking, this engine's output equals the
reference's to the byte.  The replicated semantics worth naming:

* the insertion-ordered slot dict stands in for the active-flow linked
  list — it holds the same flows in the same order (the kernel inserts
  only the flows that survive the call, in the order of their opening
  rows), and each slot carries its opening sequence number, so idle
  eviction and the end-of-trace flush visit flows in the same order;
* a flow's direction structure collapses to booleans: a packet's
  direction equals the first packet's exactly when their canonical
  ``forward`` bits agree, so g2 dependence and the RTT turnaround are
  tracked with two bits and one lazily-set float per flow;
* base-time rebase, the idle test and its exclusion of the row's own
  flow, and the close/dataset logic follow the reference (same float
  arithmetic, same ordering; NaN timestamps never go stale and never
  make a flow stale; ``max(0.0, x)`` clamps become
  ``where(x > 0.0, x, 0.0)``, which agrees on NaN and −0.0).
"""

from __future__ import annotations

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
    LongFlowTemplate,
    inter_packet_gaps,
)
from repro.core.errors import CompressionError
from repro.net.columns import PacketColumns, columns_from_records
from repro.net.flowkey import canonical_key_columns
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_FIN, TCP_RST, classify_flags

_TERMINATOR_MASK = TCP_FIN | TCP_RST

# g1 class per raw flag byte — classify_flags tabulated once.
_FLAG_CLASS = tuple(int(classify_flags(flags)) for flags in range(256))
_flag_class_np = None

_MIN_SLOTS = 256
_MIN_LOG_ROWS = 1024
_FLUSH_BATCH = 4096

# A flow's dict key is its canonical key pair as one int, ``lo << 48 |
# hi`` (``hi`` is an address-and-port end, 48 bits): one untracked
# object per open flow instead of a tuple and two ints.
_KEY_SHIFT = 48


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
        self.next_seq = 0
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
        self.seq[slots] = np.arange(self.next_seq, self.next_seq + count)
        self.next_seq += count
        self.slots.update(zip(_flow_keys(key_lo, key_hi), slots.tolist()))
        return slots

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


def _running_max(timestamps):
    """Each row's running maximum timestamp, NaN read as -inf."""
    import numpy as np

    return np.maximum.accumulate(
        np.where(timestamps == timestamps, timestamps, -np.inf)
    )


def _first_stale(peaks, last, timeout):
    """For each last-activity time in ``last``, the first row whose
    running maximum ``peaks`` makes it stale (``len(peaks)`` if none).

    Stale is the paper's float test, ``peak - last > timeout``; NaN is
    never stale.  ``searchsorted`` on ``last + timeout`` lands within
    rounding of the answer; the test is monotone in the peak, so
    stepping over whole runs of equal peaks settles it exactly.
    """
    import numpy as np

    count = len(peaks)
    with np.errstate(invalid="ignore"):
        at = np.searchsorted(peaks, last + timeout, side="right")
        while True:  # back while the row before is stale too
            back = np.flatnonzero(at > 0)
            back = back[peaks[at[back] - 1] - last[back] > timeout]
            if not len(back):
                break
            at[back] = np.searchsorted(peaks, peaks[at[back] - 1], side="left")
        while True:  # ahead while this row is not stale
            ahead = np.flatnonzero(at < count)
            ahead = ahead[~(peaks[at[ahead]] - last[ahead] > timeout)]
            if not len(ahead):
                break
            at[ahead] = np.searchsorted(peaks, peaks[at[ahead]], side="right")
    return at


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
        # A lower bound on the open flows' last timestamps (NaN: none).
        self._idle_floor = float("inf")
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

        Every row goes through the chunk kernel, one call per stretch
        between :meth:`_call_bounds`.
        """
        if self._finished:
            raise CompressionError("compressor already finished")
        count = len(columns)
        if count == 0:
            return 0
        obs_current().histogram(
            "columnar.chunk_packets", "rows per columnar chunk fed"
        ).observe(count)
        derived = self._derive(columns)
        bounds = self._call_bounds(derived[0])
        for start, stop in zip(bounds, bounds[1:]):
            self._feed_kernel(*(column[start:stop] for column in derived))
        return count

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet: a one-row :meth:`feed_columns`."""
        self.feed_columns(columns_from_records([packet]))

    def finish(self) -> CompressedTrace:
        """Flush open flows (in arrival order) and return the datasets."""
        if not self._finished:
            slots = self._table.open_slots()
            self._table.slots.clear()
            # A close gives the same output batch by batch.  Batches bound
            # the working arrays of a large flush, and the table is gone
            # before the close extends the time-seq.
            batches = [
                self._take_flows(slots[start : start + _FLUSH_BATCH])
                for start in range(0, len(slots), _FLUSH_BATCH)
            ]
            self._table = _FlowTable()
            for flows in batches:
                self._close_flows(*flows)
            self._finished = True
        return self._output

    # -- internals --------------------------------------------------------

    def _rebase(self, now: float) -> None:
        # Shift already-closed flows to the new earlier base, relative to
        # the trace's true earliest packet.
        delta = self._base_time - now
        self._base_time = now
        timestamps = self._output.time_seq.timestamps
        timestamps[:] = [timestamp + delta for timestamp in timestamps]

    def _call_bounds(self, timestamps) -> list[int]:
        """Where a chunk is cut into kernel calls: its ends, every rebase
        row and every deep-reorder row.

        A rebase row lies below the implicit base (``now < base``, the
        base following each rebase); its call rebases first.  A
        deep-reorder row lies more than the idle timeout below the
        running maximum up to it.  Inside a call no row does, so past a
        flow's last row the call's running maximum comes from later rows
        only, and :func:`_first_stale` on it is exact.
        """
        import numpy as np

        cuts = np.zeros(len(timestamps), dtype=bool)
        low, high = np.fmin.reduce(timestamps), np.fmax.reduce(timestamps)
        with np.errstate(invalid="ignore"):
            # No row lies further below the running maximum than the span.
            if high - low > self._idle_timeout:
                cuts = _running_max(timestamps) - timestamps > self._idle_timeout
        base = timestamps[0] if self._base_time is None else self._base_time
        if not self._explicit_base and low < base:
            # The base before each row; a NaN row never lowers it.
            cuts |= timestamps < np.fmin.accumulate(
                np.concatenate(([base], timestamps[:-1]))
            )
        cuts[0] = True
        return [*np.flatnonzero(cuts).tolist(), len(timestamps)]

    def _feed_kernel(
        self, timestamps, key_lo, key_hi, forwards, base_values, terminators, dsts
    ) -> None:
        """One call's rows, as array operations.

        Rows are grouped by key with one stable sort and cut into flow
        instances after each FIN/RST and where a flow goes stale before
        its key's next row.  Only the first instance of a key can
        continue an open flow, so only those probe the table; an open
        flow that goes stale before that row is evicted instead.  Flows
        close in (row, eviction before FIN/RST, opening sequence) order,
        and surviving new flows take slots in the order of their opening
        rows, as the paper's per-packet loop leaves them.
        """
        import numpy as np

        count = len(timestamps)
        now = timestamps[0].item()
        if self._base_time is None:
            self._base_time = now
        elif not self._explicit_base and now < self._base_time:
            self._rebase(now)
        table = self._table
        open_before = len(table.slots)
        w_dep = self._w_dep
        timeout = self._idle_timeout
        # Nothing goes stale unless the call reaches more than the
        # timeout past the oldest activity it can see.
        floor = np.fmin(self._idle_floor, np.fmin.reduce(timestamps))
        with np.errstate(invalid="ignore"):
            evicting = bool(np.fmax.reduce(timestamps) - floor > timeout)
        order = np.lexsort((key_hi, key_lo))
        key_lo, key_hi = key_lo[order], key_hi[order]
        forwards, terminators = forwards[order], terminators[order]
        new_key = np.empty(count, dtype=bool)
        new_key[0] = True
        np.not_equal(key_lo[1:], key_lo[:-1], out=new_key[1:])
        new_key[1:] |= key_hi[1:] != key_hi[:-1]
        starts_mask = new_key.copy()
        starts_mask[1:] |= terminators[:-1]
        if evicting:
            peaks = _running_max(timestamps)
            # A flow whose last row is row i goes stale at row stale_at[i]
            # (here in key order); it is cut there if its key comes back.
            stale_at = _first_stale(peaks, timestamps, timeout)[order]
            starts_mask[1:] |= stale_at[:-1] < order[1:]
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
        fin = terminators[lasts]
        # The row each instance closes at; ``count`` if it stays open.
        close_at = np.where(fin, last_rows, stale_at[lasts] if evicting else count)
        closes = close_at < count
        slot = np.full(len(starts), -1, dtype=np.int64)

        continued = np.empty(0, dtype=np.int64)
        evicted = evicted_at = np.empty(0, dtype=np.int64)  # open flows
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
        if evicting and table.slots:
            # An open flow that goes stale before its own first row here
            # is evicted, and that row opens a new flow.  Released slots
            # hold +inf, which never goes stale.
            with np.errstate(invalid="ignore"):
                carried = np.flatnonzero(
                    peaks[-1] - table.last_ts[: table.used] > timeout
                )
            own = np.full(table.used, count)
            own[slot[continued]] = first_rows[continued]
            at = _first_stale(peaks, table.last_ts[carried], timeout)
            stale = at < own[carried]
            evicted, evicted_at = carried[stale], at[stale]
            own[evicted] = -1
            reopened = own[slot[continued]] < 0
            slot[continued[reopened]] = -1
            continued = continued[~reopened]
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

        # Open flows that close leave the dict before this call's
        # survivors enter it: a survivor may reopen the same key.
        leaving = np.concatenate((slot[continued[closes[continued]]], evicted))
        for key in table.keys(leaving):
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

        # One event per closing flow, this call's instances first: twice
        # its row, plus one for a FIN/RST.  The open at row r is event
        # 2r + 1: after the row's evictions, before its own FIN/RST.
        closed = np.flatnonzero(closes)
        events = np.concatenate((2 * close_at[closed] + fin[closed], 2 * evicted_at))
        # The peak is checked right after each open: the flows open then
        # are the earlier opens less the earlier closes.
        opens = np.sort(first_rows[opened])
        if len(opens):
            live = (
                open_before
                + np.arange(1, len(opens) + 1)
                - np.searchsorted(np.sort(events), 2 * opens + 1)
            )
            self._peak_active = max(self._peak_active, int(live.max()))
        evictions = np.flatnonzero(events % 2 == 0)
        self.stats.packets += count
        self.stats.flows_evicted += len(evictions)
        if len(events):
            # Flows opened in this call come after every open one, in
            # the order of their first rows.  Only evictions share a
            # row, so only they need that order to break the tie.
            slots = np.concatenate((slot[closed], evicted))
            carried = np.flatnonzero(slots >= 0)
            seqs = np.concatenate((table.next_seq + first_rows[closed], evicted))
            seqs[carried] = table.seq[slots[carried]]
            tie = np.zeros(len(events), dtype=np.int64)
            tie[evictions[np.argsort(seqs[evictions])]] = np.arange(len(evictions))
            close_order = np.argsort(events * (len(evictions) + 1) + tie)
            rank = np.empty(len(slots), dtype=np.int64)
            rank[close_order] = np.arange(len(slots))
            instance_rank = np.empty(len(starts), dtype=np.int64)
            instance_rank[closed] = rank[: len(closed)]
            rows = ~resident
            ranks, flow_values, flow_times = (
                instance_rank[instance_of[rows]], values[rows], times[rows]
            )
            first_ts = np.concatenate((first_ts[closed], table.first_ts[evicted]))
            flow_dst = np.concatenate((flow_dst[closed], table.dst[evicted]))
            rtts = np.concatenate((rtts[closed], table.rtt[evicted]))
            if len(carried):
                logged_ranks, logged_values, logged_times = table.take(slots[carried])
                table.release(slots[carried])
                # Logged rows are older than the call's: they go first.
                ranks = np.concatenate((rank[carried][logged_ranks], ranks))
                flow_values = np.concatenate((logged_values, flow_values))
                flow_times = np.concatenate((logged_times, flow_times))
            self._close_flows(
                first_ts[close_order],
                flow_dst[close_order],
                rtts[close_order],
                *_group(ranks, flow_values, flow_times, len(slots)),
            )
        self._idle_floor = (
            np.fmin.reduce(table.last_ts[: table.used])
            if evicting and table.used
            else floor
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
        # The address indices are the table's own ints, and a zero RTT
        # is the one shared 0.0.
        time_seq = output.time_seq
        time_seq.timestamps += stamps.tolist()
        time_seq.long += (~short).tolist()
        time_seq.template_index += indices.tolist()
        time_seq.address_index += map(interned.__getitem__, inverse.tolist())
        time_seq.rtts += [rtt or 0.0 for rtt in rtts.tolist()]
        short_count = len(short_flows)
        stats.flows_closed += count
        stats.short_flows += short_count
        stats.long_flows += count - short_count
        stats.template_hits += hits
        stats.template_misses += short_count - hits
        output.original_packet_count += int(lengths.sum())

