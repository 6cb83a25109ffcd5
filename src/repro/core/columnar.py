"""The flow-clustering engine — columnar, vectorized where it can be.

:class:`ColumnarFlowCompressor` implements section 3 of the paper over
:class:`~repro.net.columns.PacketColumns` chunks.  Per-chunk work —
flag/payload classes, canonical keys, direction bits, terminator tests —
is vectorized (numpy when importable, the stdlib ``array`` fallback
otherwise; same bytes either way); only the irreducibly sequential part
(one dict probe and a couple of list appends per packet) remains a
Python loop, with no ``PacketRecord``/``FiveTuple`` objects on it.

**Byte identity with the paper's algorithm is a hard contract**, pinned
by the differential harness in ``tests/property/test_columnar_identity.py``
against the linked-list reference in ``tests/compress_oracle.py``: for
any packet sequence and any chunking, this engine's output equals the
reference's to the byte.  The replicated semantics worth naming:

* insertion-ordered dicts stand in for the active-flow linked list and
  its last-seen map — both receive the same insert/remove sequence, so
  iteration (idle eviction, end-of-trace flush) visits flows in the
  same order;
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
from repro.net.columns import PacketColumns, numpy_or_none, tolist
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
        kernel = "numpy" if numpy_or_none() is not None else "fallback"
        obs_current().counter(
            f"columnar.kernel.{kernel}",
            "columnar compressors instantiated on this kernel backend",
        ).inc()

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
        """Process one chunk (timestamp order across all feeds)."""
        if self._finished:
            raise CompressionError("compressor already finished")
        count = len(columns)
        if count == 0:
            return 0
        obs_current().histogram(
            "columnar.chunk_packets", "rows per columnar chunk fed"
        ).observe(count)
        timestamps, keys, forwards, base_values, terminators, dst_ips = (
            self._derive(columns)
        )
        config = self.config
        timeout = config.idle_timeout
        short_max = config.short_flow_max
        w_dep = config.characterization.weights.dependence
        flows = self._flows
        stats = self.stats
        output_time_seq = self._output.time_seq
        base = self._base_time
        explicit = self._explicit_base
        earliest = self._earliest_seen
        peak = self._peak_active

        for i in range(count):
            now = timestamps[i]
            if base is None:
                base = self._base_time = now
            elif not explicit and now < base:
                # Rebase: shift already-closed flows to the new earlier
                # base, relative to the trace's true earliest packet.
                delta = base - now
                base = self._base_time = now
                output_time_seq[:] = [
                    replace(record, timestamp=record.timestamp + delta)
                    for record in output_time_seq
                ]
            key = keys[i]
            if earliest is not None and now - earliest > timeout:
                self._earliest_seen = earliest
                self._expire_idle(now, exclude=key)
                earliest = self._earliest_seen
            stats.packets += 1
            forward = forwards[i]
            state = flows.get(key)
            if state is None:
                # Flow opener: g2 is 1 (waits on nothing).
                flows[key] = state = [
                    now,
                    dst_ips[i],
                    forward,
                    forward,
                    None,
                    now,
                    [base_values[i] + w_dep],
                    [now],
                ]
                if len(flows) > peak:
                    peak = len(flows)
            else:
                if forward == state[_LAST_FWD]:
                    value = base_values[i] + w_dep
                else:
                    value = base_values[i]
                if state[_RTT] is None and forward != state[_FIRST_FWD]:
                    state[_RTT] = now - state[_FIRST_TS]
                state[_LAST_FWD] = forward
                state[_LAST_SEEN] = now
                state[_VALUES].append(value)
                state[_TIMES].append(now)
            if earliest is None or now < earliest:
                earliest = now
            if terminators[i]:
                del flows[key]
                self._close(state, short_max)

        self._earliest_seen = earliest
        self._peak_active = peak
        return count

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet — the record entry point (serve, ingest and
        :func:`~repro.core.compressor.compress_trace` feed records)."""
        if self._finished:
            raise CompressionError("compressor already finished")
        now = packet.timestamp
        if self._base_time is None:
            self._base_time = now
        elif not self._explicit_base and now < self._base_time:
            delta = self._base_time - now
            self._base_time = now
            self._output.time_seq[:] = [
                replace(record, timestamp=record.timestamp + delta)
                for record in self._output.time_seq
            ]
        forward_end = (packet.src_ip << 16) | packet.src_port
        backward_end = (packet.dst_ip << 16) | packet.dst_port
        forward = forward_end <= backward_end
        low, high = (
            (forward_end, backward_end)
            if forward
            else (backward_end, forward_end)
        )
        key = ((low << 8) | packet.protocol, high)
        self._expire_idle(now, exclude=key)
        self.stats.packets += 1
        characterization = self.config.characterization
        weights = characterization.weights
        payload = packet.payload_len
        if payload == 0:
            payload_class = 0
        elif payload <= characterization.payload_small_max:
            payload_class = 1
        else:
            payload_class = 2
        base_value = (
            weights.flags * _FLAG_CLASS[packet.flags & 0xFF]
            + weights.payload * payload_class
        )
        w_dep = weights.dependence
        flows = self._flows
        state = flows.get(key)
        if state is None:
            flows[key] = state = [
                now,
                packet.dst_ip,
                forward,
                forward,
                None,
                now,
                [base_value + w_dep],
                [now],
            ]
            if len(flows) > self._peak_active:
                self._peak_active = len(flows)
        else:
            value = base_value + w_dep if forward == state[_LAST_FWD] else base_value
            if state[_RTT] is None and forward != state[_FIRST_FWD]:
                state[_RTT] = now - state[_FIRST_TS]
            state[_LAST_FWD] = forward
            state[_LAST_SEEN] = now
            state[_VALUES].append(value)
            state[_TIMES].append(now)
        if self._earliest_seen is None or now < self._earliest_seen:
            self._earliest_seen = now
        if packet.flags & _TERMINATOR_MASK:
            del flows[key]
            self._close(state, self.config.short_flow_max)

    def finish(self) -> CompressedTrace:
        """Flush open flows (in arrival order) and return the datasets."""
        if not self._finished:
            short_max = self.config.short_flow_max
            for state in list(self._flows.values()):
                self._close(state, short_max)
            self._flows.clear()
            self._finished = True
        return self._output

    # -- internals --------------------------------------------------------

    def _derive(self, columns: PacketColumns):
        """Per-chunk vectorized precomputation, returned as plain lists."""
        characterization = self.config.characterization
        weights = characterization.weights
        w_flags, w_payload = weights.flags, weights.payload
        small_max = characterization.payload_small_max
        np = numpy_or_none()
        if np is not None:
            global _flag_class_np
            if _flag_class_np is None:
                _flag_class_np = np.array(_FLAG_CLASS, dtype=np.int64)
            flags = np.asarray(columns.flags)
            payload = np.asarray(columns.payload_len)
            payload_class = (payload > 0).astype(np.int64) + (payload > small_max)
            base_values = (
                w_flags * _flag_class_np[flags] + w_payload * payload_class
            ).tolist()
            terminators = ((flags & _TERMINATOR_MASK) != 0).tolist()
            timestamps = np.asarray(columns.timestamps).tolist()
            dst_ips = np.asarray(columns.dst_ip).tolist()
        else:
            flag_table = _FLAG_CLASS
            base_values = [
                w_flags * flag_table[flag]
                + w_payload
                * (0 if payload == 0 else (1 if payload <= small_max else 2))
                for flag, payload in zip(
                    tolist(columns.flags), tolist(columns.payload_len)
                )
            ]
            terminators = [
                bool(flag & _TERMINATOR_MASK) for flag in tolist(columns.flags)
            ]
            timestamps = tolist(columns.timestamps)
            dst_ips = tolist(columns.dst_ip)
        key_lo, key_hi, forwards = canonical_key_columns(columns)
        keys = list(zip(key_lo, key_hi))
        return timestamps, keys, forwards, base_values, terminators, dst_ips

    def _expire_idle(self, now: float, exclude=None) -> None:
        # Mirrors the reference: the freshness gate on the earliest
        # last-activity bound, the strict exclusion of the flow carrying
        # the clock tick, stale collection in flow-arrival order, and
        # the bound recomputation afterwards.
        timeout = self.config.idle_timeout
        if self._earliest_seen is None or now - self._earliest_seen <= timeout:
            return
        flows = self._flows
        stale = [
            key
            for key, state in flows.items()
            if now - state[_LAST_SEEN] > timeout and key != exclude
        ]
        if stale:
            short_max = self.config.short_flow_max
            for key in stale:
                self._close(flows.pop(key), short_max)
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

    def _close(self, state: list, short_max: int) -> None:
        """Route a finished flow to the short or long dataset."""
        values = state[_VALUES]
        stats = self.stats
        stats.flows_closed += 1
        if len(values) <= short_max:
            stats.short_flows += 1
            vector = tuple(values)
            index = self._matcher.find(vector)
            if index is None:
                index = self._matcher.add(vector)
                stats.template_misses += 1
            else:
                stats.template_hits += 1
            rtt = state[_RTT]
            self._append_time_seq(
                state, DatasetId.SHORT, index, 0.0 if rtt is None else rtt
            )
        else:
            stats.long_flows += 1
            gaps = inter_packet_gaps(state[_TIMES])
            index = len(self._output.long_templates)
            self._output.long_templates.append(
                LongFlowTemplate(values=tuple(values), gaps=tuple(gaps))
            )
            self._append_time_seq(state, DatasetId.LONG, index, 0.0)

    def _append_time_seq(
        self, state: list, dataset: DatasetId, template_index: int, rtt: float
    ) -> None:
        base = self._base_time if self._base_time is not None else 0.0
        address_index = self._output.addresses.intern(state[_DST_IP])
        self._output.time_seq.append(
            TimeSeqRecord(
                timestamp=max(0.0, state[_FIRST_TS] - base),
                dataset=dataset,
                template_index=template_index,
                address_index=address_index,
                rtt=max(0.0, rtt),
            )
        )
        self._output.original_packet_count += len(state[_VALUES])
