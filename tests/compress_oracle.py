"""The reference compressor: section 3 over the paper's linked list.

This is the flow-clustering compressor in its most readable form, kept
only as the differential oracle.  Packets become :class:`FlowNode`\\ s
on an :class:`ActiveFlowList` ("a new node is inserted at the end of a
linked list"), each with its packet sub-list of :class:`PacketEntry`
objects; flows close on FIN/RST, idle timeout or end of trace and are
routed to the short-template search or the verbatim long-flow dataset.
It shares nothing with the engine under test beyond the configuration,
the dataset types and the equation-4 :class:`TemplateMatcher`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.core.compressor import CompressorConfig, CompressorStats, TemplateMatcher
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    TimeSeqRecord,
    inter_packet_gaps,
)
from repro.core.errors import CompressionError
from repro.flows.characterize import packet_value
from repro.flows.model import Direction, FlowPacket
from repro.net.flowkey import FiveTuple, flow_hash
from repro.net.packet import PacketRecord
from repro.net.tcp import is_flow_terminator


# -- the active-flow linked list ----------------------------------------------


@dataclass
class PacketEntry:
    """One packet in a node's sub-list: what compression needs to keep."""

    timestamp: float
    value: int  # f(p_i)
    direction: Direction


class FlowNode:
    """A linked-list node for one active flow.

    "Each node stores the following fields: a key (a hashing of source
    and destination IP addresses, source and destination port numbers,
    and protocol number), time-stamp, V_f value and two pointers."
    """

    __slots__ = (
        "key",
        "key_hash",
        "first_timestamp",
        "values",
        "entries",
        "client_tuple",
        "dst_ip",
        "prev",
        "next",
    )

    def __init__(self, client_tuple: FiveTuple, first_timestamp: float) -> None:
        self.client_tuple = client_tuple
        self.key = client_tuple.canonical()
        self.key_hash = flow_hash(self.key)
        self.first_timestamp = first_timestamp
        self.values: list[int] = []
        self.entries: list[PacketEntry] = []
        self.dst_ip = client_tuple.dst_ip
        self.prev: Optional["FlowNode"] = None
        self.next: Optional["FlowNode"] = None

    @property
    def packet_count(self) -> int:
        """Packets accumulated so far (the paper's 'inserted nodes')."""
        return len(self.entries)

    def append_packet(
        self, timestamp: float, value: int, direction: Direction
    ) -> None:
        """Insert a packet into the node's packet sub-list."""
        self.values.append(value)
        self.entries.append(PacketEntry(timestamp, value, direction))

    def vector(self) -> tuple[int, ...]:
        """The flow's V_f vector accumulated so far."""
        return tuple(self.values)

    def inter_packet_gaps(self) -> list[float]:
        """Gaps between consecutive packets, with a trailing 0 (n entries)."""
        return inter_packet_gaps([entry.timestamp for entry in self.entries])

    def estimate_rtt(self) -> float:
        """Gap to the first direction turnaround (section 2's RTT notion)."""
        if not self.entries:
            return 0.0
        first = self.entries[0]
        for entry in self.entries[1:]:
            if entry.direction is not first.direction:
                return entry.timestamp - first.timestamp
        return 0.0


class ActiveFlowList:
    """Doubly linked list of active flows with hash-keyed lookup."""

    def __init__(self) -> None:
        self._head: Optional[FlowNode] = None
        self._tail: Optional[FlowNode] = None
        self._by_key: dict[FiveTuple, FlowNode] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FlowNode]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def find(self, key: FiveTuple) -> Optional[FlowNode]:
        """The node for a canonical 5-tuple, or None."""
        return self._by_key.get(key)

    def insert(self, client_tuple: FiveTuple, timestamp: float) -> FlowNode:
        """Append a new flow node at the tail (paper: 'at the end')."""
        node = FlowNode(client_tuple, timestamp)
        if node.key in self._by_key:
            raise ValueError(f"flow already active: {node.key.describe()}")
        if self._tail is None:
            self._head = self._tail = node
        else:
            node.prev = self._tail
            self._tail.next = node
            self._tail = node
        self._by_key[node.key] = node
        self._size += 1
        return node

    def remove(self, node: FlowNode) -> None:
        """Unlink a node ("remove all nodes of this flow from the list")."""
        if self._by_key.get(node.key) is not node:
            raise ValueError(f"node not in list: {node.key.describe()}")
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None
        del self._by_key[node.key]
        self._size -= 1

    def pop_all(self) -> list[FlowNode]:
        """Remove and return every node, in list order (end-of-trace flush)."""
        nodes = list(self)
        for node in nodes:
            self.remove(node)
        return nodes


# -- the compressor -----------------------------------------------------------


class FlowClusterCompressor:
    """Reference compressor; feed packets, then :meth:`finish`."""

    def __init__(
        self,
        config: CompressorConfig | None = None,
        name: str = "compressed",
        base_time: float | None = None,
    ) -> None:
        self.config = config or CompressorConfig()
        self.stats = CompressorStats()
        self._active = ActiveFlowList()
        self._last_seen: dict = {}
        self._output = CompressedTrace(name=name)
        self._matcher = TemplateMatcher(self._output.short_templates, self.config)
        self._base_time = base_time
        # An explicit base is an external clock (archive epoch) and stays
        # fixed; an auto-derived base tracks the *earliest* timestamp.
        self._explicit_base = base_time is not None
        self._earliest_seen: float | None = None
        self._finished = False

    @property
    def output(self) -> CompressedTrace:
        return self._output

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet of the input trace (timestamp order)."""
        if self._finished:
            raise CompressionError("compressor already finished")
        if self._base_time is None:
            self._base_time = packet.timestamp
        elif not self._explicit_base and packet.timestamp < self._base_time:
            self._rebase(packet.timestamp)
        key = packet.five_tuple().canonical()
        self._expire_idle(packet.timestamp, exclude=key)
        self.stats.packets += 1

        node = self._active.find(key)
        if node is None:
            node = self._active.insert(packet.five_tuple(), packet.timestamp)

        direction = (
            Direction.CLIENT_TO_SERVER
            if packet.five_tuple() == node.client_tuple
            else Direction.SERVER_TO_CLIENT
        )
        previous = node.entries[-1].direction if node.entries else None
        value = packet_value(
            FlowPacket(packet, direction), previous, self.config.characterization
        )
        node.append_packet(packet.timestamp, value, direction)
        self._last_seen[node.key] = packet.timestamp
        if self._earliest_seen is None or packet.timestamp < self._earliest_seen:
            self._earliest_seen = packet.timestamp

        if is_flow_terminator(packet.flags):
            self._active.remove(node)
            self._last_seen.pop(node.key, None)
            self._close_flow(node)

    def finish(self) -> CompressedTrace:
        """Flush open flows and return the completed datasets."""
        if not self._finished:
            for node in self._active.pop_all():
                self._last_seen.pop(node.key, None)
                self._close_flow(node)
            self._finished = True
        return self._output

    def _rebase(self, new_base: float) -> None:
        """Lower the auto-derived base and shift closed flows' offsets."""
        delta = self._base_time - new_base
        self._base_time = new_base
        self._output.time_seq[:] = [
            replace(record, timestamp=record.timestamp + delta)
            for record in self._output.time_seq
        ]

    def _expire_idle(self, now: float, exclude=None) -> None:
        # The flow delivering the clock tick (``exclude``) is never
        # evicted: it is provably active at ``now``.
        timeout = self.config.idle_timeout
        if self._earliest_seen is None or now - self._earliest_seen <= timeout:
            return
        stale = [
            key
            for key, last in self._last_seen.items()
            if now - last > timeout and key != exclude
        ]
        for key in stale:
            node = self._active.find(key)
            if node is not None:
                self._active.remove(node)
                self.stats.flows_evicted += 1
                self._close_flow(node)
            del self._last_seen[key]
        self._earliest_seen = min(self._last_seen.values(), default=None)

    def _close_flow(self, node: FlowNode) -> None:
        """Route a finished flow to the short or long dataset."""
        if node.packet_count == 0:
            return
        self.stats.flows_closed += 1
        if node.packet_count <= self.config.short_flow_max:
            self._close_short(node)
        else:
            self._close_long(node)

    def _close_short(self, node: FlowNode) -> None:
        self.stats.short_flows += 1
        vector = node.vector()
        index = self._matcher.find(vector)
        if index is None:
            index = self._matcher.add(vector)
            self.stats.template_misses += 1
        else:
            self.stats.template_hits += 1
        self._append_time_seq(node, DatasetId.SHORT, index, rtt=node.estimate_rtt())

    def _close_long(self, node: FlowNode) -> None:
        self.stats.long_flows += 1
        template = LongFlowTemplate(
            values=node.vector(), gaps=tuple(node.inter_packet_gaps())
        )
        index = len(self._output.long_templates)
        self._output.long_templates.append(template)
        self._append_time_seq(node, DatasetId.LONG, index, rtt=0.0)

    def _append_time_seq(
        self, node: FlowNode, dataset: DatasetId, template_index: int, rtt: float
    ) -> None:
        base = self._base_time if self._base_time is not None else 0.0
        address_index = self._output.addresses.intern(node.dst_ip)
        self._output.time_seq.append(
            TimeSeqRecord(
                timestamp=max(0.0, node.first_timestamp - base),
                dataset=dataset,
                template_index=template_index,
                address_index=address_index,
                rtt=max(0.0, rtt),
            )
        )
        self._output.original_packet_count += node.packet_count



def run_oracle(
    packets, config=None, *, name="compressed", base_time=None
) -> FlowClusterCompressor:
    """Compress a packet sequence; the finished compressor carries the
    reference ``output`` and ``stats``."""
    compressor = FlowClusterCompressor(config, name=name, base_time=base_time)
    for packet in packets:
        compressor.add_packet(packet)
    compressor.finish()
    return compressor
