"""Stateful packet-to-flow assembly.

The compressor in section 3 maintains a linked list of active flows keyed
by a hash of the 5-tuple and closes a flow "when a Fin or Rst TCP flag is
found".  The assembler here implements the same life cycle for offline
analysis: flows are keyed by canonical (bidirectional) 5-tuple, closed on
FIN/RST, and expired on an idle timeout so that traces without clean
teardowns still terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.net.flowkey import FiveTuple
from repro.net.packet import PacketRecord
from repro.net.tcp import is_flow_terminator
from repro.flows.model import Flow

DEFAULT_IDLE_TIMEOUT = 64.0
"""Seconds of inactivity after which a flow is considered finished."""


@dataclass(frozen=True)
class AssemblerConfig:
    """Tunables of the flow assembler.

    Attributes
    ----------
    idle_timeout:
        A flow with no packet for this many seconds is closed.
    close_on_fin:
        Close the flow at the first FIN/RST (paper behaviour).  When
        False only the idle timeout closes flows.
    min_packets:
        Flows shorter than this are dropped (the paper's characterization
        starts at 2-packet flows; single-packet 'flows' carry no vector).
    """

    idle_timeout: float = DEFAULT_IDLE_TIMEOUT
    close_on_fin: bool = True
    min_packets: int = 1


class FlowAssembler:
    """Incremental flow assembler.

    Feed packets in timestamp order with :meth:`add`; completed flows are
    returned as they close.  Call :meth:`flush` at end of trace.
    """

    def __init__(self, config: AssemblerConfig | None = None) -> None:
        self.config = config or AssemblerConfig()
        self._active: dict[FiveTuple, Flow] = {}
        self._last_seen: dict[FiveTuple, float] = {}
        self._completed_count = 0

    @property
    def active_count(self) -> int:
        """Number of currently open flows."""
        return len(self._active)

    @property
    def completed_count(self) -> int:
        """Number of flows emitted so far."""
        return self._completed_count

    def add(self, packet: PacketRecord) -> list[Flow]:
        """Process one packet; returns flows that closed as a result."""
        closed = self._expire_idle(packet.timestamp)
        key = packet.five_tuple().canonical()
        flow = self._active.get(key)
        if flow is None:
            # The flow's client perspective is the first packet's direction.
            flow = Flow(packet.five_tuple())
            self._active[key] = flow
        flow.add(packet)
        self._last_seen[key] = packet.timestamp
        if self.config.close_on_fin and is_flow_terminator(packet.flags):
            self._close(key)
            closed.append(flow)
        return self._emit(closed)

    def flush(self) -> list[Flow]:
        """Close every remaining flow (end of trace)."""
        remaining = list(self._active.values())
        self._active.clear()
        self._last_seen.clear()
        return self._emit(remaining)

    def _expire_idle(self, now: float) -> list[Flow]:
        timeout = self.config.idle_timeout
        expired_keys = [
            key
            for key, last in self._last_seen.items()
            if now - last > timeout
        ]
        expired = [self._active[key] for key in expired_keys]
        for key in expired_keys:
            self._close(key)
        return expired

    def _close(self, key: FiveTuple) -> None:
        self._active.pop(key, None)
        self._last_seen.pop(key, None)

    def _emit(self, flows: list[Flow]) -> list[Flow]:
        kept = [flow for flow in flows if len(flow) >= self.config.min_packets]
        self._completed_count += len(kept)
        return kept


def assemble_flows(
    packets: Iterable[PacketRecord], config: AssemblerConfig | None = None
) -> list[Flow]:
    """Assemble a whole packet iterable into completed flows.

    Flows are returned ordered by their first-packet timestamp, matching
    the time-seq dataset ordering of section 3.
    """
    assembler = FlowAssembler(config)
    flows: list[Flow] = []
    for packet in packets:
        flows.extend(assembler.add(packet))
    flows.extend(assembler.flush())
    flows.sort(key=lambda flow: flow.start_time())
    return flows
