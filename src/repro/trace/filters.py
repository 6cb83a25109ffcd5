"""Trace filters and slicers.

The paper restricts its study to Web traffic ("a subset of the original
RedIRIS trace, containing only Web flows") and plots Figure 1 against
elapsed time, which needs per-second prefixes of a trace.
"""

from __future__ import annotations

from repro.net.packet import PacketRecord, PROTO_TCP
from repro.trace.trace import Trace

WEB_PORTS = frozenset({80, 443, 8080})
"""Server ports treated as Web traffic."""


def is_web_packet(packet: PacketRecord, ports: frozenset[int] = WEB_PORTS) -> bool:
    """True when either endpoint is a Web server port over TCP."""
    if packet.protocol != PROTO_TCP:
        return False
    return packet.src_port in ports or packet.dst_port in ports


def select_elapsed(trace: Trace, elapsed_seconds: float) -> Trace:
    """The prefix of a trace covering its first ``elapsed_seconds``.

    Figure 1 samples file sizes at increasing elapsed times; this gives
    the trace prefix whose TSH size is the "Original TSH file" curve.
    """
    if elapsed_seconds < 0:
        raise ValueError("elapsed time cannot be negative")
    start = trace.start_time()
    cutoff = start + elapsed_seconds
    subset = trace.filter(lambda p: p.timestamp <= cutoff)
    return subset.renamed(f"{trace.name}@{elapsed_seconds:.0f}s")
