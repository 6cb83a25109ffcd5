"""Trace storage substrate.

The paper measures compression against TSH (Time Sequence Header) trace
files — the NLANR capture format that stores, per packet, a timestamp plus
the IP header and the first 16 bytes of the TCP header in 44 bytes.  This
subpackage provides the TSH codec, a minimal pcap writer/reader for
interoperability, an in-memory :class:`Trace` container, and the
flow-statistics machinery behind the paper's section 3 numbers.
"""

from repro.trace.trace import Trace
from repro.trace.tsh import (
    TSH_RECORD_BYTES,
    read_tsh,
    read_tsh_bytes,
    write_tsh,
    write_tsh_bytes,
)
from repro.trace.reader import (
    DEFAULT_CHUNK_PACKETS,
    count_tsh_packets,
    iter_tsh_packets,
    read_columns,
)
from repro.trace.pcaplite import read_pcap, write_pcap
from repro.trace.export import (
    ExportResult,
    export_format_for,
    export_packet_stream,
)
from repro.trace.stats import FlowLengthDistribution, TraceStatistics, compute_statistics
from repro.trace.anonymize import PrefixPreservingAnonymizer, anonymize_prefix_preserving

__all__ = [
    "Trace",
    "TSH_RECORD_BYTES",
    "read_tsh",
    "read_tsh_bytes",
    "write_tsh",
    "write_tsh_bytes",
    "DEFAULT_CHUNK_PACKETS",
    "count_tsh_packets",
    "iter_tsh_packets",
    "read_columns",
    "read_pcap",
    "write_pcap",
    "ExportResult",
    "export_format_for",
    "export_packet_stream",
    "FlowLengthDistribution",
    "TraceStatistics",
    "compute_statistics",
    "PrefixPreservingAnonymizer",
    "anonymize_prefix_preserving",
]
