"""Incremental trace export: stream packets to disk without a Trace.

:meth:`~repro.trace.trace.Trace.save_tsh` needs the whole trace in
memory first; the streaming decompression and replay paths explicitly
never build one.  These writers couple a stream directly to the
on-disk encoders, so exporting holds one batch at most, regardless of
trace length.  The stream is either packets or the replay's sorted
batches of rows (see :mod:`repro.net.packet`): TSH is packed straight
from the rows, and packet records are built from them only for pcap.
The target format is inferred from the output suffix (``.pcap`` →
pcap-lite, anything else → TSH) unless forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable

from repro.net.packet import PacketRecord, packets_from_rows
from repro.obs import current as obs_current
from repro.trace.pcaplite import write_pcap, write_pcap_header, write_pcap_records
from repro.trace.tsh import write_tsh, write_tsh_rows

FORMAT_TSH = "tsh"
FORMAT_PCAP = "pcap"


@dataclass(frozen=True)
class ExportResult:
    """What one export wrote: packet count, byte size, chosen format."""

    packets: int
    size_bytes: int
    format: str


def export_format_for(path: str | Path) -> str:
    """The export format a path's suffix implies (default: TSH)."""
    return FORMAT_PCAP if Path(path).suffix == ".pcap" else FORMAT_TSH


def export_packet_stream(
    packets: Iterable[PacketRecord] | Iterable[list[tuple]],
    path: str | Path,
    format: str | None = None,
) -> ExportResult:
    """Write a packet stream, or a stream of replay row batches, to ``path``.

    The iterable is consumed exactly once and never materialized; each
    item is a :class:`PacketRecord` or, throughout, a list of replay
    rows.  Row batches are written one at a time, each under the
    ``stage.replay.export`` timer.  Returns the count and on-disk size,
    matching what :meth:`Trace.save_tsh` would report for the same
    packets.
    """
    chosen = format or export_format_for(path)
    if chosen not in (FORMAT_PCAP, FORMAT_TSH):
        raise ValueError(f"unknown export format: {chosen!r}")
    items = iter(packets)
    with open(path, "wb") as stream:
        first = next(items, None)
        items = chain(() if first is None else (first,), items)
        if isinstance(first, list):
            count = _write_row_batches(items, stream, chosen)
        elif chosen == FORMAT_PCAP:
            count = write_pcap(items, stream)
        else:
            count = write_tsh(items, stream)
        size = stream.tell()
    return ExportResult(packets=count, size_bytes=size, format=chosen)


def _write_row_batches(
    batches: Iterable[list[tuple]], stream: BinaryIO, chosen: str
) -> int:
    timer = obs_current().timer(
        "stage.replay.export", "wall time encoding and writing replay batches"
    )
    count = 0
    if chosen == FORMAT_PCAP:
        write_pcap_header(stream)
    for rows in batches:
        with timer.time():
            if chosen == FORMAT_PCAP:
                count += write_pcap_records(packets_from_rows(rows), stream)
            else:
                count += write_tsh_rows((rows,), stream)
    return count
