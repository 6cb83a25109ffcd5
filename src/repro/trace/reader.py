"""Chunked TSH file reading for the streaming engine.

:meth:`~repro.trace.trace.Trace.load_tsh` materializes a whole trace in
memory before any processing starts — fine for the paper's 90-second
RedIRIS captures, a non-starter for the multi-hour NLANR traces the
evaluation also covers.  This module reads a ``.tsh`` file in fixed-size
packet chunks so the streaming compressor can bound its working set by
the *active-flow* population instead of the trace length.

The readers decode the same 44-byte records as :mod:`repro.trace.tsh`
and raise ``ValueError`` on a truncated trailing record, matching
:func:`repro.trace.tsh.read_tsh`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from repro.net.packet import PacketRecord
from repro.obs import current as obs_current
from repro.trace.framing import RecordChunker
from repro.trace.tsh import TSH_RECORD_BYTES, decode_columns, decode_record_from

DEFAULT_CHUNK_PACKETS = 8192
"""Packets decoded per read; ~360 KiB of file per chunk."""


def _iter_record_blocks(path: str | Path, chunk_size: int) -> Iterator[bytes]:
    """Yield byte blocks of up to ``chunk_size`` whole 44-byte records.

    One file read per block; a read can straddle a record boundary, so a
    sub-record tail is carried into the next block.  Raises
    ``ValueError`` for a non-positive ``chunk_size`` or a truncated
    trailing record.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
    read_bytes = chunk_size * TSH_RECORD_BYTES
    # Metric handles resolved once per file, bumped once per block — the
    # per-record loop below stays untouched.
    registry = obs_current()
    bytes_read = registry.counter(
        "trace.read.bytes", "TSH bytes read from disk"
    )
    records_read = registry.counter(
        "trace.read.records", "whole 44-byte TSH records decoded"
    )
    # The re-blocking itself is the shared incremental chunker the live
    # decoders use (repro.trace.framing) — one buffering implementation
    # for files and sockets, one truncation check.
    chunker = RecordChunker(TSH_RECORD_BYTES, label="TSH record")
    with open(path, "rb") as stream:
        while True:
            data = stream.read(read_bytes)
            if not data:
                if chunker.pending_bytes:
                    registry.counter(
                        "trace.read.truncated_records",
                        "reads ending in a partial TSH record",
                    ).inc()
                chunker.finish()
                return
            bytes_read.inc(len(data))
            block = chunker.feed(data)
            if block:
                records_read.inc(len(block) // TSH_RECORD_BYTES)
                yield block


def read_columns(path: str | Path, chunk_size: int = DEFAULT_CHUNK_PACKETS):
    """Yield :class:`~repro.net.columns.PacketColumns` chunks of a file.

    The columnar engine's input path: each block of up to ``chunk_size``
    records is decoded in one vectorized pass
    (:func:`~repro.trace.tsh.decode_columns`).  Chunk boundaries come
    from the shared block reader, so they are identical across storage
    backends; truncated trailing records raise the same ``ValueError``
    as :func:`iter_tsh_packets`.
    """
    for block in _iter_record_blocks(path, chunk_size):
        yield decode_columns(block)


def iter_tsh_packets(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_PACKETS
) -> Iterator[PacketRecord]:
    """Yield packets from a ``.tsh`` file without loading it whole.

    The streaming counterpart of :meth:`Trace.load_tsh`: reads
    ``chunk_size`` records per file read and yields them one at a time.
    Raises ``ValueError`` for a non-positive ``chunk_size`` or a file
    whose size is not a multiple of the 44-byte record length.
    """
    for block in _iter_record_blocks(path, chunk_size):
        # One memoryview per block, decoded in place with unpack_from —
        # not one sliced byte copy per record.
        view = memoryview(block)
        for offset in range(0, len(block), TSH_RECORD_BYTES):
            yield decode_record_from(view, offset)


def count_tsh_packets(path: str | Path) -> int:
    """Packet count of a ``.tsh`` file from its size, without reading it."""
    size = os.stat(path).st_size
    if size % TSH_RECORD_BYTES:
        raise ValueError(
            f"{path}: size {size} is not a multiple of {TSH_RECORD_BYTES}"
        )
    return size // TSH_RECORD_BYTES
