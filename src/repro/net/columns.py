"""Columnar packet chunks — the vectorized twin of :class:`PacketRecord`.

The per-packet hot path (one ``PacketRecord`` object, one ``FiveTuple``,
one dict lookup per packet) caps throughput well below what the paper's
algorithm needs for live ingest.  :class:`PacketColumns` holds one
*chunk* of packets as thirteen fixed-dtype arrays — one per
``PacketRecord`` field — so parsing, flow-key hashing and
characterization can run over whole chunks at C speed.

Fields are numpy ``ndarray``s with the dtypes of the table in
``docs/ARCHITECTURE.md``, so every derived column vectorizes.  numpy is
imported inside the functions that build or transform columns, never at
module level: replay, query and stats import this module for the type
alone and must not pay numpy's start-up cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.net.packet import PacketRecord


COLUMN_FIELDS = (
    "timestamps",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "flags",
    "payload_len",
    "seq",
    "ack",
    "ttl",
    "ip_id",
    "window",
)
"""Column order — ``timestamps`` plus the ``PacketRecord`` fields."""


@dataclass(slots=True)
class PacketColumns:
    """One chunk of packets in columnar form.

    Fields mirror :class:`~repro.net.packet.PacketRecord` one-to-one;
    every field is a one-dimensional numpy array of the same length.
    """

    timestamps: Sequence[float]
    src_ip: Sequence[int]
    dst_ip: Sequence[int]
    src_port: Sequence[int]
    dst_port: Sequence[int]
    protocol: Sequence[int]
    flags: Sequence[int]
    payload_len: Sequence[int]
    seq: Sequence[int]
    ack: Sequence[int]
    ttl: Sequence[int]
    ip_id: Sequence[int]
    window: Sequence[int]

    def __len__(self) -> int:
        return len(self.timestamps)

    def columns(self) -> tuple:
        """The thirteen column sequences, in :data:`COLUMN_FIELDS` order."""
        return tuple(getattr(self, name) for name in COLUMN_FIELDS)

    def slice(self, start: int, stop: int) -> "PacketColumns":
        """Rows ``[start:stop)`` as a new chunk of zero-copy views."""
        return PacketColumns(*(column[start:stop] for column in self.columns()))

    def select(self, indices: Sequence[int]) -> "PacketColumns":
        """The given rows, in the given order, as a new chunk."""
        import numpy as np

        idx = np.asarray(indices, dtype=np.intp)
        return PacketColumns(*(column[idx] for column in self.columns()))

    def to_records(self) -> list[PacketRecord]:
        """Materialize the chunk as one ``PacketRecord`` per row."""
        return [
            PacketRecord(
                timestamp=ts,
                src_ip=sip,
                dst_ip=dip,
                src_port=sport,
                dst_port=dport,
                protocol=proto,
                flags=flg,
                payload_len=plen,
                seq=sq,
                ack=ak,
                ttl=tl,
                ip_id=ipid,
                window=win,
            )
            for ts, sip, dip, sport, dport, proto, flg, plen, sq, ak, tl, ipid, win in zip(
                *(column.tolist() for column in self.columns())
            )
        ]


# numpy dtype per column.
_NUMPY_DTYPES = {
    "timestamps": "f8",
    "src_ip": "u4",
    "dst_ip": "u4",
    "src_port": "u2",
    "dst_port": "u2",
    "protocol": "u1",
    "flags": "u1",
    "payload_len": "i4",
    "seq": "u4",
    "ack": "u4",
    "ttl": "u1",
    "ip_id": "u2",
    "window": "u2",
}


def columns_from_records(records: Iterable[PacketRecord]) -> PacketColumns:
    """Transpose a packet sequence into one columnar chunk."""
    import numpy as np

    records = list(records)
    raw = {
        "timestamps": [p.timestamp for p in records],
        "src_ip": [p.src_ip for p in records],
        "dst_ip": [p.dst_ip for p in records],
        "src_port": [p.src_port for p in records],
        "dst_port": [p.dst_port for p in records],
        "protocol": [p.protocol for p in records],
        "flags": [p.flags for p in records],
        "payload_len": [p.payload_len for p in records],
        "seq": [p.seq for p in records],
        "ack": [p.ack for p in records],
        "ttl": [p.ttl for p in records],
        "ip_id": [p.ip_id for p in records],
        "window": [p.window for p in records],
    }
    return PacketColumns(
        *(np.array(raw[name], dtype=_NUMPY_DTYPES[name]) for name in COLUMN_FIELDS)
    )


def concat_columns(chunks: Sequence[PacketColumns]) -> PacketColumns:
    """Several chunks as one, rows in order."""
    import numpy as np

    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return empty_columns()
    return PacketColumns(
        *(
            np.concatenate([getattr(chunk, name) for chunk in chunks])
            for name in COLUMN_FIELDS
        )
    )


def empty_columns() -> PacketColumns:
    """A zero-row chunk."""
    return columns_from_records(())
