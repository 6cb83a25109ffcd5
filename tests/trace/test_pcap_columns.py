"""The vectorized pcap decode against the record loop, on damaged input.

``PcapStreamDecoder.feed_columns`` decodes runs of fixed 56-byte
records through one structured numpy view and leaves every other record
shape to the record step ``feed`` runs.  For any byte stream and any
slicing of it, each ``feed_columns`` call must return
``columns_from_records(feed(...))`` of the same call on a twin decoder,
or both must raise the same ``FrameDecodeError`` message.
"""

from __future__ import annotations

import io
import random
import struct

import numpy as np
import pytest

from repro.net.columns import COLUMN_FIELDS, columns_from_records
from repro.synth import generate_web_trace
from repro.trace.framing import FrameDecodeError, PcapStreamDecoder
from repro.trace.pcaplite import read_pcap, read_pcap_columns, write_pcap

GLOBAL_HEADER = 24
RECORD_BYTES = 56


@pytest.fixture(scope="module")
def capture() -> bytes:
    packets = generate_web_trace(duration=2.0, flow_rate=20.0, seed=11).packets
    buffer = io.BytesIO()
    write_pcap(packets[:400], buffer)
    return buffer.getvalue()


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded damage: flipped bytes, a cut, a widened or shortened
    capture, or an oversized original length."""
    data = bytearray(data)
    records = (len(data) - GLOBAL_HEADER) // RECORD_BYTES
    at = GLOBAL_HEADER + RECORD_BYTES * rng.randrange(records)
    kind = rng.randrange(6)
    if kind == 0:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        del data[rng.randrange(len(data)) :]
    elif kind == 2:
        # A longer capture: valid, but not the fixed shape.
        extra = rng.randint(1, 30)
        struct.pack_into("<I", data, at + 8, 40 + extra)
        data[at + RECORD_BYTES : at + RECORD_BYTES] = bytes(extra)
    elif kind == 3:
        struct.pack_into("<I", data, at + 8, rng.randrange(40))
    elif kind == 4:
        struct.pack_into("<I", data, at + 12, 0xFFFFFFFF - rng.randrange(8))
    else:
        data[: GLOBAL_HEADER] = bytes(rng.randrange(256) for _ in range(GLOBAL_HEADER))
    return bytes(data)


def _feed_both(data: bytes, sizes: list[int]):
    """Feed the twins slice by slice; stop at the first error."""
    by_columns, by_records = PcapStreamDecoder(), PcapStreamDecoder()
    position = 0
    for size in sizes + [len(data)]:
        piece = data[position : position + size]
        position += size
        outcomes = []
        for feed in (
            by_columns.feed_columns,
            lambda piece: columns_from_records(by_records.feed(piece)),
        ):
            try:
                outcomes.append(feed(piece))
            except FrameDecodeError as exc:
                outcomes.append(str(exc))
        columns, expected = outcomes
        if isinstance(expected, str):
            assert columns == expected
            return
        for name in COLUMN_FIELDS:
            got, want = getattr(columns, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert by_columns.pending_bytes == by_records.pending_bytes
        if position >= len(data):
            break
    errors = []
    for decoder in (by_columns, by_records):
        try:
            decoder.finish()
            errors.append(None)
        except FrameDecodeError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("seed", range(60))
def test_feed_columns_equals_the_record_loop_on_damaged_pcaps(capture, seed):
    rng = random.Random(seed)
    data = capture
    for _ in range(rng.randint(1, 3)):
        data = _mutate(data, rng)
    sizes = [rng.choice([1, 7, 56, 500, 4096, 1 << 20]) for _ in range(8)]
    _feed_both(data, sizes)


def test_whole_capture_decodes_as_one_run(capture):
    columns = PcapStreamDecoder().feed_columns(capture)
    assert columns.to_records() == list(read_pcap(io.BytesIO(capture)))


@pytest.mark.parametrize("chunk_size", [1, 64, 399, 400, 1000])
def test_read_pcap_columns_chunks(capture, tmp_path, chunk_size):
    path = tmp_path / "t.pcap"
    path.write_bytes(capture)
    chunks = list(read_pcap_columns(path, chunk_size))
    assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= chunk_size
    records = [record for chunk in chunks for record in chunk.to_records()]
    assert records == list(read_pcap(io.BytesIO(capture)))


def test_read_pcap_columns_raises_the_record_loop_error(capture, tmp_path):
    path = tmp_path / "t.pcap"
    path.write_bytes(capture[:-3])
    with pytest.raises(FrameDecodeError, match="truncated pcap record"):
        list(read_pcap_columns(path, 64))
