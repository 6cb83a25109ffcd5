"""PacketColumns container and the columnar flow-key kernels.

Every columnar function here has a scalar reference in the same package;
each test computes both and asserts element-wise equality.
"""

import pytest

from repro.net.columns import COLUMN_FIELDS, columns_from_records, empty_columns
from repro.net.flowkey import canonical_key_columns
from repro.net.packet import PacketRecord
from repro.synth import generate_web_trace
from repro.trace.tsh import decode_columns, write_tsh_bytes


@pytest.fixture(scope="module")
def packets():
    return list(generate_web_trace(duration=1.0, flow_rate=40.0, seed=3).packets)


@pytest.fixture(params=["native"])
def backend(request):
    """numpy, the one column backend.

    A single parameter, kept so these cases keep their ``[native]`` ids.
    """
    return request.param


def test_roundtrip_records(packets, backend):
    cols = columns_from_records(packets)
    assert len(cols) == len(packets)
    assert cols.to_records() == packets


def test_empty_columns(backend):
    cols = empty_columns()
    assert len(cols) == 0
    assert cols.to_records() == []


def test_slice_and_select(packets, backend):
    cols = columns_from_records(packets)
    assert cols.slice(10, 25).to_records() == packets[10:25]
    indices = list(range(0, len(packets), 7))
    assert cols.select(indices).to_records() == [packets[i] for i in indices]


def test_column_fields_cover_packet_record(packets):
    cols = columns_from_records(packets[:4])
    named = dict(zip(COLUMN_FIELDS, cols.columns()))
    assert named["timestamps"].tolist() == [p.timestamp for p in packets[:4]]
    assert named["src_ip"].tolist() == [p.src_ip for p in packets[:4]]
    assert named["flags"].tolist() == [p.flags for p in packets[:4]]


# -- flow-key kernels vs their scalar references ----------------------------


def test_canonical_key_columns_matches_five_tuple(packets, backend):
    cols = columns_from_records(packets)
    key_lo, key_hi, forward = canonical_key_columns(cols)
    assert (key_lo.dtype, key_hi.dtype, forward.dtype) == ("uint64", "uint64", bool)
    for packet, lo, hi, fwd in zip(
        packets, key_lo.tolist(), key_hi.tolist(), forward.tolist()
    ):
        canon = packet.five_tuple().canonical()
        assert lo == ((canon.src_ip << 16 | canon.src_port) << 8) | canon.protocol
        assert hi == (canon.dst_ip << 16) | canon.dst_port
        assert bool(fwd) == (packet.five_tuple() == canon)


# -- TSH columnar decode ----------------------------------------------------


def test_decode_columns_matches_decode_record(packets, backend):
    data = write_tsh_bytes(packets)
    cols = decode_columns(data)
    decoded = cols.to_records()
    assert len(decoded) == len(packets)
    for original, roundtripped in zip(packets, decoded):
        # TSH quantizes timestamps to microseconds; everything else exact.
        assert abs(roundtripped.timestamp - original.timestamp) < 1e-5
        assert roundtripped.src_ip == original.src_ip
        assert roundtripped.dst_port == original.dst_port
        assert roundtripped.flags == original.flags


def test_decode_columns_rejects_partial_record():
    data = write_tsh_bytes(
        [PacketRecord(0.0, 1, 2, 3, 4, 6, 0, 0)]
    )
    with pytest.raises(ValueError):
        decode_columns(data[:-1])

