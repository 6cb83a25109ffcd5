"""Engine parity at the edge shapes the differential fuzz rarely lands on.

`tests/property/test_columnar_identity.py` proves identity statistically;
this file pins the named corners — empty input, a single packet, flows
straddling chunk boundaries, idle eviction firing mid-chunk, rebase on
out-of-order input, explicit base times — so a regression in any one of
them fails a test that says exactly which corner broke.
"""

import pytest

from repro.core.codec import serialize_compressed
from repro.core.columnar import (
    ENGINE_COLUMNAR,
    ENGINE_SCALAR,
    ColumnarFlowCompressor,
    resolve_engine,
)
from repro.core.compressor import CompressorConfig, FlowClusterCompressor
from repro.core.errors import CompressionError
from repro.net.columns import columns_from_records, empty_columns
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_SYN

CLIENT = 0x0A000001
SERVER = 0x0A000002


def _packet(ts, sport=4000, dport=80, flags=TCP_ACK, payload=100, reverse=False):
    src, dst = (SERVER, CLIENT) if reverse else (CLIENT, SERVER)
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=dport if reverse else sport,
        dst_port=sport if reverse else dport,
        protocol=6,
        flags=flags,
        payload_len=payload,
    )


def _flow(start, sport, n):
    packets = [_packet(start, sport, flags=TCP_SYN, payload=0)]
    packets += [
        _packet(start + 0.01 * i, sport, reverse=bool(i % 2))
        for i in range(1, n - 1)
    ]
    packets.append(_packet(start + 0.01 * n, sport, flags=TCP_FIN, payload=0))
    return packets


def _scalar(packets, config=None, **kwargs):
    engine = FlowClusterCompressor(config, name="t", **kwargs)
    for packet in packets:
        engine.add_packet(packet)
    return serialize_compressed(engine.finish())


def _columnar(packets, config=None, chunk=3, **kwargs):
    engine = ColumnarFlowCompressor(config, name="t", **kwargs)
    for start in range(0, len(packets), chunk):
        engine.feed_columns(columns_from_records(packets[start : start + chunk]))
    return serialize_compressed(engine.finish())


def test_empty_trace():
    assert _columnar([]) == _scalar([])


def test_empty_chunks_are_inert():
    engine = ColumnarFlowCompressor(name="t")
    engine.feed_columns(empty_columns())
    engine.feed_columns(columns_from_records(_flow(0.0, 4000, 5)))
    engine.feed_columns(empty_columns())
    assert serialize_compressed(engine.finish()) == _scalar(_flow(0.0, 4000, 5))


def test_single_packet_flow():
    packets = [_packet(1.0, flags=TCP_SYN, payload=0)]
    assert _columnar(packets) == _scalar(packets)


def test_single_packet_terminated_flow():
    packets = [_packet(1.0, flags=TCP_FIN)]
    assert _columnar(packets) == _scalar(packets)


def test_flow_straddles_chunk_boundary():
    """One flow's packets split across feed_columns calls at every offset."""
    packets = _flow(0.0, 4000, 9) + _flow(0.05, 4001, 9)
    expected = _scalar(packets)
    for chunk in range(1, len(packets) + 1):
        assert _columnar(packets, chunk=chunk) == expected


def test_idle_eviction_mid_chunk():
    """A later packet inside one chunk evicts an idle flow fed earlier."""
    config = CompressorConfig(idle_timeout=1.0)
    packets = (
        _flow(0.0, 4000, 4)[:-1]  # unterminated: stays active
        + [_packet(5.0, 4001), _packet(5.1, 4001, flags=TCP_FIN)]
    )
    expected = _scalar(packets, config)
    # All in one chunk and split right at the eviction trigger.
    assert _columnar(packets, config, chunk=len(packets)) == expected
    assert _columnar(packets, config, chunk=3) == expected


def test_rebase_on_out_of_order_timestamps():
    """A packet earlier than the auto base rewrites emitted offsets."""
    packets = [
        _packet(10.0, 4000, flags=TCP_SYN, payload=0),
        _packet(10.1, 4000),
        _packet(2.0, 4001, flags=TCP_SYN, payload=0),  # forces rebase
        _packet(10.2, 4000, flags=TCP_FIN),
        _packet(2.5, 4001, flags=TCP_FIN),
    ]
    expected = _scalar(packets)
    for chunk in (1, 2, len(packets)):
        assert _columnar(packets, chunk=chunk) == expected


def test_long_flow_packet_out_of_order_gets_a_zero_gap():
    """Two merged streams can hand a long flow an earlier-stamped packet."""
    from repro.core.codec import deserialize_compressed

    packets = _flow(0.0, 4000, 60)
    packets[30:32] = [packets[31], packets[30]]  # 0.31 arrives before 0.30
    expected = _scalar(packets)
    for chunk in (1, 7, len(packets)):
        assert _columnar(packets, chunk=chunk) == expected
    (template,) = deserialize_compressed(expected).long_templates
    assert template.n == 60
    assert template.gaps[30] == 0.0
    assert min(template.gaps) == 0.0


def test_explicit_base_time():
    packets = _flow(100.0, 4000, 6)
    assert _columnar(packets, base_time=90.0) == _scalar(packets, base_time=90.0)


@pytest.mark.parametrize("factory", [FlowClusterCompressor, ColumnarFlowCompressor])
def test_add_after_finish_raises(factory):
    engine = factory(name="t")
    engine.finish()
    with pytest.raises(CompressionError, match="already finished"):
        engine.add_packet(_packet(0.0))


def test_feed_after_finish_raises():
    engine = ColumnarFlowCompressor(name="t")
    engine.finish()
    with pytest.raises(CompressionError, match="already finished"):
        engine.feed_columns(columns_from_records([_packet(0.0)]))


def test_columnar_add_packet_matches_feed():
    """The scalar-compatible add_packet entry point is the same engine."""
    packets = _flow(0.0, 4000, 7) + _flow(0.2, 4001, 3)
    engine = ColumnarFlowCompressor(name="t")
    for packet in packets:
        engine.add_packet(packet)
    assert serialize_compressed(engine.finish()) == _scalar(packets)


def test_stats_parity():
    packets = _flow(0.0, 4000, 7) + _flow(0.2, 4001, 3) + _flow(0.5, 4002, 4)[:-1]
    scalar = FlowClusterCompressor(name="t")
    columnar = ColumnarFlowCompressor(name="t")
    scalar_peak = 0
    for packet in packets:
        scalar.add_packet(packet)
        scalar_peak = max(scalar_peak, scalar.active_flows)
    columnar.feed_columns(columns_from_records(packets))
    assert columnar.active_flows == scalar.active_flows
    assert columnar.peak_active_flows == scalar_peak
    scalar_out, columnar_out = scalar.finish(), columnar.finish()
    assert columnar_out.original_packet_count == scalar_out.original_packet_count
    assert columnar_out.flow_count() == scalar_out.flow_count()


def test_resolve_engine():
    from repro.net.columns import numpy_or_none

    auto = ENGINE_COLUMNAR if numpy_or_none() is not None else ENGINE_SCALAR
    assert resolve_engine(None) == auto
    assert resolve_engine("auto") == auto
    assert resolve_engine("scalar") == ENGINE_SCALAR
    assert resolve_engine("columnar") == ENGINE_COLUMNAR
    with pytest.raises(ValueError, match="engine must be one of"):
        resolve_engine("vectorized")


def test_resolve_engine_without_numpy(monkeypatch):
    from repro.net import columns

    monkeypatch.setattr(columns, "_np", None)
    monkeypatch.setattr(columns, "_numpy_checked", True)
    assert resolve_engine("auto") == ENGINE_SCALAR
    assert resolve_engine("columnar") == ENGINE_COLUMNAR
