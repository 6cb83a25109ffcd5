"""Engine parity at the edge shapes the differential fuzz rarely lands on.

`tests/property/test_columnar_identity.py` proves identity statistically;
this file pins the named corners — empty input, a single packet, flows
straddling chunk boundaries, idle eviction firing mid-chunk, rebase on
out-of-order input, explicit base times — so a regression in any one of
them fails a test that says exactly which corner broke.  It also pins
what bytes do not show: the counters and the active-flow peak.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import serialize_compressed
from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig
from repro.core.errors import CompressionError
from repro.net.columns import columns_from_records, empty_columns
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_SYN

from tests.compress_oracle import FlowClusterCompressor
from tests.property.test_columnar_identity import _packet as tiny_packet

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


def test_turnaround_after_chunk_boundary():
    """A flow's first reply arrives mid-chunk, after it opened in an
    earlier chunk: the RTT still counts from the flow's first packet."""
    packets = [_packet(0.0, flags=TCP_SYN, payload=0)]
    packets += [_packet(0.01 * i) for i in range(1, 4)]
    packets += [_packet(0.05, reverse=True), _packet(0.06, flags=TCP_FIN)]
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


@pytest.mark.parametrize(
    "last, now",
    [(0.58, 1.08), (0.18, 0.68)],
    ids=["stale-at-the-rounded-sum", "fresh-past-the-rounded-sum"],
)
def test_idle_test_rounds_as_the_reference(last, now):
    """``now - last > timeout`` as the reference rounds it: 1.08 equals
    0.58 + 0.5 yet 1.08 - 0.58 > 0.5, and 0.68 exceeds 0.18 + 0.5 yet
    0.68 - 0.18 <= 0.5.  A flow last seen at ``last`` is evicted by
    another flow's row at ``now`` exactly when the reference says so.
    The last row, far later, makes the call search for stale flows."""
    config = CompressorConfig(idle_timeout=0.5)
    packets = [_packet(last, 4000), _packet(now, 4001), _packet(now, 4000)]
    packets.append(_packet(now + 10.0, 4002))
    expected = _scalar(packets, config)
    for chunk in (1, len(packets)):
        assert _columnar(packets, config, chunk=chunk) == expected


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


@pytest.mark.parametrize("at", [0, 1])
def test_nan_timestamp_takes_the_reference_gate(at):
    """A NaN stamp fails the gate's ``<=`` test, as in the reference: the
    idle scan runs and rebuilds the bound, on column feeds too."""
    config = CompressorConfig(idle_timeout=1.0)
    packets = [_packet(0.0, 4000), _packet(5.0, 4001), _packet(9.0, 4000)]
    packets.insert(at, _packet(float("nan"), 4002))
    expected = _scalar(packets, config)
    for chunk in (1, 2, len(packets)):
        assert _columnar(packets, config, chunk=chunk) == expected


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


@settings(max_examples=40, deadline=None)
@given(
    packets=st.lists(tiny_packet, min_size=0, max_size=400),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_chunked_counters_match_per_packet(packets, seed):
    """Any chunking: the per-packet feed's counters, open flows and peak."""
    import random

    one_by_one = ColumnarFlowCompressor(name="t")
    for packet in packets:
        one_by_one.add_packet(packet)
    chunked = ColumnarFlowCompressor(name="t")
    rng = random.Random(seed)
    start = 0
    while start < len(packets):
        size = rng.randint(1, 400)
        chunked.feed_columns(columns_from_records(packets[start : start + size]))
        start += size
    assert chunked.active_flows == one_by_one.active_flows
    assert chunked.peak_active_flows == one_by_one.peak_active_flows
    assert asdict(chunked.stats) == asdict(one_by_one.stats)
    one_by_one.finish()
    chunked_bytes = serialize_compressed(chunked.finish())
    assert asdict(chunked.stats) == asdict(one_by_one.stats)
    assert chunked_bytes == _scalar(packets)


def test_idle_gate_rows_take_the_per_row_step():
    """Rows past the idle gate evict a flow fed earlier in the chunk."""
    config = CompressorConfig(idle_timeout=1.0)
    packets = _flow(0.0, 4000, 4)[:-1] + [
        _packet(5.0 + 0.1 * i, 4001 + i) for i in range(10)
    ]
    expected = _scalar(packets, config)
    for chunk in (1, 2, 4, len(packets)):
        assert _columnar(packets, config, chunk=chunk) == expected


def test_rebase_rows_take_the_per_row_step():
    """Rows below the implicit base, mid-chunk: each rebases first."""
    packets = _flow(10.0, 4000, 5) + _flow(2.0, 4001, 5)
    expected = _scalar(packets)
    for chunk in (1, 3, 6, len(packets)):
        assert _columnar(packets, chunk=chunk) == expected
