"""The open-flow table: what an open flow costs, and the corners it owns.

``core/columnar.py`` keeps every open flow as one slot of a columnar
table (a key → slot dict, per-slot arrays and one packet log).  These
tests pin the shapes the table makes its own: flows reopened or
continued across chunks, a log that compacts while flows stay open,
eviction order taken from the table, eviction inside the kernel under
every feed shape, growth that never reads an entry before writing it,
and the batched clamps on NaN and negative-zero values.  Every identity
check compares against the reference compressor in
``tests/compress_oracle.py``.
"""

from __future__ import annotations

import gc
import math

import pytest

from repro.archive import ArchiveWriter
from repro.core.codec import serialize_compressed
from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig, compress_trace
from repro.core.streaming import StreamingCompressor
from repro.net.columns import columns_from_records
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN
from repro.synth.scenarios import get_scenario, scenario_names

from tests.compress_oracle import FlowClusterCompressor, run_oracle
from tests.property.test_columnar_identity import scalar_bytes
from tests.property.test_scenario_identity import scenario_packets

CLIENT = 0x0A000001
SERVER = 0x0A000002


def _packet(ts, sport=4000, flags=TCP_ACK, payload=100, reverse=False, src=CLIENT):
    src, dst = (SERVER, src) if reverse else (src, SERVER)
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=80 if reverse else sport,
        dst_port=sport if reverse else 80,
        protocol=6,
        flags=flags,
        payload_len=payload,
    )


def _chunked(packets, cuts, config=None, **kwargs):
    """The engine fed ``packets`` cut at the given row offsets."""
    engine = ColumnarFlowCompressor(config, name="t", **kwargs)
    bounds = [0, *cuts, len(packets)]
    for start, stop in zip(bounds, bounds[1:]):
        engine.feed_columns(columns_from_records(packets[start:stop]))
    return engine


def _record_fields(compressed):
    """Every time-seq field, with the sign of zero and NaN made visible."""
    return [
        (
            repr(record.timestamp),
            math.copysign(1.0, record.timestamp),
            record.dataset,
            record.template_index,
            record.address_index,
            repr(record.rtt),
            math.copysign(1.0, record.rtt),
        )
        for record in compressed.time_seq
    ]


def test_open_flows_cost_no_python_objects_each():
    """20k open single-packet flows grow the tracked heap per chunk only."""
    chunks = [
        columns_from_records(
            [
                _packet(
                    0.001 * (1000 * chunk + row),
                    sport=1024 + row,
                    flags=TCP_SYN,
                    payload=0,
                    src=0x0B000000 + chunk,
                )
                for row in range(1000)
            ]
        )
        for chunk in range(20)
    ]
    engine = ColumnarFlowCompressor(name="t")
    engine.feed_columns(chunks[0])
    gc.collect()
    before = len(gc.get_objects())
    for chunk in chunks[1:]:
        engine.feed_columns(chunk)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert engine.active_flows == 20_000
    # One state list per flow grew the tracked heap by 3 objects a flow.
    assert grown < 10 * len(chunks)


def test_fin_then_reopen_inside_one_chunk():
    """One key opens, closes on FIN and reopens in a single chunk, while
    an earlier instance of it is still open from the chunk before."""
    packets = [_packet(0.0, flags=TCP_SYN, payload=0), _packet(0.01)]
    packets += [
        _packet(0.02, reverse=True),
        _packet(0.03, flags=TCP_FIN),  # closes the carried instance
        _packet(0.04, flags=TCP_SYN, payload=0),  # reopens
        _packet(0.05, reverse=True),
        _packet(0.06, flags=TCP_FIN),  # closes the reopened one
        _packet(0.07, flags=TCP_SYN, payload=0),  # and again, left open
    ]
    expected = scalar_bytes(packets)
    for cuts in ([2], [], [1, 4], [3]):
        engine = _chunked(packets, cuts)
        assert serialize_compressed(engine.finish()) == expected
    engine = _chunked(packets, [2])
    assert engine.active_flows == 1
    assert engine.stats.flows_closed == 2


def test_flow_continued_over_three_chunks_turns_in_the_second():
    packets = [_packet(0.0, flags=TCP_SYN, payload=0), _packet(0.01)]
    packets += [_packet(0.02), _packet(0.03, reverse=True), _packet(0.04)]
    packets += [_packet(0.05, reverse=True), _packet(0.06), _packet(0.07)]
    packets.append(_packet(0.08, flags=TCP_FIN))
    engine = _chunked(packets, [2, 5, 8])
    oracle = run_oracle(packets, name="t")
    assert serialize_compressed(engine.finish()) == serialize_compressed(
        oracle.output
    )
    (record,) = engine.output.time_seq
    assert record.rtt == pytest.approx(0.03)


def test_log_compaction_keeps_open_flows_whole():
    """Short flows close around long-lived ones until the log compacts;
    the long flows' rows survive it in order."""
    packets = []
    for step in range(400):
        now = 0.001 * step
        packets.append(_packet(now, sport=5000 + step % 3))  # three long flows
        packets.append(_packet(now + 0.0001, sport=6000 + step, flags=TCP_FIN))
    for port in (5000, 5001, 5002):
        packets.append(_packet(0.5 + port * 1e-6, sport=port, flags=TCP_FIN))
    expected = scalar_bytes(packets)
    for chunk in (7, 64, 500):
        cuts = list(range(chunk, len(packets), chunk))
        assert serialize_compressed(_chunked(packets, cuts).finish()) == expected


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_nan_and_negative_zero_through_the_batched_clamps(chunk):
    """``max(0.0, x)`` is 0.0 for NaN and -0.0; so is every batched clamp."""
    nan = float("nan")
    packets = [
        _packet(0.0, sport=4000),
        _packet(-0.0, sport=4000, reverse=True),  # RTT -0.0 - 0.0 = -0.0
        _packet(-0.0, sport=4001),  # first timestamp -0.0
        _packet(0.0, sport=4001, reverse=True),
        _packet(nan, sport=4002),  # first timestamp NaN
        _packet(0.5, sport=4002, reverse=True),  # RTT NaN
        _packet(0.6, sport=4003),
        _packet(nan, sport=4003, reverse=True),  # RTT NaN
        _packet(0.7, sport=4003, flags=TCP_FIN),
    ]
    cuts = list(range(chunk, len(packets), chunk))
    for base_time in (None, 0.0):
        engine = _chunked(packets, cuts, base_time=base_time)
        oracle = run_oracle(packets, name="t", base_time=base_time)
        assert _record_fields(engine.finish()) == _record_fields(oracle.output)
        assert serialize_compressed(engine.output) == serialize_compressed(
            oracle.output
        )


@pytest.mark.parametrize(
    "stamps",
    [(-math.inf, 0.0), (math.inf, -math.inf), (math.inf, math.inf)],
    ids=["first-minus-inf", "inf-then-minus-inf", "inf-turnaround"],
)
def test_infinite_stamps_match_the_reference_without_a_warning(stamps):
    """``inf - inf`` is NaN in the base and RTT arithmetic, as in the
    reference, and numpy reports no invalid value (pytest makes a
    ``RuntimeWarning`` from ``repro`` an error)."""
    first, second = stamps
    packets = [
        _packet(first, sport=4000, flags=TCP_SYN),
        _packet(second, sport=4000 if first == second else 4001, reverse=True),
    ]
    expected = _record_fields(run_oracle(packets, name="t").output)
    for cuts in ([], [1]):  # one chunk; a chunk per packet
        assert _record_fields(_chunked(packets, cuts).finish()) == expected


def test_flood_past_the_idle_timeout_through_one_segment(tmp_path):
    """A flood longer than the 64 s idle timeout in one archive segment:
    the eviction order comes from the table and equals the reference's."""
    packets = get_scenario("flood").build(duration=80.0, flow_rate=5.0, seed=3).packets
    epoch = packets[0].timestamp
    oracle = run_oracle(packets, name="flood/seg-00000", base_time=epoch)
    assert oracle.stats.flows_evicted > 0
    with ArchiveWriter.create(tmp_path / "oracle.fctca", epoch=epoch) as writer:
        writer.write_segment(oracle.output)
    dest = tmp_path / "flood.fctca"
    with ArchiveWriter.create(
        dest, epoch=epoch, segment_span=None, name="flood"
    ) as writer:
        for start in range(0, len(packets), 1489):
            writer.feed_columns(columns_from_records(packets[start : start + 1489]))
    assert dest.read_bytes() == (tmp_path / "oracle.fctca").read_bytes()


@pytest.mark.parametrize("name", scenario_names())
def test_record_feeds_match_column_feeds(name, tmp_path):
    """Record feeds are batched into column chunks: every record entry
    point gives the column feed's bytes, container and archive alike."""
    packets = list(scenario_packets(name))
    by_columns = StreamingCompressor(name="t")
    by_columns.feed(columns_from_records(packets))
    expected = serialize_compressed(by_columns.finish())
    assert serialize_compressed(compress_trace(iter(packets), name="t")) == expected
    by_records = StreamingCompressor(name="t")
    for start in range(0, len(packets), 97):
        by_records.feed(packets[start : start + 97])
    assert serialize_compressed(by_records.finish()) == expected

    epoch = packets[0].timestamp
    archives = []
    for label, feed in (
        ("records", lambda writer: writer.feed(iter(packets))),
        ("columns", lambda writer: writer.feed(columns_from_records(packets))),
        ("mixed", lambda writer: writer.feed(
            [*packets[:50], columns_from_records(packets[50:120]), *packets[120:]]
        )),
    ):
        dest = tmp_path / f"{label}.fctca"
        with ArchiveWriter.create(
            dest, epoch=epoch, segment_span=0.4, name="a"
        ) as writer:
            feed(writer)
        archives.append(dest.read_bytes())
    assert archives[0] == archives[1] == archives[2]


# -- idle eviction inside the kernel -----------------------------------------

SHORT_IDLE = CompressorConfig(idle_timeout=1.0)


def _oracle_with_peak(packets, config=None, **kwargs):
    """The reference run and the engine's peak over it: the flows open
    right after each open, a FIN/RST close coming after its row's open."""
    oracle = FlowClusterCompressor(config, name="t", **kwargs)
    peak = 0
    for packet in packets:
        opens = oracle._active.find(packet.five_tuple().canonical()) is None
        oracle.add_packet(packet)
        if opens:
            closed_by_row = bool(packet.flags & (TCP_FIN | TCP_RST))
            peak = max(peak, oracle.active_flows + closed_by_row)
    oracle.finish()
    return oracle, peak


@pytest.fixture(scope="module")
def short_idle_flood():
    """An 8 s flood under a 1 s idle timeout: most rows evict."""
    packets = get_scenario("flood").build(8.0, 40.0, 1).packets
    oracle, peak = _oracle_with_peak(packets, SHORT_IDLE)
    assert oracle.stats.flows_evicted > 1000
    return packets, serialize_compressed(oracle.output), oracle.stats, peak


def _streamed(packets, feed):
    compressor = StreamingCompressor(SHORT_IDLE, name="t")
    feed(compressor, packets)
    return compressor


def _fed_in_chunks(size):
    def feed(compressor, packets):
        for start in range(0, len(packets), size):
            compressor.feed_columns(columns_from_records(packets[start : start + size]))

    return feed


def _fed_by_record(compressor, packets):
    for packet in packets:
        compressor.add_packet(packet)


@pytest.mark.parametrize(
    "feed",
    [
        _fed_in_chunks(10**6),
        _fed_in_chunks(2048),
        _fed_in_chunks(97),
        _fed_in_chunks(1),
        _fed_by_record,
    ],
    ids=["whole", "2048", "97", "1", "add_packet"],
)
def test_short_idle_flood_matches_the_reference(short_idle_flood, feed):
    packets, expected, stats, peak = short_idle_flood
    compressor = _streamed(packets, feed)
    assert serialize_compressed(compressor.finish()) == expected
    assert compressor.stats.flows_evicted == stats.flows_evicted
    assert compressor.streaming_stats.peak_active_flows == peak


def test_short_idle_flood_through_the_archive_writer(short_idle_flood, tmp_path):
    packets, _, stats, peak = short_idle_flood
    epoch = packets[0].timestamp
    oracle, oracle_peak = _oracle_with_peak(packets, SHORT_IDLE, base_time=epoch)
    oracle.output.name = "flood/seg-00000"
    with ArchiveWriter.create(tmp_path / "oracle.fctca", epoch=epoch) as writer:
        writer.write_segment(oracle.output)
    dest = tmp_path / "flood.fctca"
    with ArchiveWriter.create(
        dest, epoch=epoch, segment_span=None, name="flood", config=SHORT_IDLE
    ) as writer:
        writer.feed(iter(packets))
        compressor = writer._feeder.compressor
        assert compressor.stats.flows_evicted == stats.flows_evicted
        assert compressor.streaming_stats.peak_active_flows == oracle_peak == peak
    assert dest.read_bytes() == (tmp_path / "oracle.fctca").read_bytes()


@pytest.fixture(params=[-1, 2**62], ids=["minus-one", "huge"])
def poisoned_growth(monkeypatch, request):
    """Table arrays grow filled with poison instead of left uninitialized:
    NaN floats, ``True`` bools and a poison int, so a read of an entry
    the engine never wrote changes the output or fails."""
    import numpy as np

    from repro.core import columnar

    def grown(column, size, keep):
        kind = column.dtype.kind
        poison = (
            np.nan if kind == "f"
            else True if kind == "b"
            else np.iinfo(column.dtype).max if kind == "u"
            else request.param
        )
        out = np.full(size, poison, dtype=column.dtype)
        out[:keep] = column[:keep]
        return out

    monkeypatch.setattr(columnar, "_grown", grown)


def test_poisoned_growth_keeps_idle_eviction_and_rebase(poisoned_growth):
    flows = [
        [_packet(0.01 * i + start, sport=port) for i in range(4)]
        for start, port in ((0.0, 4000), (0.5, 4001), (5.0, 4002))
    ]
    evicting = sorted(sum(flows, []), key=lambda packet: packet.timestamp)
    rebasing = [_packet(10.0 + 0.1 * i, sport=4000 + i % 3) for i in range(12)]
    rebasing[5:5] = [_packet(2.0 + 0.1 * i, sport=5000) for i in range(4)]
    for packets in (evicting, rebasing):
        oracle = run_oracle(packets, SHORT_IDLE, name="t")
        expected = serialize_compressed(oracle.output)
        for chunk in (1, 3, len(packets)):
            cuts = list(range(chunk, len(packets), chunk))
            engine = _chunked(packets, cuts, config=SHORT_IDLE)
            assert serialize_compressed(engine.finish()) == expected


def test_poisoned_growth_keeps_the_short_idle_flood(
    poisoned_growth, short_idle_flood
):
    packets, expected, stats, peak = short_idle_flood
    for size in (len(packets), 97):
        compressor = _streamed(packets, _fed_in_chunks(size))
        assert serialize_compressed(compressor.finish()) == expected
        assert compressor.stats.flows_evicted == stats.flows_evicted
        assert compressor.streaming_stats.peak_active_flows == peak
