"""Long-flow templates built in one pass at the close.

The compressor takes every closing long flow's gaps from one array
difference and makes the oracle's clamp decision once per batch
(``inter_packet_gaps`` then ``LongFlowTemplate``'s checks, in
``tests/compress_oracle.py``).  Each case here must give the oracle's
datasets, or raise the oracle's exact error, fed whole and in 97- and
1-row chunks.
"""

from __future__ import annotations

import math

import pytest

from repro.core.columnar import ColumnarFlowCompressor
from repro.core.compressor import CompressorConfig, compress_trace
from repro.core.datasets import LongFlowTemplate
from repro.flows.characterize import CharacterizationConfig, Weights
from repro.net.columns import columns_from_records
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK
from repro.synth.scenarios import get_scenario

from tests.compress_oracle import run_oracle

LONG = 60  # packets: past the default short_flow_max of 50
NAN = float("nan")
GAPS_MESSAGE = "inter-packet gaps cannot be negative"
VALUES_MESSAGE = "f(p) values must fit one byte (0..255)"

# Under these weights an ACK with a large payload is 16 * 2 + 4 +
# 120 * 2 = 276, past one byte; with a small payload it is 156.
WIDE = CompressorConfig(
    characterization=CharacterizationConfig(weights=Weights(payload=120))
)
LARGE, SMALL = 1400, 100


def _flow(stamps, sport, payload=SMALL):
    """One client-to-server ACK flow, a packet per timestamp."""
    return [
        PacketRecord(ts, 0x0A000001, 0x0A000002, sport, 80, 6, TCP_ACK, payload)
        for ts in stamps
    ]


def _stamps(count=LONG, start=0.0, **changed):
    """Timestamps 10 ms apart, with ``at_<row>=value`` overrides."""
    stamps = [start + 0.01 * row for row in range(count)]
    for name, value in changed.items():
        stamps[int(name.removeprefix("at_"))] = value
    return stamps


# A two-packet flow opens first, so the base time is a plain number.
LEADER = _flow([0.0, 0.001], sport=3999)


def _gaps(template):
    return [(repr(gap), math.copysign(1.0, gap)) for gap in template.gaps]


def _fields(compressed):
    """Every dataset, with NaN and the sign of zero made visible."""
    return (
        [(template.values, _gaps(template)) for template in compressed.long_templates],
        [template.values for template in compressed.short_templates],
        [
            (repr(record.timestamp), record.dataset, record.template_index,
             record.address_index, repr(record.rtt))
            for record in compressed.time_seq
        ],
    )


def _outcome(run):
    try:
        return _fields(run())
    except ValueError as exc:
        return type(exc), str(exc)


def _engine(packets, chunk, config):
    engine = ColumnarFlowCompressor(config, name="t")
    for start in range(0, len(packets), chunk):
        engine.feed_columns(columns_from_records(packets[start : start + chunk]))
    return engine.finish()


def _matches_oracle(packets, config=None):
    """The oracle's outcome, after checking the engine gives it fed
    whole and in 97- and 1-row chunks."""
    expected = _outcome(lambda: run_oracle(packets, config, name="t").output)
    for chunk in (len(packets), 97, 1):
        assert _outcome(lambda: _engine(packets, chunk, config)) == expected, chunk
    return expected


CLAMPED = {
    "reordered stamp": _stamps(at_30=0.1),
    "NaN in the middle, then a negative gap": _stamps(at_10=NAN, at_30=0.1),
    "a stamp back to minus infinity": _stamps(at_20=-math.inf),
    # inf - 0.19, inf - inf (NaN), then 0.22 - inf, which is negative
    "infinite stamps": _stamps(at_20=math.inf, at_21=math.inf),
}
KEPT = {
    "NaN, no negative gap": _stamps(at_10=NAN),
    "negative zero gaps": _stamps(at_0=-0.0, at_1=0.0, at_2=-0.0),
}


@pytest.mark.parametrize("case", sorted(CLAMPED))
def test_a_negative_gap_clamps_its_flow(case):
    (long_templates, _, _) = _matches_oracle(LEADER + _flow(CLAMPED[case], 4000))
    ((_, gaps),) = long_templates
    assert all(gap == ("0.0", 1.0) or float(gap[0]) > 0 for gap in gaps)


@pytest.mark.parametrize("case", sorted(KEPT))
def test_gaps_without_a_negative_one_are_kept(case):
    (long_templates, _, _) = _matches_oracle(LEADER + _flow(KEPT[case], 4000))
    ((_, gaps),) = long_templates
    assert any(gap[0] == "nan" or gap[1] < 0 for gap in gaps)


def test_a_leading_nan_then_a_negative_gap_is_rejected():
    """``min`` keeps a leading NaN, so nothing clamps the flow."""
    flow = _flow(_stamps(at_1=NAN, at_30=0.1), 4000)
    assert _matches_oracle(LEADER + flow) == (ValueError, GAPS_MESSAGE)


def test_only_the_flow_with_a_negative_gap_is_clamped():
    clamped = _flow(_stamps(at_10=NAN, at_30=0.1), 4000)
    kept = _flow(_stamps(at_10=NAN), 4001)
    long_templates, _, _ = _matches_oracle(LEADER + clamped + kept)
    (_, first), (_, second) = long_templates
    # NaN - t, t - NaN, 0.1 - 0.29 and the last gap become 0.0.
    assert sum(gap == ("0.0", 1.0) for gap in first) == 4
    assert sum(gap[0] == "nan" for gap in second) == 2


def test_values_above_255_are_rejected():
    flow = _flow(_stamps(), 4000, payload=LARGE)
    assert _matches_oracle(LEADER + flow, WIDE) == (ValueError, VALUES_MESSAGE)


def test_values_are_checked_before_gaps():
    flow = _flow(_stamps(at_1=NAN, at_30=0.1), 4000, payload=LARGE)
    assert _matches_oracle(LEADER + flow, WIDE) == (ValueError, VALUES_MESSAGE)


def test_wide_weights_with_in_range_values_compress():
    (long_templates, _, _) = _matches_oracle(LEADER + _flow(_stamps(), 4000), WIDE)
    assert long_templates[0][0] == (156,) * LONG


GAPS_BAD = _flow(_stamps(start=1.0, at_1=NAN, at_30=1.1), 4000)
VALUES_BAD = _flow(_stamps(start=2.0), 4001, payload=LARGE)
SHORT_VALUES_BAD = _flow(_stamps(count=5, start=3.0), 4002, payload=LARGE)


@pytest.mark.parametrize(
    "flows, message",
    [
        ((GAPS_BAD, VALUES_BAD), GAPS_MESSAGE),
        ((VALUES_BAD, GAPS_BAD), VALUES_MESSAGE),
        # A short flow's template rejects its values when it is added.
        ((GAPS_BAD, SHORT_VALUES_BAD), GAPS_MESSAGE),
        ((SHORT_VALUES_BAD, GAPS_BAD), VALUES_MESSAGE),
    ],
    ids=["gaps-then-values", "values-then-gaps", "gaps-then-short", "short-then-gaps"],
)
def test_two_invalid_flows_in_one_close_raise_the_first(flows, message):
    """The end-of-trace flush closes both in one batch, in opening
    order: the first offender's error wins, whichever kind it is."""
    assert _matches_oracle(LEADER + flows[0] + flows[1], WIDE) == (
        ValueError,
        message,
    )


def test_a_scenario_never_checks_a_long_template_one_by_one(monkeypatch):
    """The close checks whole batches; no template runs ``__post_init__``."""
    packets = get_scenario("web-search").build(8.0, 40.0, 1).packets
    checked = []
    check = LongFlowTemplate.__post_init__

    def spy(template):
        checked.append(template)
        check(template)

    monkeypatch.setattr(LongFlowTemplate, "__post_init__", spy)
    compressed = compress_trace(packets)
    assert len(compressed.long_templates) > 10
    assert checked == []
    # The spy counts: a template built directly is checked.
    LongFlowTemplate((1,), (0.0,))
    assert len(checked) == 1
