"""Tests for trace filters."""

import pytest

from repro.net.packet import PacketRecord
from repro.trace.filters import (
    is_web_packet,
    select_elapsed,
)
from repro.trace.trace import Trace


def packet(ts: float, sport=1234, dport=80, proto=6) -> PacketRecord:
    return PacketRecord(ts, 0x0A000001, 0xC0A80001, sport, dport, protocol=proto)


class TestWebFilter:
    def test_port_80_either_side(self):
        assert is_web_packet(packet(1.0, dport=80))
        assert is_web_packet(packet(1.0, sport=80, dport=5555))

    def test_https_and_alt(self):
        assert is_web_packet(packet(1.0, dport=443))
        assert is_web_packet(packet(1.0, dport=8080))

    def test_non_web_port(self):
        assert not is_web_packet(packet(1.0, dport=25))

    def test_udp_not_web(self):
        assert not is_web_packet(packet(1.0, dport=80, proto=17))


class TestElapsed:
    def test_prefix_relative_to_start(self):
        trace = Trace([packet(t) for t in (100.0, 105.0, 111.0)])
        prefix = select_elapsed(trace, 10.0)
        assert [p.timestamp for p in prefix] == [100.0, 105.0]

    def test_zero_elapsed_keeps_first_instant(self):
        trace = Trace([packet(100.0), packet(100.0), packet(101.0)])
        assert len(select_elapsed(trace, 0.0)) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            select_elapsed(Trace(), -1.0)

