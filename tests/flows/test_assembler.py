"""Tests for the flow assembler."""

import pytest

from repro.flows.assembler import (
    AssemblerConfig,
    FlowAssembler,
    assemble_flows,
)
from repro.net.packet import PacketRecord
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN

from tests.conftest import CLIENT_IP, SERVER_IP, make_web_flow


class TestBasicAssembly:
    def test_single_flow(self, web_flow_packets):
        flows = assemble_flows(web_flow_packets)
        assert len(flows) == 1
        assert len(flows[0]) == len(web_flow_packets)

    def test_flow_closed_on_fin(self, web_flow_packets):
        assembler = FlowAssembler()
        closed = []
        for packet in web_flow_packets:
            closed.extend(assembler.add(packet))
        # The FIN closes the flow without needing flush().
        assert len(closed) == 1
        assert assembler.active_count == 0

    def test_flow_closed_on_rst(self):
        packets = [
            PacketRecord(1.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_SYN),
            PacketRecord(1.1, SERVER_IP, CLIENT_IP, 80, 2000, flags=TCP_RST),
        ]
        flows = assemble_flows(packets)
        assert len(flows) == 1
        assert len(flows[0]) == 2

    def test_flush_emits_unterminated(self):
        packets = [
            PacketRecord(1.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK)
        ]
        assembler = FlowAssembler()
        assert assembler.add(packets[0]) == []
        assert len(assembler.flush()) == 1

    def test_two_interleaved_flows(self):
        a = make_web_flow(start=0.0, client_port=2000)
        b = make_web_flow(start=0.01, client_port=2001)
        merged = sorted(a + b, key=lambda p: p.timestamp)
        flows = assemble_flows(merged)
        assert len(flows) == 2
        assert {f.key.src_port for f in flows} == {2000, 2001}

    def test_flows_sorted_by_start_time(self):
        a = make_web_flow(start=5.0, client_port=2000)
        b = make_web_flow(start=1.0, client_port=2001)
        merged = sorted(a + b, key=lambda p: p.timestamp)
        flows = assemble_flows(merged)
        assert flows[0].start_time() < flows[1].start_time()


class TestReuseAfterFin:
    def test_same_tuple_after_fin_is_new_flow(self):
        first = make_web_flow(start=0.0)
        second = make_web_flow(start=10.0)
        flows = assemble_flows(first + second)
        assert len(flows) == 2


class TestIdleTimeout:
    def test_idle_flow_expires(self):
        config = AssemblerConfig(idle_timeout=5.0)
        packets = [
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK),
            # 10 seconds later another conversation starts.
            PacketRecord(10.0, CLIENT_IP, SERVER_IP, 2001, 80, flags=TCP_ACK),
        ]
        assembler = FlowAssembler(config)
        assembler.add(packets[0])
        closed = assembler.add(packets[1])
        assert len(closed) == 1
        assert closed[0].key.src_port == 2000

    def test_active_flow_survives_within_timeout(self):
        config = AssemblerConfig(idle_timeout=5.0)
        assembler = FlowAssembler(config)
        assembler.add(
            PacketRecord(0.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK)
        )
        closed = assembler.add(
            PacketRecord(3.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_ACK)
        )
        assert closed == []
        assert assembler.active_count == 1


class TestConfig:
    def test_min_packets_filter(self):
        config = AssemblerConfig(min_packets=3)
        packets = [
            PacketRecord(1.0, CLIENT_IP, SERVER_IP, 2000, 80, flags=TCP_FIN)
        ]
        assert assemble_flows(packets, config) == []

    def test_close_on_fin_disabled(self, web_flow_packets):
        config = AssemblerConfig(close_on_fin=False)
        assembler = FlowAssembler(config)
        for packet in web_flow_packets:
            assert assembler.add(packet) == []
        assert assembler.active_count == 1

    def test_completed_count(self, web_flow_packets):
        assembler = FlowAssembler()
        for packet in web_flow_packets:
            assembler.add(packet)
        assert assembler.completed_count == 1
