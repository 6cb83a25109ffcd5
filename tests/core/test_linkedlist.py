"""Tests for the compressor's active-flow linked list."""

import pytest

from repro.flows.model import Direction
from repro.net.flowkey import FiveTuple

from tests.compress_oracle import ActiveFlowList, FlowNode


def tuple_for(port: int) -> FiveTuple:
    return FiveTuple(0x0A000001, 0xC0A80001, 6, port, 80)


class TestFlowNode:
    def test_key_is_canonical(self):
        node = FlowNode(tuple_for(2000), 1.0)
        assert node.key == tuple_for(2000).canonical()

    def test_append_and_vector(self):
        node = FlowNode(tuple_for(2000), 1.0)
        node.append_packet(1.0, 4, Direction.CLIENT_TO_SERVER)
        node.append_packet(1.1, 16, Direction.SERVER_TO_CLIENT)
        assert node.vector() == (4, 16)
        assert node.packet_count == 2

    def test_inter_packet_gaps(self):
        node = FlowNode(tuple_for(2000), 1.0)
        node.append_packet(1.0, 4, Direction.CLIENT_TO_SERVER)
        node.append_packet(1.5, 16, Direction.SERVER_TO_CLIENT)
        node.append_packet(2.5, 32, Direction.CLIENT_TO_SERVER)
        assert node.inter_packet_gaps() == [0.5, 1.0, 0.0]

    def test_estimate_rtt(self):
        node = FlowNode(tuple_for(2000), 1.0)
        node.append_packet(1.0, 4, Direction.CLIENT_TO_SERVER)
        node.append_packet(1.05, 16, Direction.SERVER_TO_CLIENT)
        assert node.estimate_rtt() == pytest.approx(0.05)

    def test_estimate_rtt_empty(self):
        assert FlowNode(tuple_for(2000), 1.0).estimate_rtt() == 0.0


class TestActiveFlowList:
    def test_insert_find(self):
        flows = ActiveFlowList()
        node = flows.insert(tuple_for(2000), 1.0)
        assert flows.find(tuple_for(2000).canonical()) is node
        assert len(flows) == 1

    def test_insertion_order_at_tail(self):
        flows = ActiveFlowList()
        for port in (2000, 2001, 2002):
            flows.insert(tuple_for(port), 1.0)
        ports = [node.client_tuple.src_port for node in flows]
        assert ports == [2000, 2001, 2002]

    def test_duplicate_insert_rejected(self):
        flows = ActiveFlowList()
        flows.insert(tuple_for(2000), 1.0)
        with pytest.raises(ValueError, match="already active"):
            flows.insert(tuple_for(2000), 2.0)

    def test_remove_middle(self):
        flows = ActiveFlowList()
        nodes = [flows.insert(tuple_for(p), 1.0) for p in (2000, 2001, 2002)]
        flows.remove(nodes[1])
        assert len(flows) == 2
        assert [n.client_tuple.src_port for n in flows] == [2000, 2002]
        assert flows.find(tuple_for(2001).canonical()) is None

    def test_remove_head_and_tail(self):
        flows = ActiveFlowList()
        nodes = [flows.insert(tuple_for(p), 1.0) for p in (2000, 2001)]
        flows.remove(nodes[0])
        assert [n.client_tuple.src_port for n in flows] == [2001]
        flows.remove(nodes[1])
        assert len(flows) == 0

    def test_double_remove_rejected(self):
        flows = ActiveFlowList()
        node = flows.insert(tuple_for(2000), 1.0)
        flows.remove(node)
        with pytest.raises(ValueError):
            flows.remove(node)

    def test_pop_all(self):
        flows = ActiveFlowList()
        for port in (2000, 2001):
            flows.insert(tuple_for(port), 1.0)
        popped = flows.pop_all()
        assert len(popped) == 2
        assert len(flows) == 0
