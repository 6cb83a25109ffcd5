"""Tests for the section 2 flow characterization."""

import pytest

from repro.flows.assembler import assemble_flows
from repro.flows.characterize import (
    DEFAULT_WEIGHTS,
    CharacterizationConfig,
    Weights,
    ack_dependence_class,
    characterize_flow,
    decode_packet_value,
    flag_class,
    payload_size_class,
)
from repro.flows.model import Direction
from repro.net.tcp import TCP_ACK, TCP_FIN, TCP_SYN

from tests.conftest import make_web_flow


class TestWeights:
    def test_paper_defaults(self):
        assert DEFAULT_WEIGHTS.as_tuple() == (16, 4, 1)

    def test_max_packet_value(self):
        # 16*3 + 4*1 + 1*2 = 54 (see DESIGN.md deviation 2).
        assert DEFAULT_WEIGHTS.max_packet_value() == 54

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Weights(flags=-1)


class TestFeatureFunctions:
    def test_flag_class_matches_tcp_module(self):
        assert flag_class(TCP_SYN) == 0
        assert flag_class(TCP_SYN | TCP_ACK) == 1
        assert flag_class(TCP_ACK) == 2
        assert flag_class(TCP_FIN | TCP_ACK) == 3

    def test_dependence_first_packet_not_dependent(self):
        assert ack_dependence_class(Direction.CLIENT_TO_SERVER, None) == 1

    def test_dependence_direction_change(self):
        assert (
            ack_dependence_class(
                Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER
            )
            == 0
        )

    def test_dependence_same_direction(self):
        assert (
            ack_dependence_class(
                Direction.CLIENT_TO_SERVER, Direction.CLIENT_TO_SERVER
            )
            == 1
        )

    def test_payload_classes(self):
        assert payload_size_class(0) == 0
        assert payload_size_class(1) == 1
        assert payload_size_class(500) == 1
        assert payload_size_class(501) == 2
        assert payload_size_class(1460) == 2

    def test_payload_negative_rejected(self):
        with pytest.raises(ValueError):
            payload_size_class(-1)

    def test_payload_custom_boundary(self):
        assert payload_size_class(800, small_max=1000) == 1


class TestCharacterizeFlow:
    def test_web_flow_vector(self, web_flow_packets):
        (flow,) = assemble_flows(web_flow_packets)
        vector = characterize_flow(flow)
        # SYN: g=(0,1,0) -> 4;  SYN+ACK: (1,0,0) -> 16;  ACK: (2,0,0) -> 32;
        # request: (2,1,1) -> 37;  data: (2,0,2) -> 34, (2,1,2) -> 38;
        # ack: (2,0,0) -> 32;  FIN: (3,1,0) -> 52.
        assert vector == (4, 16, 32, 37, 34, 38, 32, 52)

    def test_vector_length_equals_flow_length(self, multi_flow_trace):
        for flow in assemble_flows(multi_flow_trace.packets):
            assert len(characterize_flow(flow)) == len(flow)

    def test_identical_flows_identical_vectors(self):
        a = make_web_flow(start=0.0, client_port=2000)
        b = make_web_flow(start=100.0, client_port=3000, client_ip=0x8D5A0909)
        (flow_a,) = assemble_flows(a)
        (flow_b,) = assemble_flows(b)
        assert characterize_flow(flow_a) == characterize_flow(flow_b)

    def test_custom_weights_scale_values(self, web_flow_packets):
        (flow,) = assemble_flows(web_flow_packets)
        doubled = CharacterizationConfig(weights=Weights(32, 8, 2))
        assert characterize_flow(flow, doubled) == tuple(
            2 * v for v in characterize_flow(flow)
        )


class TestDecode:
    def test_roundtrip_all_triples(self):
        for g1 in range(4):
            for g2 in range(2):
                for g3 in range(3):
                    value = 16 * g1 + 4 * g2 + g3
                    assert decode_packet_value(value) == (g1, g2, g3)

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            decode_packet_value(16 * 4)  # g1 would be 4

    def test_invalid_value_raises_on_every_call(self):
        # Decoding is memoized; a failure must never be remembered as a
        # result, nor a result stop a later failure.
        for _ in range(3):
            with pytest.raises(ValueError, match="not a valid"):
                decode_packet_value(16 * 4)
            assert decode_packet_value(16 * 3 + 4 + 2) == (3, 1, 2)

    def test_memo_is_per_config(self):
        wide = CharacterizationConfig(weights=Weights(32, 8, 2))
        assert decode_packet_value(40, wide) == (1, 1, 0)
        with pytest.raises(ValueError, match="not a valid"):
            decode_packet_value(40)  # g2 would be 2 under (16, 4, 1)
        assert decode_packet_value(40, wide) == (1, 1, 0)

    def test_non_place_value_weights_rejected(self):
        config = CharacterizationConfig(weights=Weights(1, 1, 1))
        with pytest.raises(ValueError, match="place-value"):
            decode_packet_value(3, config)

    def test_zero_payload_weight_rejected(self):
        config = CharacterizationConfig(weights=Weights(16, 4, 0))
        with pytest.raises(ValueError, match="place-value"):
            decode_packet_value(3, config)
