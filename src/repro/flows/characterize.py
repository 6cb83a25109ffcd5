"""Flow characterization — section 2 of the paper.

Every packet ``p_i`` of a flow maps to an integer::

    f(p_i) = w1 * g1(p_i) + w2 * g2(p_i) + w3 * g3(p_i)

with the paper's weights ``w = (16, 4, 1)`` and the three per-packet
features:

``g1`` — TCP-flag class
    0 = SYN, 1 = SYN+ACK, 2 = ACK (data or pure acknowledgment),
    3 = FIN/RST family.

``g2`` — acknowledgment dependence
    0 = *dependent* packet ("a packet to be transmitted waits for a packet
    sent by the opposite node", e.g. the SYN+ACK of the handshake),
    1 = *not dependent* ("sent immediately after the last one").
    A packet is dependent exactly when the previous packet of the flow
    travelled in the opposite direction; the flow-opening packet is not
    dependent.

``g3`` — payload-size class
    0 = empty payload (40-byte header-only packet),
    1 = payload of 1..500 bytes,
    2 = payload above 500 bytes.

The per-flow vector ``V_f = (f(p_1), ..., f(p_n))`` is what the clustering
and the compressor's template datasets operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.flows.model import Direction, Flow, FlowPacket
from repro.net.tcp import classify_flags

PAYLOAD_SMALL_MAX = 500
"""Upper bound (inclusive) of the paper's middle payload class, bytes."""


@dataclass(frozen=True, slots=True)
class Weights:
    """The relative importance weights ``(w1, w2, w3)`` of section 2.

    "Depending on the type of problem to be studied, we can apply
    different weights" — so they are a first-class configuration object.
    """

    flags: int = 16
    dependence: int = 4
    payload: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("flags", self.flags),
            ("dependence", self.dependence),
            ("payload", self.payload),
        ):
            if value < 0:
                raise ValueError(f"weight {label} cannot be negative: {value}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.flags, self.dependence, self.payload)

    def max_packet_value(self) -> int:
        """Largest possible ``f(p)`` under these weights."""
        return self.flags * 3 + self.dependence * 1 + self.payload * 2


DEFAULT_WEIGHTS = Weights()
"""The paper's weights: w1=16 (flags), w2=4 (dependence), w3=1 (payload)."""


@dataclass(frozen=True)
class CharacterizationConfig:
    """Weights plus the payload class boundary (both paper-tunable)."""

    weights: Weights = DEFAULT_WEIGHTS
    payload_small_max: int = PAYLOAD_SMALL_MAX


def flag_class(flags: int) -> int:
    """``g1`` — see :func:`repro.net.tcp.classify_flags`."""
    return int(classify_flags(flags))


def ack_dependence_class(
    direction: Direction, previous_direction: Direction | None
) -> int:
    """``g2`` — 0 when the packet waited on the opposite node, else 1."""
    if previous_direction is None:
        return 1  # flow opener waits on nothing
    return 0 if direction is not previous_direction else 1


def payload_size_class(payload_len: int, small_max: int = PAYLOAD_SMALL_MAX) -> int:
    """``g3`` — 0 empty, 1 small (≤ ``small_max``), 2 large."""
    if payload_len < 0:
        raise ValueError(f"negative payload length: {payload_len}")
    if payload_len == 0:
        return 0
    if payload_len <= small_max:
        return 1
    return 2


def packet_value(
    flow_packet: FlowPacket,
    previous_direction: Direction | None,
    config: CharacterizationConfig = CharacterizationConfig(),
) -> int:
    """``f(p_i)`` for one packet given its predecessor's direction."""
    weights = config.weights
    return (
        weights.flags * flag_class(flow_packet.flags)
        + weights.dependence
        * ack_dependence_class(flow_packet.direction, previous_direction)
        + weights.payload
        * payload_size_class(flow_packet.payload_len, config.payload_small_max)
    )


def characterize_flow(
    flow: Flow, config: CharacterizationConfig = CharacterizationConfig()
) -> tuple[int, ...]:
    """The flow's ``V_f`` vector: one ``f`` value per packet, in order."""
    values: list[int] = []
    previous: Direction | None = None
    for flow_packet in flow.packets:
        values.append(packet_value(flow_packet, previous, config))
        previous = flow_packet.direction
    return tuple(values)


class PacketValueError(ValueError):
    """An integer that is no valid ``f(p)`` encoding under the weights."""


@lru_cache(maxsize=1024)
def decode_packet_value(
    value: int, config: CharacterizationConfig = CharacterizationConfig()
) -> tuple[int, int, int]:
    """Invert ``f(p) -> (g1, g2, g3)``.

    With the default weights (16, 4, 1) and class ranges g1<=3, g2<=1,
    g3<=2 the mapping is uniquely decodable by place value; the
    decompressor relies on this to re-synthesize flags and sizes.

    Memoized per ``(value, config)``: a configuration has at most a few
    dozen valid values and the decompressor decodes one per packet.  An
    invalid value raises on every call (exceptions are never cached).
    """
    weights = config.weights
    if (
        weights.payload < 1
        or weights.dependence <= 2 * weights.payload
        or weights.flags <= weights.dependence + 2 * weights.payload
    ):
        raise ValueError(
            "decoding requires place-value weights: "
            "w3 >= 1, w2 > 2*w3 and w1 > w2 + 2*w3"
        )
    g1, rest = divmod(value, weights.flags)
    g2, rest = divmod(rest, weights.dependence)
    g3 = rest // weights.payload
    if g1 > 3 or g2 > 1 or g3 > 2:
        raise PacketValueError(f"value {value} is not a valid f(p) encoding")
    return g1, g2, g3
