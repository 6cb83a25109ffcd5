"""TemplateMatcher's memoized search against a memo-free linear scan.

The matcher remembers each vector's first match.  That is only sound
because templates never change and buckets only grow at the end; these
tests drive random interleavings of ``find`` and ``add`` and demand
every answer equal a plain scan over the same template list.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.compressor import CompressorConfig, TemplateMatcher
from repro.core.datasets import ShortFlowTemplate


def _oracle_find(
    templates: list[tuple[int, ...]],
    vector: tuple[int, ...],
    percent: float,
    per_packet_max: int,
) -> int | None:
    """Equation 4 by hand: first same-length template within d_max."""
    threshold = len(vector) * per_packet_max * percent / 100.0
    for index, center in enumerate(templates):
        if len(center) != len(vector):
            continue
        distance = sum(abs(a - b) for a, b in zip(center, vector))
        if distance == 0 or distance < threshold:
            return index
    return None


# A small alphabet, so random draws repeat vectors exactly and land
# within the threshold of each other often.
_vectors = st.lists(
    st.sampled_from((0, 1, 2, 4, 60)), min_size=1, max_size=3
).map(tuple)
_operations = st.lists(
    st.tuples(st.sampled_from(("find", "add")), _vectors), max_size=40
)


class TestMemoMatchesLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.lists(_vectors, max_size=4),
        operations=_operations,
        percent=st.sampled_from((0.0, 2.0, 5.0, 100.0)),
    )
    @example(
        initial=[],
        operations=[("find", (1,)), ("add", (1,)), ("find", (1,))],
        percent=0.0,
    )
    @example(
        # add() of a vector an earlier template already matches: the
        # first match stays the earlier template.
        initial=[(1, 2)],
        operations=[("add", (1, 2)), ("find", (1, 2))],
        percent=2.0,
    )
    @example(
        # A miss followed by an add of a *different* vector, then the
        # missed vector's add: only the last miss may be memoized.
        initial=[],
        operations=[
            ("find", (4,)),
            ("find", (60,)),
            ("add", (4,)),
            ("find", (60,)),
            ("add", (60,)),
            ("find", (60,)),
        ],
        percent=0.0,
    )
    def test_interleaved_find_add(self, initial, operations, percent):
        config = CompressorConfig(similarity_percent=percent)
        templates = [ShortFlowTemplate(values) for values in initial]
        matcher = TemplateMatcher(templates, config)
        plain = list(initial)
        for operation, vector in operations:
            if operation == "find":
                assert matcher.find(vector) == _oracle_find(
                    plain, vector, percent, config.per_packet_max
                )
            else:
                assert matcher.add(vector) == len(plain)
                plain.append(vector)
            assert [t.values for t in templates] == plain

    def test_repeat_find_after_growth_keeps_first_match(self):
        config = CompressorConfig(similarity_percent=100.0)
        matcher = TemplateMatcher([], config)
        assert matcher.find((5, 5)) is None
        assert matcher.add((5, 5)) == 0
        assert matcher.add((6, 6)) == 1
        assert matcher.find((6, 6)) == 0  # the older template is in range
        assert matcher.find((5, 5)) == 0
