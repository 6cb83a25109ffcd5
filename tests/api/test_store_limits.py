"""``limit`` on the flow verbs: zero matches nothing, negative is an error.

``limit=0`` returns, writes or replays no flow and decodes no segment;
a negative limit raises :class:`~repro.api.errors.OptionsError` from the
store before any work, which the CLI turns into exit 2.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.api.errors import OptionsError
from repro.cli import main
from repro.query import MatchAll, QueryStats


class TestArchiveLimits:
    def test_query_limit_zero_matches_nothing(self, fctca_path):
        with api.open(fctca_path) as store:
            result = store.query(MatchAll(), limit=0)
            assert result.flows == []
            assert result.stats.segments_decoded == 0
            assert store.reader.segments_decoded == 0
            assert list(store.flows(limit=0)) == []

    def test_filter_limit_zero_writes_an_empty_archive(self, fctca_path, tmp_path):
        out = tmp_path / "none.fctca"
        with api.open(fctca_path) as store:
            written, stats = store.filter(out, MatchAll(), limit=0)
            assert store.reader.segments_decoded == 0
        assert written == 0
        assert stats.flows_matched == 0
        with api.open(out) as empty:
            assert empty.reader.segment_count == 0

    def test_packets_limit_zero_replays_nothing(self, fctca_path):
        stats = QueryStats()
        with api.open(fctca_path) as store:
            assert list(store.packets(MatchAll(), limit=0, stats=stats)) == []
            assert store.reader.segments_decoded == 0
        assert stats.flows_matched == 0

    def test_limit_one_still_returns_one_flow(self, fctca_path, tmp_path):
        with api.open(fctca_path) as store:
            assert len(store.query(MatchAll(), limit=1).flows) == 1
            _written, stats = store.filter(tmp_path / "one.fctca", limit=1)
            assert stats.flows_matched == 1

    @pytest.mark.parametrize("verb", ["query", "filter", "packets"])
    def test_negative_limit_is_an_options_error(self, fctca_path, tmp_path, verb):
        out = tmp_path / "never.fctca"
        with api.open(fctca_path) as store:
            with pytest.raises(OptionsError, match="limit"):
                if verb == "query":
                    store.query(MatchAll(), limit=-1)
                elif verb == "filter":
                    store.filter(out, MatchAll(), limit=-1)
                else:
                    store.packets(MatchAll(), limit=-1)
            assert store.reader.segments_decoded == 0
        assert not out.exists()


class TestContainerLimits:
    def test_limit_zero_matches_nothing(self, fctc_path):
        with api.open(fctc_path) as store:
            assert store.query(MatchAll(), limit=0).flows == []
            assert list(store.flows(limit=0)) == []
            assert list(store.packets(MatchAll(), limit=0)) == []

    def test_negative_limit_is_an_options_error(self, fctc_path):
        with api.open(fctc_path) as store:
            with pytest.raises(OptionsError):
                store.query(MatchAll(), limit=-2)
            with pytest.raises(OptionsError):
                store.packets(MatchAll(), limit=-2)


class TestLimitAccounting:
    """``segments_matched`` counts the survivors a limited scan reached.

    ``query()`` and a filtered ``packets(..., stats=)`` give it one
    meaning: segments after the limit stopped the scan are not counted.
    """

    @pytest.mark.parametrize("kind", ["fctc_path", "fctca_path"])
    def test_limit_zero_reaches_no_segment(self, request, kind):
        path = request.getfixturevalue(kind)
        stats = QueryStats()
        with api.open(path) as store:
            queried = store.query(MatchAll(), limit=0).stats
            assert list(store.packets(MatchAll(), limit=0, stats=stats)) == []
        assert queried.segments_matched == 0
        assert stats.segments_matched == 0
        assert stats.segments_decoded == 0

    def test_limited_replay_counts_the_segments_it_opened(self, fctca_path):
        stats = QueryStats()
        with api.open(fctca_path) as store:
            assert list(store.packets(MatchAll(), limit=1, stats=stats))
            assert store.reader.segment_count > 1
        assert stats.segments_matched == stats.segments_decoded == 1


class TestCliLimits:
    def test_query_limit_zero_prints_no_flow(self, fctca_path, capsys):
        capsys.readouterr()
        assert main(["query", str(fctca_path), "--limit", "0"]) == 0
        output = capsys.readouterr().out
        assert "seg=" not in output
        assert "segments decoded : 0/" in output

    def test_query_negative_limit_exits_2(self, fctca_path, capsys):
        assert main(["query", str(fctca_path), "--limit", "-1"]) == 2
        assert "limit" in capsys.readouterr().err

    def test_query_output_negative_limit_exits_2(self, fctca_path, tmp_path):
        out = tmp_path / "sub.fctca"
        assert (
            main(["query", str(fctca_path), "--limit", "-1", "--output", str(out)])
            == 2
        )
        assert not out.exists()
