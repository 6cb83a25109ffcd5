"""The 1.1 deprecation shims: warn once, stay byte-identical to the façade.

The acceptance contract of the API redesign: every deprecated entry
point must produce *byte-identical* output to the façade path that
replaces it, for the whole deprecation window.  These tests are the
pin; if a shim and the façade ever diverge, this file fails before any
user notices.
"""

import warnings

import pytest

from repro import api
from repro.archive.writer import build_archive
from repro.core.pipeline import (
    compress_stream_to_bytes,
    compress_to_bytes,
    decompress_from_bytes,
    roundtrip,
)
from repro.query.engine import filter_archive, query_archive
from repro.trace.reader import iter_tsh_packets
from repro.trace.trace import Trace


def _shim(callable_, *args, **kwargs):
    """Call a shim asserting it warns exactly one DeprecationWarning."""
    with pytest.warns(DeprecationWarning, match="deprecated"):
        return callable_(*args, **kwargs)


class TestEveryShimWarns:
    def test_all_seven(self, trace, tsh_path, fctca_path, tmp_path):
        _shim(compress_to_bytes, trace)
        _shim(compress_stream_to_bytes, iter(trace.packets))
        data, _ = _shim(compress_to_bytes, trace)
        _shim(decompress_from_bytes, data)
        _shim(roundtrip, trace)
        _shim(
            build_archive, tmp_path / "shim.fctca", iter_tsh_packets(tsh_path)
        )
        _shim(query_archive, fctca_path)
        _shim(filter_archive, fctca_path, tmp_path / "filtered.fctca")


class TestByteIdentity:
    def test_compress_to_bytes_vs_store_compress(self, tsh_path, tmp_path):
        # Same input for both paths: the on-disk trace (TSH quantizes
        # timestamps, so the pre-save in-memory trace is *not* it).
        shim_bytes, _ = _shim(compress_to_bytes, Trace.load_tsh(tsh_path))
        facade_out = tmp_path / "facade.fctc"
        with api.open(tsh_path) as store:
            store.compress(facade_out)
        assert facade_out.read_bytes() == shim_bytes

    def test_compress_stream_to_bytes_vs_store_compress(
        self, tsh_path, tmp_path
    ):
        shim_bytes, _ = _shim(
            compress_stream_to_bytes, iter_tsh_packets(tsh_path), name="t"
        )
        facade_out = tmp_path / "facade-stream.fctc"
        with api.open(
            tsh_path, options=api.Options(name="t")
        ) as store:
            store.compress(
                facade_out, options=api.Options.make(name="t")
            )
        assert facade_out.read_bytes() == shim_bytes

    def test_decompress_from_bytes_vs_store_packets(self, fctc_path):
        shim_trace = _shim(decompress_from_bytes, fctc_path.read_bytes())
        with api.open(fctc_path) as store:
            facade_packets = list(store.packets())
        assert shim_trace.packets == facade_packets

    def test_roundtrip_vs_api_roundtrip(self, trace):
        shim_trace, shim_report = _shim(roundtrip, trace)
        facade_trace, facade_report = api.roundtrip(trace)
        assert shim_trace.packets == facade_trace.packets
        assert shim_report == facade_report

    def test_build_archive_vs_create_archive(self, tsh_path, tmp_path):
        shim_out = tmp_path / "shim-build.fctca"
        facade_out = tmp_path / "facade-build.fctca"
        _shim(
            build_archive,
            shim_out,
            iter_tsh_packets(tsh_path),
            segment_span=1.0,
            name="t",
        )
        api.create_archive(
            facade_out,
            [tsh_path],
            options=api.Options.make(segment_span=1.0, name="t"),
        )
        assert shim_out.read_bytes() == facade_out.read_bytes()

    def test_query_archive_vs_store_query(self, fctca_path):
        predicate = api.TimeRange(0.0, 1.0)
        shim_result = _shim(query_archive, fctca_path, predicate)
        with api.open(fctca_path) as store:
            facade_result = store.query(predicate)
        assert shim_result.flows == facade_result.flows

    def test_filter_archive_vs_store_filter(self, fctca_path, tmp_path):
        predicate = api.TimeRange(0.0, 1.0)
        shim_out = tmp_path / "shim-filter.fctca"
        facade_out = tmp_path / "facade-filter.fctca"
        shim_written, _ = _shim(filter_archive, fctca_path, shim_out, predicate)
        with api.open(fctca_path) as store:
            facade_written, _ = store.filter(facade_out, predicate)
        assert shim_written == facade_written
        assert shim_out.read_bytes() == facade_out.read_bytes()


class TestInternalCodeIsMigrated:
    def test_facade_paths_raise_no_deprecation(self, tsh_path, tmp_path):
        """The façade itself must never route through a shim."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with api.open(tsh_path) as store:
                store.compress(tmp_path / "clean.fctc")
                store.compress(
                    tmp_path / "clean.fctca",
                    options=api.Options.make(segment_span=1.0),
                )
                list(store.flows())
            with api.open(tmp_path / "clean.fctca") as store:
                store.query(api.MatchAll())
                store.export(tmp_path / "clean.tsh")

    def test_api_roundtrip_warns_nothing(self, trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.roundtrip(trace)
