"""Backend codecs through the archive and streaming layers.

The backend choice is a *storage* concern: whatever codec stores a
segment, the decoded datasets — and therefore replayed packets — must be
identical.  Canonical identity is checked through the legacy raw
serialization of each decoded segment.
"""

import pytest

from repro.api import Options, create_archive
from repro.archive import ArchiveReader, ArchiveWriter
from repro.core import compress_trace, deserialize_compressed, serialize_compressed
from repro.core.backends import get_backend
from repro.core.codec import serialize_compressed_v1
from repro.core.streaming import StreamingCompressor
from repro.query import MatchAll, QueryEngine, TimeRange
from repro.synth import generate_web_trace

BACKENDS = ("raw", "zlib", "bz2", "lzma", "auto")


def _build(path, packets, **knobs):
    """Archive ``packets`` at ``path`` in 2 s segments."""
    create_archive(path, packets, options=Options.make(segment_span=2.0, **knobs))


@pytest.fixture(scope="module")
def trace():
    return generate_web_trace(duration=6.0, flow_rate=25.0, seed=13)


@pytest.fixture(scope="module")
def raw_archive(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("backend-archives") / "raw.fctca"
    _build(path, trace.packets, name="arch")
    return path


def _segment_canon(path) -> list[bytes]:
    with ArchiveReader(path) as reader:
        return [
            serialize_compressed_v1(segment)
            for _index, segment in reader.iter_segments()
        ]


class TestArchiveBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segments_identical_across_backends(
        self, tmp_path, trace, raw_archive, backend
    ):
        path = tmp_path / f"{backend}.fctca"
        _build(path, trace.packets, backend=backend, name="arch")
        assert _segment_canon(path) == _segment_canon(raw_archive)

    def test_entropy_backend_shrinks_segments(self, tmp_path, trace, raw_archive):
        path = tmp_path / "small.fctca"
        _build(path, trace.packets, backend="zlib")
        with ArchiveReader(raw_archive) as raw, ArchiveReader(path) as zl:
            raw_bytes = sum(e.length for e in raw.entries)
            zlib_bytes = sum(e.length for e in zl.entries)
        assert zlib_bytes < raw_bytes

    def test_index_records_the_tags(self, tmp_path, trace):
        path = tmp_path / "tagged.fctca"
        _build(path, trace.packets, backend="lzma")
        tag = get_backend("lzma").tag
        with ArchiveReader(path) as reader:
            assert reader.entries
            for entry in reader.entries:
                assert set(entry.section_backends) == {tag}

    def test_replay_identical_across_backends(self, tmp_path, trace, raw_archive):
        path = tmp_path / "replay.fctca"
        _build(path, trace.packets, backend="bz2")
        with ArchiveReader(raw_archive) as a, ArchiveReader(path) as b:
            assert list(a.iter_packets()) == list(b.iter_packets())

    def test_append_mixes_backends(self, tmp_path, trace):
        path = tmp_path / "mixed.fctca"
        _build(path, trace.packets, backend="zlib")
        extra = generate_web_trace(duration=2.0, flow_rate=25.0, seed=17)
        with ArchiveWriter.append(path, segment_span=2.0, backend="lzma") as writer:
            writer.feed(extra.packets)
        zlib_tag, lzma_tag = get_backend("zlib").tag, get_backend("lzma").tag
        with ArchiveReader(path) as reader:
            tags = {entry.section_backends[0] for entry in reader.entries}
            assert tags == {zlib_tag, lzma_tag}
            # Mixed-backend archives decode segment by segment regardless.
            for _index, segment in reader.iter_segments():
                assert segment.time_seq


class TestWriterValidation:
    def test_bad_level_fails_before_touching_the_path(self, tmp_path, trace):
        from repro.core.errors import CodecError

        path = tmp_path / "precious.fctca"
        _build(path, trace.packets)
        before = path.read_bytes()
        with pytest.raises(CodecError, match="outside"):
            ArchiveWriter.create(path, backend="zlib", level=42)
        with pytest.raises(CodecError, match="outside"):
            ArchiveWriter.append(path, backend="zlib", level=42)
        # The existing archive survives the rejected request untouched.
        assert path.read_bytes() == before

    def test_unknown_backend_fails_before_touching_the_path(self, tmp_path):
        from repro.core.errors import CodecError

        path = tmp_path / "never-created.fctca"
        with pytest.raises(CodecError, match="unknown backend"):
            ArchiveWriter.create(path, backend="zstd")
        assert not path.exists()


class TestQueryOverBackends:
    def test_query_results_independent_of_backend(
        self, tmp_path, trace, raw_archive
    ):
        path = tmp_path / "query.fctca"
        _build(path, trace.packets, backend="auto")
        predicate = TimeRange(1.0, 4.0)
        with ArchiveReader(raw_archive) as a, ArchiveReader(path) as b:
            assert (
                QueryEngine(a).run(predicate).flows
                == QueryEngine(b).run(predicate).flows
            )

    def test_filter_preserves_source_backends(self, tmp_path, trace):
        source = tmp_path / "src.fctca"
        _build(source, trace.packets, backend="zlib")
        out = tmp_path / "out.fctca"
        with ArchiveReader(source) as reader:
            QueryEngine(reader).filter_to(out, MatchAll())
        tag = get_backend("zlib").tag
        with ArchiveReader(out) as reader:
            assert reader.entries
            for entry in reader.entries:
                assert set(entry.section_backends) == {tag}

    def test_filter_bad_level_fails_before_truncating_output(
        self, tmp_path, trace
    ):
        from repro.core.errors import CodecError

        source = tmp_path / "src.fctca"
        _build(source, trace.packets)
        out = tmp_path / "out.fctca"
        out.write_bytes(b"previous contents the user cares about")
        with ArchiveReader(source) as reader:
            with pytest.raises(CodecError, match="outside"):
                QueryEngine(reader).filter_to(
                    out, MatchAll(), backend="zlib", level=99
                )
            assert reader.segments_decoded == 0  # failed before any scan
        assert out.read_bytes() == b"previous contents the user cares about"

    def test_filter_can_recompress(self, tmp_path, trace):
        source = tmp_path / "src.fctca"
        _build(source, trace.packets)
        out = tmp_path / "out.fctca"
        with ArchiveReader(source) as reader:
            QueryEngine(reader).filter_to(out, MatchAll(), backend="bz2")
        tag = get_backend("bz2").tag
        with ArchiveReader(out) as reader:
            assert reader.entries
            for entry in reader.entries:
                assert set(entry.section_backends) == {tag}


class TestStreamingBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_and_batch_serialize_identically(self, trace, backend):
        streamed = serialize_compressed(
            compress_trace(iter(trace.packets), name="t"), backend=backend
        )
        compressor = StreamingCompressor(name="t")
        compressor.feed(trace.packets)
        assert compressor.to_bytes(backend=backend) == streamed
        assert (
            serialize_compressed_v1(deserialize_compressed(streamed))
            == serialize_compressed_v1(compressor.finish())
        )

    def test_one_compressor_many_backends(self, trace):
        compressor = StreamingCompressor(name="t")
        compressor.feed(trace.packets)
        canon = serialize_compressed_v1(compressor.finish())
        for backend in BACKENDS:
            data = compressor.to_bytes(backend=backend)
            assert serialize_compressed_v1(deserialize_compressed(data)) == canon
