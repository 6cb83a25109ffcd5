"""Validation and layering of the unified :class:`repro.api.Options`."""

import dataclasses

import pytest

from repro.api import errors
from repro.api.options import (
    ArchiveOptions,
    CodecOptions,
    Options,
    StreamingOptions,
)


class TestDefaults:
    def test_zero_arg_options_is_the_historic_default(self):
        options = Options()
        assert options.codec.backend is None  # raw, the paper's format
        assert options.streaming.mode == "auto"
        assert options.archive.segment_packets == 65536
        assert options.archive.segment_span == 60.0
        assert options.compressor.short_flow_max == 50

    def test_production_preset(self):
        options = Options.production()
        assert options.codec.backend == "zlib"
        assert options.streaming.mode == "stream"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Options().name = "x"


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(errors.OptionsError):
            CodecOptions(backend="snappy")

    def test_bad_level_on_named_backend(self):
        with pytest.raises(errors.OptionsError):
            CodecOptions(backend="zlib", level=99)

    def test_level_advisory_without_backend(self):
        assert CodecOptions(backend=None, level=99).level == 99

    def test_bad_mode(self):
        with pytest.raises(errors.OptionsError):
            StreamingOptions(mode="turbo")

    def test_bad_chunk(self):
        with pytest.raises(errors.OptionsError):
            StreamingOptions(chunk_packets=0)

    def test_bad_segment_bounds(self):
        with pytest.raises(errors.OptionsError):
            ArchiveOptions(segment_packets=0)
        with pytest.raises(errors.OptionsError):
            ArchiveOptions(segment_span=0.0)

    def test_options_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            StreamingOptions(chunk_packets=-1)


class TestMake:
    def test_flat_knobs_land_in_layers(self):
        options = Options.make(
            backend="zlib",
            level=6,
            engine="scalar",
            segment_span=5.0,
            name="custom",
        )
        assert options.codec.backend == "zlib"
        assert options.codec.level == 6
        assert options.streaming.engine == "scalar"
        assert options.archive.segment_span == 5.0
        assert options.name == "custom"

    def test_stream_flag_sets_mode(self):
        assert Options.make(stream=True).streaming.mode == "stream"

    def test_chunk_knob_implies_streaming(self):
        assert Options.make(chunk_packets=64).streaming.mode == "stream"

    def test_no_worker_knob(self):
        # Compression runs in one process; there is no pool to size.
        fields = [field.name for field in dataclasses.fields(StreamingOptions)]
        assert fields == [
            "mode", "chunk_packets", "stream_threshold_packets", "engine"
        ]
        with pytest.raises(TypeError):
            Options.make(workers=2)

    def test_stream_contradicting_mode(self):
        with pytest.raises(errors.OptionsError):
            Options.make(stream=True, mode="batch")

    def test_with_codec(self):
        options = Options().with_codec("bz2", 5)
        assert options.codec.backend == "bz2"
        assert options.codec.level == 5
        assert options.streaming == Options().streaming
