"""`repro.open` sniffing and the typed error contract of the façade.

The satellite requirement pinned here: a missing file, a truncated
``.fctc``, a wrong-suffix file and an empty trace must raise typed
:mod:`repro.api.errors` exceptions — never a bare ``OSError`` /
``struct.error`` escaping from the codec layer.
"""

import pytest

import repro
from repro import api
from repro.api import errors
from repro.api.sniff import SourceKind, sniff_kind
from repro.archive.format import HEADER as ARCHIVE_HEADER
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.datasets import ShortFlowTemplate
from repro.query import MatchAll

from tests.conftest import make_timed_flows


def _flipped(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    return bytes(data)


def _bad_template_value(path):
    """The container with 255 — no f(p) encoding — in its first short
    template.  Loading never checks values; only synthesis decodes them."""
    compressed = deserialize_compressed(path.read_bytes())
    first = compressed.short_templates[0]
    compressed.short_templates[0] = ShortFlowTemplate((255, *first.values[1:]))
    return serialize_compressed(compressed)


# name -> (fixture holding the intact file, mutant suffix, mutation)
_DAMAGED = {
    # Segment 0 starts right after the archive header: break its magic.
    "archive-segment-magic": (
        "fctca_path", ".fctca", lambda p: _flipped(p, ARCHIVE_HEADER.size)
    ),
    "pcap-cut-short": ("pcap_path", ".pcap", lambda p: p.read_bytes()[:-10]),
    # Byte 39 is the top byte of the first pcap record's original length.
    "pcap-record-length": ("pcap_path", ".pcap", lambda p: _flipped(p, 39)),
    # Byte 7 is the low byte of the container's name length.
    "container-name-length": ("fctc_path", ".fctc", lambda p: _flipped(p, 7)),
    "container-template-value": ("fctc_path", ".fctc", _bad_template_value),
}


class TestSniffing:
    def test_tsh_by_content(self, tsh_path):
        assert sniff_kind(tsh_path) is SourceKind.TSH

    def test_pcap_by_content(self, pcap_path):
        assert sniff_kind(pcap_path) is SourceKind.PCAP

    def test_container_by_content(self, fctc_path):
        assert sniff_kind(fctc_path) is SourceKind.CONTAINER

    def test_archive_by_content(self, fctca_path):
        assert sniff_kind(fctca_path) is SourceKind.ARCHIVE

    def test_content_wins_over_missing_suffix(self, workdir, fctc_path):
        # A container under a neutral name still opens as a container.
        renamed = workdir / "container-no-suffix"
        renamed.write_bytes(fctc_path.read_bytes())
        assert sniff_kind(renamed) is SourceKind.CONTAINER
        assert isinstance(api.open(renamed), api.ContainerStore)

    def test_open_returns_matching_store(self, tsh_path, fctc_path, fctca_path):
        assert isinstance(api.open(tsh_path), api.TraceFileStore)
        assert isinstance(api.open(fctc_path), api.ContainerStore)
        with api.open(fctca_path) as store:
            assert isinstance(store, api.ArchiveStore)

    def test_repro_open_is_the_facade(self, tsh_path):
        store = repro.open(tsh_path)
        assert isinstance(store, api.TraceStore)


class TestTypedErrors:
    def test_missing_file(self, workdir):
        with pytest.raises(errors.MissingInputError) as excinfo:
            api.open(workdir / "does-not-exist.tsh")
        # Also a FileNotFoundError, so pre-façade handlers keep working.
        assert isinstance(excinfo.value, FileNotFoundError)
        assert excinfo.value.filename == str(workdir / "does-not-exist.tsh")

    def test_empty_trace(self, workdir):
        empty = workdir / "empty.tsh"
        empty.write_bytes(b"")
        with pytest.raises(errors.EmptyTraceError):
            api.open(empty)

    @pytest.mark.parametrize(
        "name", ["empty-no-suffix", "empty.pcap", "empty.fctc", "empty.fctca"]
    )
    def test_empty_file_is_empty_not_unknown(self, workdir, name):
        """Zero bytes is a typed EmptyTraceError under *any* name —
        never misreported as an unrecognized format."""
        empty = workdir / name
        empty.write_bytes(b"")
        with pytest.raises(errors.EmptyTraceError) as excinfo:
            api.open(empty)
        assert not isinstance(excinfo.value, errors.UnknownFormatError)
        assert name in str(excinfo.value)

    def test_empty_pcap_no_packets(self, workdir, trace):
        header_only = workdir / "hdr.pcap"
        full = workdir / "full-tmp.pcap"
        trace.save_pcap(full)
        header_only.write_bytes(full.read_bytes()[:24])  # global header only
        with pytest.raises(errors.EmptyTraceError):
            api.open(header_only)

    def test_truncated_container(self, workdir, fctc_path):
        truncated = workdir / "trunc.fctc"
        truncated.write_bytes(fctc_path.read_bytes()[:-7])
        with pytest.raises(errors.CorruptInputError) as excinfo:
            api.open(truncated)
        assert "truncated" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_truncated_archive(self, workdir, fctca_path):
        truncated = workdir / "trunc.fctca"
        truncated.write_bytes(fctca_path.read_bytes()[:-11])
        with pytest.raises(errors.CorruptInputError):
            api.open(truncated)

    @pytest.mark.parametrize("name", _DAMAGED)
    def test_damaged_input(self, request, workdir, name):
        """Damage found at open or while the packets drain is typed alike."""
        source, suffix, mutate = _DAMAGED[name]
        damaged = workdir / f"damaged-{name}{suffix}"
        damaged.write_bytes(mutate(request.getfixturevalue(source)))
        with pytest.raises(errors.CorruptInputError):
            with api.open(damaged) as store:
                for _ in store.packets():
                    pass

    def test_wrong_suffix_container(self, workdir):
        bogus = workdir / "bogus.fctc"
        bogus.write_bytes(b"this is not a container")
        with pytest.raises(errors.UnknownFormatError) as excinfo:
            api.open(bogus)
        assert "magic" in str(excinfo.value)

    def test_wrong_suffix_crossed_formats(self, workdir, fctca_path):
        # Archive bytes under a container suffix: mismatch, not a guess.
        crossed = workdir / "crossed.fctc"
        crossed.write_bytes(fctca_path.read_bytes())
        with pytest.raises(errors.UnknownFormatError) as excinfo:
            api.open(crossed)
        assert "suffix" in str(excinfo.value)

    def test_unaligned_garbage(self, workdir):
        garbage = workdir / "garbage.tsh"
        garbage.write_bytes(b"\x00" * 50)  # not a multiple of 44
        with pytest.raises(errors.UnknownFormatError):
            api.open(garbage)

    def test_every_error_is_a_repro_error(self):
        for klass in (
            errors.MissingInputError,
            errors.UnknownFormatError,
            errors.CorruptInputError,
            errors.EmptyTraceError,
            errors.CapabilityError,
            errors.OptionsError,
        ):
            assert issubclass(klass, errors.ReproError)


def _drain(result):
    """Consume a verb's result when it is lazy."""
    if hasattr(result, "__next__"):
        for _ in result:
            pass


# verb -> call; every verb that reads flows or packets off the store.
_READ_VERBS = {
    "packets": lambda store, out: _drain(store.packets()),
    "packets-filtered": lambda store, out: _drain(store.packets(MatchAll(), limit=99)),
    "export": lambda store, out: store.export(out / "x.tsh"),
    "export-pcap": lambda store, out: store.export(out / "x.pcap"),
    "query": lambda store, out: store.query(MatchAll()),
    "flows": lambda store, out: _drain(store.flows()),
    "stats": lambda store, out: store.stats(),
    "stats-window": lambda store, out: store.stats(window=1.0),
    "stats-decode": lambda store, out: store.stats(window=1.0, method="decode"),
    "matrices": lambda store, out: _drain(store.matrices(window=1.0)),
}


class TestTypedErrorsOnEveryVerb:
    @pytest.fixture(scope="class")
    def damaged_archive(self, tmp_path_factory):
        """A 15-segment archive whose segment 3 has a broken magic."""
        path = tmp_path_factory.mktemp("damaged") / "fifteen.fctca"
        api.create_archive(
            path,
            iter(make_timed_flows(30, spacing=2.0)),
            options=api.Options.make(segment_span=4.0),
        )
        with api.open(path) as store:
            assert store.reader.segment_count == 15
            offset = store.reader.entries[3].offset
        data = bytearray(path.read_bytes())
        data[offset : offset + 4] = b"\xff" * 4
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("verb", sorted(_READ_VERBS))
    def test_damaged_archive_segment(self, damaged_archive, tmp_path, verb):
        with api.open(damaged_archive) as store:
            with pytest.raises(errors.CorruptInputError, match="segment 3"):
                _READ_VERBS[verb](store, tmp_path)

    def test_damaged_archive_filter(self, damaged_archive, tmp_path):
        with api.open(damaged_archive) as store:
            with pytest.raises(errors.CorruptInputError, match="segment 3"):
                store.filter(tmp_path / "sub.fctca", MatchAll())

    def test_damaged_archive_compress(self, damaged_archive, tmp_path):
        with api.open(damaged_archive) as store:
            with pytest.raises(errors.CorruptInputError, match="segment 3"):
                store.compress(tmp_path / "copy.fctca")

    @pytest.mark.parametrize(
        "verb",
        ["packets", "packets-filtered", "export", "export-pcap", "stats",
         "stats-window", "stats-decode", "matrices"],
    )
    def test_invalid_template_value(self, workdir, fctc_path, tmp_path, verb):
        """A value no f(p) encodes surfaces wherever templates decode."""
        damaged = workdir / "bad-template-verbs.fctc"
        damaged.write_bytes(_bad_template_value(fctc_path))
        with api.open(damaged) as store:
            with pytest.raises(errors.CorruptInputError, match="f\\(p\\)"):
                _READ_VERBS[verb](store, tmp_path)
