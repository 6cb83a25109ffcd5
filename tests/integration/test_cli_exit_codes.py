"""Uniform CLI exit codes: 0 ok / 1 internal / 2 usage+data errors.

Sweeps every subcommand's failure path (missing inputs, malformed
data, bad flags) plus ``--version`` and the internal-error funnel, so a
regression in any one handler's error handling fails here by name.
"""

import pytest

import repro
from repro import api
from repro.cli import main

MISSING = "/nonexistent/input-that-cannot-exist.tsh"

# Every subcommand, invoked with a missing input file: all must exit 2.
_MISSING_INPUT_INVOCATIONS = {
    "compress": ["compress", MISSING, "out.fctc"],
    "decompress": ["decompress", MISSING, "out.tsh"],
    "replay": ["replay", MISSING, "out.tsh"],
    "stats": ["stats", MISSING],
    "inspect": ["inspect", MISSING],
    "convert": ["convert", MISSING, "out.pcap"],
    "synthesize": ["synthesize", MISSING, "out.tsh"],
    "anonymize": ["anonymize", MISSING, "out.tsh"],
    "compare": ["compare", MISSING, MISSING],
    "archive build": ["archive", "build", "out.fctca", MISSING],
    "archive append": ["archive", "append", MISSING, MISSING],
    "archive info": ["archive", "info", MISSING],
    "query": ["query", MISSING],
}


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit-codes") / "t.tsh"
    assert main(["generate", str(path), "--duration", "2", "--seed", "3"]) == 0
    return path


class TestVersion:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_matches_package_metadata(self):
        # Plain-text scan, not tomllib — the CI floor is Python 3.10.
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert match.group(1) == repro.__version__


class TestUsageErrors:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "out.tsh", "--bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "repro-trace" in capsys.readouterr().out


class TestMissingInputSweep:
    @pytest.mark.parametrize(
        "argv",
        _MISSING_INPUT_INVOCATIONS.values(),
        ids=_MISSING_INPUT_INVOCATIONS.keys(),
    )
    def test_every_subcommand_missing_input_exits_2(
        self, argv, tmp_path, capsys
    ):
        argv = [
            str(tmp_path / arg) if arg.startswith("out.") else arg
            for arg in argv
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:"), err


class TestDataErrors:
    def test_wrong_kind_input_exits_2(self, trace_file, tmp_path, capsys):
        # A window probe over a container is a capability error (only
        # archives carry the footer index) → usage bucket.
        compressed = tmp_path / "t.fctc"
        assert main(["compress", str(trace_file), str(compressed)]) == 0
        capsys.readouterr()
        assert main(["archive", "info", str(compressed), "--windows", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_backend_level_exits_2(self, trace_file, tmp_path, capsys):
        code = main(
            [
                "compress", str(trace_file), str(tmp_path / "o.fctc"),
                "--backend", "zlib", "--level", "42",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsh"
        empty.write_bytes(b"")
        assert main(["compress", str(empty), str(tmp_path / "o.fctc")]) == 2
        assert "no packets" in capsys.readouterr().err

    def test_decompress_raw_trace_exits_2(self, trace_file, tmp_path, capsys):
        # Pointing decompress at an uncompressed capture must not
        # silently succeed as a byte copy.
        out = tmp_path / "copy.tsh"
        assert main(["decompress", str(trace_file), str(out)]) == 2
        assert "convert" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_container_exits_2(self, trace_file, tmp_path, capsys):
        compressed = tmp_path / "t2.fctc"
        assert main(["compress", str(trace_file), str(compressed)]) == 0
        capsys.readouterr()
        assert main(["replay", str(compressed), str(tmp_path / "o.tsh")]) == 2
        assert "archive" in capsys.readouterr().err

    def test_inspect_addresses_on_archive_exits_2(
        self, trace_file, tmp_path, capsys
    ):
        archive = tmp_path / "t.fctca"
        assert main(["archive", "build", str(archive), str(trace_file)]) == 0
        capsys.readouterr()
        # An archive has no single address dataset: capability error,
        # not an AttributeError crashing through the internal funnel.
        assert main(["inspect", str(archive), "--addresses"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRemovedWorkersFlag:
    """``--workers`` is hidden: 1 is accepted and ignored, any other
    count exits 2 with the one removal line."""

    REMOVED = (
        "error: --workers was removed in 1.2.0; compress and replay run "
        "in one process (--stream bounds memory)"
    )

    @pytest.fixture(scope="class")
    def archive_file(self, trace_file):
        path = trace_file.with_name("workers.fctca")
        assert main(["archive", "build", str(path), str(trace_file)]) == 0
        return path

    def _source(self, verb, trace_file, archive_file):
        return str(trace_file if verb == "compress" else archive_file)

    @pytest.mark.parametrize("workers", ["2", "0"])
    @pytest.mark.parametrize("verb", ["compress", "replay"])
    def test_other_counts_exit_2(
        self, verb, workers, trace_file, archive_file, tmp_path, capsys
    ):
        capsys.readouterr()
        out = tmp_path / "out.bin"
        source = self._source(verb, trace_file, archive_file)
        assert main([verb, source, str(out), "--workers", workers]) == 2
        assert capsys.readouterr().err.splitlines() == [self.REMOVED]
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["compress", "replay"])
    def test_one_is_ignored(self, verb, trace_file, archive_file, tmp_path):
        source = self._source(verb, trace_file, archive_file)
        plain, flagged = tmp_path / "plain.bin", tmp_path / "flagged.bin"
        assert main([verb, source, str(plain)]) == 0
        assert main([verb, source, str(flagged), "--workers", "1"]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_flag_is_hidden(self, capsys):
        for verb in ("compress", "replay"):
            assert main([verb, "--help"]) == 0
            assert "--workers" not in capsys.readouterr().out


class TestRemovedEngineAndStreamFlags:
    """``--engine`` (compress, serve) and ``--stream`` (compress) are
    hidden: accepted and ignored, since there is one engine and every
    TSH input is read in chunks."""

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "auto"], ["--engine", "scalar"], ["--engine", "columnar"],
         ["--stream"]],
    )
    def test_compress_ignores_flag(self, flags, trace_file, tmp_path):
        plain, flagged = tmp_path / "plain.fctc", tmp_path / "flagged.fctc"
        assert main(["compress", str(trace_file), str(plain)]) == 0
        assert main(["compress", str(trace_file), str(flagged), *flags]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("engine", ["auto", "scalar", "columnar"])
    def test_serve_ignores_engine(self, engine, trace_file, tmp_path):
        packets = trace_file.stat().st_size // 44
        source = f"tail:{trace_file}"
        outputs = []
        for extra in ([], ["--engine", engine]):
            out = tmp_path / f"serve{len(outputs)}" / "live.fctca"
            out.parent.mkdir()
            assert main(
                ["serve", str(out), "--source", source,
                 "--stop-after", str(packets), "--tail-poll", "0.05", *extra]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_flags_are_hidden(self, capsys):
        assert main(["compress", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--engine" not in text and "--stream" not in text
        assert main(["serve", "--help"]) == 0
        assert "--engine" not in capsys.readouterr().out


class TestInternalErrors:
    def test_unexpected_exception_exits_1(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated bug")

        monkeypatch.setattr(api, "generate", boom)
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert main(["generate", "whatever.tsh"]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_debug_env_reraises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated bug")

        monkeypatch.setattr(api, "generate", boom)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(RuntimeError):
            main(["generate", "whatever.tsh"])
