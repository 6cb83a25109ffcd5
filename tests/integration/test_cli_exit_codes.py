"""Uniform CLI exit codes: 0 ok / 1 internal / 2 usage+data errors.

Sweeps every subcommand's failure path (missing inputs, malformed
data, bad flags) plus ``--version`` and the internal-error funnel, so a
regression in any one handler's error handling fails here by name.
"""

from pathlib import Path

import pytest

import repro
from repro import api
from repro.cli import main

MISSING = "/nonexistent/input-that-cannot-exist.tsh"
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

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

    def test_stats_negative_top_exits_2(self, capsys):
        # A negative depth once sliced as "all but the last" links.
        argv = ["stats", str(FIXTURES / "v1.fctca"), "--top", "-1", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "top_k" in captured.err

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


class TestRemovedFlags:
    """The hidden flags deleted in 1.2.0 are unknown arguments now:
    argparse rejects them with exit 2 before any output is written."""

    @pytest.fixture(scope="class")
    def archive_file(self, trace_file):
        path = trace_file.with_name("removed-flags.fctca")
        assert main(["archive", "build", str(path), str(trace_file)]) == 0
        return path

    @pytest.mark.parametrize(
        "verb, flags",
        [
            ("compress", ["--workers", "1"]),
            ("replay", ["--workers", "2"]),
            ("compress", ["--engine", "columnar"]),
            ("compress", ["--stream"]),
            ("serve", ["--engine", "auto"]),
        ],
        ids=[
            "compress-workers",
            "replay-workers",
            "compress-engine",
            "compress-stream",
            "serve-engine",
        ],
    )
    def test_exits_2_unrecognized(
        self, verb, flags, trace_file, archive_file, tmp_path, capsys
    ):
        out = tmp_path / "out.fctca"
        if verb == "serve":
            argv = [verb, str(out), "--source", f"tail:{trace_file}",
                    "--stop-after", "1"]
        else:
            source = trace_file if verb == "compress" else archive_file
            argv = [verb, str(source), str(out)]
        capsys.readouterr()
        assert main([*argv, *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


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
