"""Import-time regressions: ``import repro`` must stay light.

The CLI parses ``--help`` and bad flags without touching the engine,
and ``import repro`` (the first line of every user script) must not
drag in heavy submodules.  Run in a subprocess so this test cannot be
poisoned by whatever the rest of the suite already imported.
"""

import json
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

HEAVY_MODULES = [
    "multiprocessing",
    "lzma",
    "bz2",
    "repro.core",
    "repro.core.compressor",
    "repro.core.streaming",
    "repro.archive",
    "repro.query",
    "repro.flows",
    "repro.synth",
]


def _loaded_after(statement: str) -> set[str]:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


def _added_by(statement: str) -> set[str]:
    """Modules ``statement`` loads beyond a bare interpreter's startup set.

    Some interpreters import modules such as ``lzma`` or ``bz2`` at
    startup, before any repro code runs; only what the statement itself
    adds can be blamed on it.
    """
    return _loaded_after(statement) - _loaded_after("pass")


class TestImportRepro:
    def test_pulls_no_heavy_submodule(self):
        loaded = _added_by("import repro")
        offenders = [name for name in HEAVY_MODULES if name in loaded]
        assert not offenders, f"import repro eagerly loaded: {offenders}"

    def test_version_without_engine(self):
        loaded = _loaded_after("import repro; repro.__version__")
        assert "repro.core" not in loaded

    def test_api_package_is_lazy_too(self):
        loaded = _added_by("import repro.api")
        offenders = [name for name in HEAVY_MODULES if name in loaded]
        assert not offenders, f"import repro.api eagerly loaded: {offenders}"

    def test_open_attribute_loads_engine_on_demand(self):
        loaded = _loaded_after("import repro; repro.open")
        assert "repro.api.store" in loaded  # resolved lazily, on access

    def test_submodule_attribute_access_still_works(self):
        # Pre-1.1 the eager imports bound submodules on the packages;
        # the lazy layout must keep that working.
        code = (
            "import repro, repro.core\n"
            "assert repro.core.codec.TIME_SEQ_RECORD_BYTES == 10\n"
            "assert repro.net.packet.PacketRecord is not None\n"
            "assert repro.api.errors.ReproError is not None\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr

    def test_public_names_still_importable(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import Trace, PacketRecord, Options, open;"
                "assert callable(open)",
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr


class TestNoProcessPool:
    def test_engine_modules_skip_multiprocessing(self):
        # Compress and replay run in one process; nothing needs a pool.
        loaded = _added_by(
            "import repro.core.streaming, repro.archive.reader, repro.api.store"
        )
        assert "multiprocessing" not in loaded


class TestReplayWithoutNumpy:
    def test_export_and_decompress_never_import_numpy(self, tmp_path):
        # The replay and flow-read paths are pure stdlib; numpy is a
        # compress-side dependency, and importing it would cost every
        # replay or query its start-up time.
        loaded = _loaded_after(
            "import repro\n"
            "from repro.core.codec import deserialize_compressed\n"
            "from repro.core.decompressor import decompress_trace\n"
            f"with repro.open({str(FIXTURES / 'v1.fctca')!r}) as store:\n"
            f"    store.export({str(tmp_path / 'out.tsh')!r})\n"
            "    assert len(store.query().flows) == 124\n"
            "    assert len(list(store.flows())) == 124\n"
            f"with repro.open({str(FIXTURES / 'v1.fctc')!r}) as store:\n"
            "    assert len(list(store.flows())) == 103\n"
            f"data = open({str(FIXTURES / 'v1.fctc')!r}, 'rb').read()\n"
            "assert len(decompress_trace(deserialize_compressed(data))) == 1297"
        )
        assert "repro.core.replay" in loaded
        assert "numpy" not in loaded


class TestStatsWithoutScipy:
    def test_archive_stats_import_no_array_library(self):
        # Window statistics are one pure-python engine; loading scipy
        # (or numpy under it) was most of a cold stats call's cost.
        loaded = _loaded_after(
            "import repro\n"
            f"with repro.open({str(FIXTURES / 'v1.fctca')!r}) as store:\n"
            "    assert len(store.query().flows) == 124\n"
            "    assert len(list(store.flows())) == 124\n"
            "    assert store.stats(window=1.0).windows\n"
            "    assert store.stats(window=1.0, since=0.5, until=2.0).flows\n"
            f"with repro.open({str(FIXTURES / 'v1.fctc')!r}) as store:\n"
            "    assert len(list(store.flows())) == 103\n"
            "    assert store.stats(window=1.0).windows\n"
        )
        assert "repro.analysis.matrices" in loaded
        assert "scipy" not in loaded
        assert "numpy" not in loaded


class TestCliStartup:
    def test_cli_import_skips_the_engine(self):
        loaded = _loaded_after("import repro.cli")
        for name in ("repro.core.compressor", "multiprocessing", "repro.flows"):
            assert name not in loaded, f"repro.cli eagerly loaded {name}"

    def test_help_runs_without_engine_modules(self):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['--help']) == 0\n"
            "assert 'repro.core.compressor' not in sys.modules\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
