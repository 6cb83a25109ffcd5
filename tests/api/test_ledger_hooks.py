"""The performance ledger's layer hooks still see the archive verbs.

``perf_ledger/tracer.py`` wraps named functions and methods in place
(``owner.__dict__[name]``), so each traced name must stay defined on
the module or class the tracer patches, and the archive verbs must keep
calling through it.  A refactor that moves one of them elsewhere would
leave the ledger's per-layer figures reading zero; this test fails
instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import api
from repro.query import TimeRange

TRACER_PATH = Path(__file__).resolve().parents[2] / "perf_ledger" / "tracer.py"

LAYERS = (
    "archive.load_segment",
    "query.time_range",
    "core.flow_records",
    "analysis.matrices.aggregate",
    "core.flow_specs",
    "trace.export",
)


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("ledger_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_archive_verbs_run_through_every_patched_layer(fctca_path, tmp_path):
    tracer = _load_tracer_module().Tracer("analyst")
    with api.open(fctca_path) as store, tracer.patched():
        assert store.query(TimeRange(0.5, 1.5)).flows
        store.stats(window=1.0, since=0.5, until=2.5)
        store.export(tmp_path / "replay.tsh")
    for layer in LAYERS:
        assert tracer.calls[layer] > 0, layer
