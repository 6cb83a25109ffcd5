"""The ledger itself: every declared metric printed, every check passing.

Two ``--quick`` runs at one seed — untraced, then traced — cover all
four workloads in a few seconds.  They must print exactly the metrics
``BENCHMARK.json`` declares, with its units, pass every output check,
write parseable spans, and produce the same output digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
SPAN_KEYS = {"id", "name", "start", "end", "parent", "workload", "op"}


def _run(*extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--quick", "--seed", "3", *extra],
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr
    lines = completed.stdout.strip().splitlines()
    results = {}
    details = {}
    for line in lines[:-1]:
        if line.startswith("result "):
            _, name, payload = line.split(" ", 2)
            results[name] = json.loads(payload)
        elif line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
            details[detail["workload"]] = detail
    return {"final": json.loads(lines[-1]), "results": results, "details": details}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    spans = tmp_path_factory.mktemp("ledger") / "spans.json"
    untraced = _run("--trace", "0")
    traced = _run("--trace", "1", "--spans", str(spans))
    return untraced, traced, spans


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def test_every_check_passes(runs):
    for run in runs[:2]:
        assert run["final"]["correct"] is True
        assert run["final"]["failed"] == 0
        assert sorted(run["results"]) == sorted(WORKLOADS)
        for result in run["results"].values():
            assert result["correct"] is True
            assert result["attempted"] >= 1 and result["failed"] == 0


def test_end_to_end_metrics_match_the_declaration(runs):
    expected = _declared("end_to_end")
    for name, result in runs[0]["results"].items():
        printed = {key: value["unit"] for key, value in result["metrics"].items()}
        assert printed == expected, name
        assert all(value["value"] > 0 for value in result["metrics"].values()), name


def test_traced_run_names_every_per_layer_metric(runs):
    expected = _declared("per_layer")
    for name, result in runs[1]["results"].items():
        printed = {key: value["unit"] for key, value in result["metrics"].items()}
        assert printed == expected, name
        assert result["metrics"]["ledger.coverage_pct"]["value"] > 0, name


def test_spans_parse_and_cover_every_workload(runs):
    document = json.loads(runs[2].read_text())
    spans = document["spans"]
    assert {span["workload"] for span in spans} == set(WORKLOADS)
    for span in spans:
        assert SPAN_KEYS <= set(span)
        assert span["end"] >= span["start"]


def test_spans_need_a_traced_run(tmp_path):
    spans = tmp_path / "spans.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--quick", "--spans", str(spans)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode == 2
    assert "--trace 1" in completed.stderr
    assert not spans.exists()


def test_output_digests_repeat_at_one_seed(runs):
    untraced, traced = runs[0]["details"], runs[1]["details"]
    assert sorted(untraced) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert untraced[name]["digest"] == traced[name]["digest"], name
