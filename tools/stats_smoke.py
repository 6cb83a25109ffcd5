#!/usr/bin/env python
"""CI smoke: the traffic-matrix analytics path through the real CLI.

Runs the stats subsystem's acceptance differential as child processes
of the actual CLI — no test harness, no in-process shortcuts:

* ``generate`` + ``archive build`` produce a multi-segment archive,
* ``stats --json`` via the index fast path and via ``--method decode``
  must emit **identical window tables** (the fast path never touches a
  packet; the decode path synthesizes every one),
* a time-bounded request must prune segments (``segments_pruned > 0``,
  strictly fewer decoded than total),
* ``--anonymize-key`` must mask addresses while preserving structure,
* ``query --stats`` and ``archive info --windows`` must render their
  tables,
* the one-segment path: a ``.tsh`` and the ``.fctc`` that ``compress``
  makes of it (each one unindexed segment) must give identical window
  tables, and ``query`` on the ``.fctc`` must render its flows and,
  with ``--stats``, its matrix table.

Needs only the package and numpy; run from the repository root::

    PYTHONPATH=src python tools/stats_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
DURATION = "12"
RATE = "30"
SEED = "3"
SEGMENT_SPAN = "3"
SCHEMA = "repro.analysis/matrix-report/v1"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else SRC
    )
    return env


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _check(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        print(f"FAIL: {what} exited {proc.returncode}", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {what}")
    return proc.stdout


def _report(*args: str) -> dict:
    out = _check(_cli(*args), " ".join(args))
    document = json.loads(out)
    if document.get("schema") != SCHEMA:
        print(f"FAIL: unexpected schema {document.get('schema')}", file=sys.stderr)
        raise SystemExit(1)
    return document


def smoke(workdir: Path) -> None:
    trace = workdir / "day.tsh"
    archive = workdir / "day.fctca"
    _check(
        _cli("generate", str(trace), "--duration", DURATION, "--rate", RATE,
             "--seed", SEED),
        "generate",
    )
    _check(
        _cli("archive", "build", str(archive), str(trace),
             "--segment-span", SEGMENT_SPAN),
        "archive build",
    )

    # The acceptance differential: identical statistics, less work.
    by_index = _report("stats", str(archive), "--window", SEGMENT_SPAN, "--json")
    by_decode = _report(
        "stats", str(archive), "--window", SEGMENT_SPAN, "--json",
        "--method", "decode",
    )
    if by_index["windows"] != by_decode["windows"]:
        print("FAIL: index and decode window tables differ", file=sys.stderr)
        raise SystemExit(1)
    if (by_index["method"], by_decode["method"]) != ("index", "decode"):
        print("FAIL: method labels are off", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: index == decode across {len(by_index['windows'])} windows")

    bounded = _report(
        "stats", str(archive), "--window", SEGMENT_SPAN,
        "--since", "3", "--until", "6", "--json",
    )
    if not (
        bounded["segments_pruned"] > 0
        and bounded["segments_decoded"] < bounded["segments_total"]
    ):
        print(f"FAIL: no pruning on a bounded range: {bounded}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"ok: bounded range decoded {bounded['segments_decoded']}"
        f"/{bounded['segments_total']} segments"
    )

    masked = _report(
        "stats", str(archive), "--window", SEGMENT_SPAN, "--json",
        "--anonymize-key", "secret",
    )
    if not masked["anonymized"] or masked["flows"] != by_index["flows"]:
        print("FAIL: anonymized report lost structure", file=sys.stderr)
        raise SystemExit(1)
    if masked["windows"][0]["top_links_packets"] == (
        by_index["windows"][0]["top_links_packets"]
    ):
        print("FAIL: anonymization left addresses visible", file=sys.stderr)
        raise SystemExit(1)
    print("ok: anonymization masks addresses, preserves structure")

    query = _check(
        _cli("query", str(archive), "--since", "3", "--until", "6", "--stats"),
        "query --stats",
    )
    for needle in ("matched flows", "max fan-out/in", "segments decoded"):
        if needle not in query:
            print(f"FAIL: query --stats output lacks {needle!r}", file=sys.stderr)
            raise SystemExit(1)

    info = _check(
        _cli("archive", "info", str(archive), "--windows", "4"),
        "archive info --windows",
    )
    if "window probe" not in info or "flows<=" not in info:
        print("FAIL: window probe table missing", file=sys.stderr)
        raise SystemExit(1)

    # The one-segment sequence: a raw trace and its container run the
    # same engine as the archive, over one segment that is never pruned.
    container = workdir / "day.fctc"
    _check(_cli("compress", str(trace), str(container)), "compress")
    from_trace = _report("stats", str(trace), "--window", SEGMENT_SPAN, "--json")
    from_container = _report(
        "stats", str(container), "--window", SEGMENT_SPAN, "--json"
    )
    if from_trace["windows"] != from_container["windows"]:
        print("FAIL: .tsh and .fctc window tables differ", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: .tsh == .fctc across {len(from_container['windows'])} windows")
    listed = _check(
        _cli("query", str(container), "--until", "3"), "query .fctc --until 3"
    )
    if "seg=0" not in listed or "segments decoded : 1/1" not in listed:
        print("FAIL: query on the .fctc rendered no flows", file=sys.stderr)
        raise SystemExit(1)
    folded = _check(
        _cli("query", str(container), "--since", "3", "--until", "6", "--stats"),
        "query .fctc --stats",
    )
    for needle in ("matched flows", "max fan-out/in", "segments decoded : 1/1"):
        if needle not in folded:
            print(f"FAIL: query .fctc --stats lacks {needle!r}", file=sys.stderr)
            raise SystemExit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="stats-smoke-") as workdir:
        smoke(Path(workdir))
    print("stats smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
