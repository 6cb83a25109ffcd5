#!/usr/bin/env python
"""CI smoke: one scenario end to end through the real CLI.

Runs the full operator pipeline for one (or every) registered traffic
scenario as child processes of the actual CLI — no test harness, no
in-process shortcuts:

* ``generate --scenario NAME`` writes the workload as TSH,
* determinism: a second generation with the same seed is file-identical,
* ``compress`` / ``decompress`` roundtrips it (packet count preserved),
* the same scenario generated as ``.pcap`` compresses to a container
  byte-identical to the TSH one (both raw kinds take one compress path),
* ``fidelity --scenario NAME`` scores the roundtrip and the written
  report parses with the expected schema and a zero flow-size KS.

Needs only the package and numpy; run from the repository root::

    PYTHONPATH=src python tools/scenario_smoke.py [scenario ...]

With no arguments every registered scenario is smoked (CI fans the
names out as a job matrix instead, one scenario per job).
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
DURATION = "3"
RATE = "24"
SEED = "7"


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


def _check(proc: subprocess.CompletedProcess, what: str) -> None:
    if proc.returncode != 0:
        print(f"FAIL: {what} exited {proc.returncode}", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {what}")


def _packet_count(tsh_path: Path) -> int:
    # TSH is exactly 44 bytes per packet, no file header.
    size = tsh_path.stat().st_size
    if size % 44:
        print(f"FAIL: {tsh_path} is not a whole number of TSH records")
        raise SystemExit(1)
    return size // 44


def smoke(name: str, workdir: Path) -> None:
    trace = workdir / f"{name}.tsh"
    again = workdir / f"{name}-again.tsh"
    container = workdir / f"{name}.fctc"
    restored = workdir / f"{name}-restored.tsh"
    report = workdir / f"{name}-fidelity.json"
    base = ["--duration", DURATION, "--rate", RATE, "--seed", SEED]

    _check(
        _cli("generate", str(trace), "--scenario", name, *base),
        f"{name}: generate",
    )
    _check(
        _cli("generate", str(again), "--scenario", name, *base),
        f"{name}: regenerate",
    )
    if trace.read_bytes() != again.read_bytes():
        print(f"FAIL: {name}: generation is not deterministic per seed")
        raise SystemExit(1)
    print(f"ok: {name}: deterministic ({_packet_count(trace)} packets)")

    _check(_cli("compress", str(trace), str(container)), f"{name}: compress")
    _check(
        _cli("decompress", str(container), str(restored)),
        f"{name}: decompress",
    )
    if _packet_count(restored) != _packet_count(trace):
        print(f"FAIL: {name}: roundtrip changed the packet count")
        raise SystemExit(1)

    # Same stem in its own directory: the container name is the stem.
    pcap_dir = workdir / f"{name}-pcap"
    pcap_dir.mkdir()
    capture = pcap_dir / f"{name}.pcap"
    pcap_container = pcap_dir / container.name
    _check(
        _cli("generate", str(capture), "--scenario", name, *base),
        f"{name}: generate pcap",
    )
    _check(
        _cli("compress", str(capture), str(pcap_container)),
        f"{name}: compress pcap",
    )
    if pcap_container.read_bytes() != container.read_bytes():
        print(f"FAIL: {name}: pcap and TSH compress to different bytes")
        raise SystemExit(1)
    print(f"ok: {name}: pcap container is byte-identical to the TSH one")

    _check(
        _cli(
            "fidelity",
            "--scenario",
            name,
            "--duration",
            DURATION,
            "--rate",
            RATE,
            "--out",
            str(report),
        ),
        f"{name}: fidelity",
    )
    document = json.loads(report.read_text(encoding="utf-8"))
    if document.get("schema") != "repro.analysis/fidelity-report/v1":
        print(f"FAIL: {name}: unexpected fidelity schema")
        raise SystemExit(1)
    (scored,) = document["scenarios"]
    if scored["scenario"] != name or scored["flow_size_ks"] != 0.0:
        print(f"FAIL: {name}: fidelity report is off: {scored}")
        raise SystemExit(1)
    print(f"ok: {name}: fidelity ratio={scored['ratio']:.4f}")


def main(argv: list[str]) -> int:
    if argv:
        names = argv
    else:
        sys.path.insert(0, SRC)
        from repro.synth.scenarios import scenario_names

        names = list(scenario_names())
    with tempfile.TemporaryDirectory(prefix="scenario-smoke-") as workdir:
        for name in names:
            smoke(name, Path(workdir))
    print(f"scenario smoke: {len(names)} scenario(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
