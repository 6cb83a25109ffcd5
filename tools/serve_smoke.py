#!/usr/bin/env python
"""CI smoke for the ingest daemon: one bounded end-to-end pass.

Generates a synthetic capture, starts ``repro serve`` as a real child
process with a unix-socket source and a tail source, streams the
capture in over both, signals SIGTERM, and then verifies the sealed
archive the way an operator would:

* the daemon exits 0 with a clean drain and the expected packet total,
* ``repro-trace archive info`` reads the output (format unchanged),
* a time-bounded ``repro-trace query`` prunes segments — i.e. the
  per-segment time index the daemon wrote is actually useful.

Every wait is deadline-bounded (``TIMEOUT`` seconds overall budget per
step), so a hung daemon fails the job instead of wedging it.  Needs
only the package and numpy; run from the repository root::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
TIMEOUT = 60.0
FRAME = struct.Struct(">I")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else SRC
    )
    return env


def _cli(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
        **kwargs,
    )


def _wait_for(path: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never appeared")
        time.sleep(0.02)


def _send_framed(sock_path: str, data: bytes) -> None:
    _wait_for(sock_path)
    client = socket.socket(socket.AF_UNIX)
    try:
        client.connect(sock_path)
        step = 9973
        for start in range(0, len(data), step):
            payload = data[start : start + step]
            client.sendall(FRAME.pack(len(payload)) + payload)
        client.sendall(FRAME.pack(0))  # end of stream
    finally:
        client.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        directory = Path(tmp)
        capture = directory / "capture.tsh"
        generate = _cli(
            "generate", str(capture), "--duration", "8", "--seed", "7"
        )
        if generate.returncode != 0:
            print(generate.stderr, file=sys.stderr)
            print("FAIL: workload generation")
            return 1
        data = capture.read_bytes()
        packets = len(data) // 44
        half = (packets // 2) * 44

        sock = str(directory / "ingest.sock")
        tail = directory / "grow.tsh"
        tail.write_bytes(b"")
        archive = directory / "live.fctca"
        report_path = directory / "run.json"

        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(archive),
                "--source",
                f"unix:{sock}",
                "--source",
                f"tail:{tail}",
                "--segment-span",
                "2",
                "--tail-poll",
                "0.05",
                "--drain-timeout",
                "30",
                "--metrics-out",
                str(report_path),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _send_framed(sock, data[:half])
            tail.write_bytes(data[half:])
            time.sleep(0.5)  # two tail polls: the growth gets ingested
            daemon.send_signal(signal.SIGTERM)
            stdout, stderr = daemon.communicate(timeout=TIMEOUT)
        except Exception:
            daemon.kill()
            daemon.communicate()
            raise

        print(stdout.rstrip())
        if daemon.returncode != 0:
            print(stderr, file=sys.stderr)
            print(f"FAIL: daemon exited {daemon.returncode}")
            return 1
        if "drain: clean" not in stdout:
            print("FAIL: drain was cut")
            return 1
        if "sealed" not in stdout or f"{packets} packets" not in stdout:
            print(f"FAIL: expected {packets} ingested packets")
            return 1

        counters = json.loads(report_path.read_text())["counters"]
        for name in ("serve.source.unix0.packets", "serve.source.tail1.packets"):
            if counters.get(name, 0) <= 0:
                print(f"FAIL: counter {name} missing from the run report")
                return 1

        info = _cli("archive", "info", str(archive))
        if info.returncode != 0 or "segment" not in info.stdout:
            print(info.stderr, file=sys.stderr)
            print("FAIL: archive info cannot read the daemon's output")
            return 1

        query_report = directory / "query.json"
        query = _cli(
            "query",
            str(archive),
            "--since",
            "0.5",
            "--until",
            "1.5",
            "--metrics-out",
            str(query_report),
        )
        if query.returncode != 0:
            print(query.stderr, file=sys.stderr)
            print("FAIL: query on the live archive")
            return 1
        query_counters = json.loads(query_report.read_text())["counters"]
        if query_counters.get("query.segments_pruned", 0) < 1:
            print("FAIL: time-bounded query pruned no segments")
            return 1

        print(
            f"OK: {packets} packets over 2 sources, "
            f"{counters.get('serve.segments', 0)} segments, archive info + "
            f"query pruning verified"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
