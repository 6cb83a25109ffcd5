"""Benchmarks: sustained ingest rate of the serve daemon.

Three measurements, each asserted against the conservative floors in
``BENCH_ingest.json`` (an order of magnitude under the rates measured
at authoring time, so only a real regression — ingest falling back to
per-packet Python, an accidental sync stall in the event loop — trips
them):

* **unix socket** — end to end: a client thread streams length-framed
  TSH over a unix socket into a live daemon sealing a real archive.
* **tail** — the same capture ingested by following a growing file.
* **feeder only** — SegmentFeeder.feed without the daemon around it,
  on the daemon's own engine (``auto``): the compression-bound ceiling
  the socket path should stay within sight of.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import serve
from repro.api.options import ArchiveOptions, Options, ServeOptions
from repro.archive.writer import EpochRef, SegmentFeeder
from repro.synth import generate_web_trace
from repro.trace.framing import END_OF_STREAM, frame
from repro.trace.tsh import read_tsh_bytes

import socket

BASELINE = json.loads(
    (Path(__file__).resolve().parent / "BENCH_ingest.json").read_text()
)
SEGMENT_PACKETS = 4096


@pytest.fixture(scope="module")
def ingest_data():
    workload = BASELINE["workload"]
    trace = generate_web_trace(
        duration=workload["duration"],
        flow_rate=workload["flow_rate"],
        seed=workload["seed"],
    )
    return trace.to_tsh_bytes()


def _options(**serve_kwargs) -> Options:
    return Options(
        archive=ArchiveOptions(
            segment_packets=SEGMENT_PACKETS, segment_span=None
        ),
        serve=ServeOptions(**serve_kwargs),
    )


def _rate(label: str, packets: int, elapsed: float) -> float:
    rate = packets / elapsed
    print(f"\n{label}: {packets} packets in {elapsed:.3f}s = {rate:,.0f} pkt/s")
    return rate


class TestIngestThroughput:
    def test_unix_socket_sustained_rate(self, tmp_path, ingest_data):
        packets = len(ingest_data) // 44
        sock = str(tmp_path / "bench.sock")

        def send():
            # The daemon binds the socket file before it listens: retry
            # a refused connect as well as a missing file.
            deadline = time.monotonic() + 10
            while True:
                client = socket.socket(socket.AF_UNIX)
                try:
                    client.connect(sock)
                    break
                except (ConnectionRefusedError, FileNotFoundError):
                    client.close()
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
            try:
                step = 1024 * 44
                for start in range(0, len(ingest_data), step):
                    client.sendall(frame(ingest_data[start : start + step]))
                client.sendall(END_OF_STREAM)
            finally:
                client.close()

        sender = threading.Thread(target=send, daemon=True)
        start = time.perf_counter()
        sender.start()
        report = serve(
            str(tmp_path / "bench.fctca"),
            _options(sources=(f"unix:{sock}",), stop_after_packets=packets),
        )
        elapsed = time.perf_counter() - start
        sender.join(timeout=5)
        assert report.packets == packets
        assert _rate("serve/unix", packets, elapsed) >= BASELINE[
            "min_packets_per_sec"
        ]["unix_socket"]

    def test_tail_sustained_rate(self, tmp_path, ingest_data):
        packets = len(ingest_data) // 44
        capture = tmp_path / "bench.tsh"
        capture.write_bytes(ingest_data)
        start = time.perf_counter()
        report = serve(
            str(tmp_path / "tail.fctca"),
            _options(
                sources=(f"tail:{capture}",),
                stop_after_packets=packets,
                tail_poll_seconds=0.01,
            ),
        )
        elapsed = time.perf_counter() - start
        assert report.packets == packets
        assert _rate("serve/tail", packets, elapsed) >= BASELINE[
            "min_packets_per_sec"
        ]["tail"]

    def test_feeder_only_rate(self, ingest_data):
        packets = read_tsh_bytes(ingest_data)
        sealed = []
        feeder = SegmentFeeder(
            sealed.append,
            epoch=EpochRef(),
            segment_packets=SEGMENT_PACKETS,
            segment_span=None,
        )
        start = time.perf_counter()
        for offset in range(0, len(packets), 1024):
            feeder.feed(packets[offset : offset + 1024])
        feeder.close()
        elapsed = time.perf_counter() - start
        assert sum(trace.packet_count() for trace in sealed) == len(packets)
        assert _rate("feeder", len(packets), elapsed) >= BASELINE[
            "min_packets_per_sec"
        ]["feeder_only"]
