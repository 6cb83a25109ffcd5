"""Memory-regression guard for the streaming paths.

Generates two Web traces whose lengths differ by ``--scale`` (default
4x), then measures each workload in a *fresh subprocess* and records
the child's peak RSS (``getrusage`` high-water mark — the real number
an operator sees, not just Python-heap accounting).  Two guarded paths:

* **Streaming decompression** — compress both traces, then
  stream-decompress each to ``/dev/null``.  The working set must stay
  one merge batch plus its carried rows, not track the packet count.
* **Serve ingest** — run the ``repro serve`` daemon over a ``tail:``
  source of each raw capture until every packet is ingested.  The
  daemon's memory is its bounded per-source queues plus one open
  segment per source, so peak RSS must likewise stay far under the
  packet-count growth.

Either guard fails when peak RSS grows superlinearly-ish with trace
length (RSS growth >= ``GROWTH_FRACTION`` of the packet growth).

Run from the repository root (CI does)::

    PYTHONPATH=src python benchmarks/memory_guard.py

Exit status 0 = flat memory confirmed, 1 = regression, with the
measured numbers on stdout either way.  Needs only the package and
numpy — no pytest — so the CI job installs nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_DURATION = 12.0
DEFAULT_SCALE = 4.0
DEFAULT_RATE = 40.0
SEED = 1

# RSS growth must stay under this fraction of the packet-count growth.
# Linear growth would track the packet ratio (1.0); the streaming
# engine holds one merge batch plus its carried rows, so even with the
# interpreter baseline subtracted out a wide margin below linear is
# expected.
GROWTH_FRACTION = 0.6


def _measure_child(compressed_path: str) -> None:
    """Child body: stream-decompress to /dev/null, report peak RSS."""
    from repro.core.codec import deserialize_compressed
    from repro.core.replay import StreamingDecompressor
    from repro.trace.export import export_packet_stream

    compressed = deserialize_compressed(Path(compressed_path).read_bytes())
    engine = StreamingDecompressor(compressed)
    result = export_packet_stream(engine.packets(), os.devnull, format="tsh")
    rss_kib = _peak_rss_kib()
    print(
        json.dumps(
            {
                "packets": result.packets,
                "peak_rss_kib": rss_kib,
                "peak_open_flows": engine.stats.peak_open_flows,
            }
        )
    )


def _peak_rss_kib() -> int:
    import resource

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss_kib //= 1024
    return rss_kib


def _measure_serve_child(tsh_path: str) -> None:
    """Child body: ingest a whole capture through the serve daemon."""
    from repro.api.options import ArchiveOptions, Options, ServeOptions
    from repro.serve.daemon import serve

    packets = os.path.getsize(tsh_path) // 44
    report = serve(
        tsh_path + ".fctca",
        Options(
            archive=ArchiveOptions(segment_packets=4096, segment_span=None),
            serve=ServeOptions(
                sources=(f"tail:{tsh_path}",),
                stop_after_packets=packets,
                tail_poll_seconds=0.01,
            ),
        ),
    )
    print(
        json.dumps(
            {
                "packets": report.packets,
                "peak_rss_kib": _peak_rss_kib(),
                "segments": report.segments,
            }
        )
    )


def _run_child(path: Path, mode: str = "--measure") -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    output = subprocess.run(
        [sys.executable, __file__, mode, str(path)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(output.splitlines()[-1])


def _build_compressed(directory: Path, duration: float, label: str) -> Path:
    from repro.core.codec import serialize_compressed
    from repro.core.compressor import compress_trace
    from repro.synth import generate_web_trace

    trace = generate_web_trace(duration=duration, flow_rate=DEFAULT_RATE, seed=SEED)
    path = directory / f"{label}.fctc"
    path.write_bytes(serialize_compressed(compress_trace(trace)))
    return path


def _build_tsh(directory: Path, duration: float, label: str) -> Path:
    from repro.synth import generate_web_trace

    trace = generate_web_trace(duration=duration, flow_rate=DEFAULT_RATE, seed=SEED)
    path = directory / f"{label}.tsh"
    trace.save_tsh(path)
    return path


def _check_growth(label: str, small_result: dict, large_result: dict) -> bool:
    packet_growth = large_result["packets"] / small_result["packets"]
    rss_growth = large_result["peak_rss_kib"] / small_result["peak_rss_kib"]
    limit = max(1.0, GROWTH_FRACTION * packet_growth)
    print(f"-- {label} --")
    print(
        f"packets     : {small_result['packets']} -> {large_result['packets']} "
        f"(x{packet_growth:.2f})"
    )
    print(
        f"peak RSS    : {small_result['peak_rss_kib']} KiB -> "
        f"{large_result['peak_rss_kib']} KiB (x{rss_growth:.2f}, limit x{limit:.2f})"
    )
    if rss_growth >= limit:
        print(f"FAIL: {label} peak RSS grows superlinearly with trace length")
        return False
    print(f"OK: {label} memory is flat")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--measure-serve", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)

    if args.measure is not None:
        _measure_child(args.measure)
        return 0
    if args.measure_serve is not None:
        _measure_serve_child(args.measure_serve)
        return 0

    ok = True
    with tempfile.TemporaryDirectory(prefix="memory-guard-") as tmp:
        directory = Path(tmp)
        small = _build_compressed(directory, args.duration, "small")
        large = _build_compressed(directory, args.duration * args.scale, "large")
        small_result = _run_child(small)
        large_result = _run_child(large)
        print(
            f"open flows  : {small_result['peak_open_flows']} -> "
            f"{large_result['peak_open_flows']}"
        )
        ok &= _check_growth(
            "streaming decompression", small_result, large_result
        )

        small_tsh = _build_tsh(directory, args.duration, "small")
        large_tsh = _build_tsh(directory, args.duration * args.scale, "large")
        small_serve = _run_child(small_tsh, mode="--measure-serve")
        large_serve = _run_child(large_tsh, mode="--measure-serve")
        print(
            f"segments    : {small_serve['segments']} -> "
            f"{large_serve['segments']}"
        )
        ok &= _check_growth("serve ingest", small_serve, large_serve)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
