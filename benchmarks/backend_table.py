#!/usr/bin/env python
"""Backend ratio/throughput sweep — emits the docs/CLI.md table.

Runs the flow-clustering compressor once per workload, then serializes
the result through every registered backend (plus ``auto``), measuring
stored size, encode time and decode time.  Output is a GitHub-flavoured
markdown table; regenerate the table in ``docs/CLI.md`` with::

    PYTHONPATH=src python benchmarks/backend_table.py

Needs only the package and numpy — runnable in CI without test
dependencies.  Ratios are deterministic per workload seed; throughputs
are machine-dependent and documented as indicative.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.core.backends import AUTO, backend_names
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.compressor import compress_trace
from repro.synth import generate_fracexp_trace, generate_p2p_trace, generate_web_trace
from repro.trace.trace import Trace
from repro.trace.tsh import tsh_file_size

_GENERATORS = {
    "web": generate_web_trace,
    "p2p": generate_p2p_trace,
    "fracexp": generate_fracexp_trace,
}

# Workloads as (name, generator, params) so the cache key below can see
# every knob that shapes the trace — a lambda would hide them.
WORKLOADS = (
    ("web", "web", {"duration": 60.0, "flow_rate": 40.0, "seed": 1}),
    ("p2p", "p2p", {"duration": 60.0, "session_rate": 8.0, "seed": 77}),
    ("fracexp", "fracexp", {"packet_count": 20_000, "seed": 4242}),
)


def cache_dir() -> Path:
    """Where generated workload TSH files are kept between runs.

    Defaults to ``benchmarks/.cache``; override with ``REPRO_BENCH_CACHE``
    (CI points it at a per-job scratch directory).
    """
    return Path(
        os.environ.get("REPRO_BENCH_CACHE", Path(__file__).parent / ".cache")
    )


def workload_digest(generator: str, params: dict) -> str:
    """A cache key covering everything that shapes the generated trace.

    The digest is over the generator name and the *sorted* JSON of its
    parameters, so any change to duration/rate/seed (or adding a new
    knob) yields a new key — the cache can never serve a trace built
    from different parameters under the same name.
    """
    payload = json.dumps(
        {"generator": generator, "params": params}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def workload_path(name: str, generator: str, params: dict) -> Path:
    return cache_dir() / f"{name}-{workload_digest(generator, params)}.tsh"


def load_workload(name: str, generator: str, params: dict) -> Trace:
    """Load the cached workload, regenerating when the key is stale.

    Files for the same workload name under an *old* digest are deleted
    on regeneration, so the cache directory cannot silently accumulate —
    or worse, serve — traces from earlier parameter sets.
    """
    path = workload_path(name, generator, params)
    if not path.exists():
        trace = _GENERATORS[generator](**params)
        path.parent.mkdir(parents=True, exist_ok=True)
        for stale in path.parent.glob(f"{name}-*.tsh"):
            if stale != path:
                stale.unlink()
        trace.save_tsh(path)
    # Always measure the TSH-loaded form: its microsecond-quantized
    # timestamps make results identical on cold and warm cache alike.
    return Trace.load_tsh(path)


def _mib_per_s(byte_count: int, seconds: float) -> float:
    return byte_count / (1024 * 1024) / max(seconds, 1e-9)


def sweep(repeats: int = 3) -> list[dict]:
    """One row per (workload, backend): ratio + encode/decode speed."""
    rows = []
    for workload, generator, params in WORKLOADS:
        trace = load_workload(workload, generator, params)
        original = tsh_file_size(len(trace))
        compressed = compress_trace(trace)
        for backend in (*backend_names(), AUTO):
            encode = decode = float("inf")
            data = b""
            for _ in range(repeats):
                start = time.perf_counter()
                data = serialize_compressed(compressed, backend=backend)
                encode = min(encode, time.perf_counter() - start)
                start = time.perf_counter()
                deserialize_compressed(data)
                decode = min(decode, time.perf_counter() - start)
            rows.append(
                {
                    "workload": workload,
                    "backend": backend,
                    "original": original,
                    "stored": len(data),
                    "ratio": 100.0 * len(data) / original,
                    "encode_mib_s": _mib_per_s(original, encode),
                    "decode_mib_s": _mib_per_s(original, decode),
                }
            )
    return rows


def markdown_table(rows: list[dict]) -> str:
    lines = [
        "| workload | backend | stored bytes | ratio (% of TSH) "
        "| encode MiB/s | decode MiB/s |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['backend']} | {row['stored']} "
            f"| {row['ratio']:.2f} | {row['encode_mib_s']:.0f} "
            f"| {row['decode_mib_s']:.0f} |"
        )
    return "\n".join(lines)


def main() -> int:
    rows = sweep()
    print(markdown_table(rows))
    # Sanity: the sweep must agree with the paper's headline claim (the
    # raw container lands around 3 % of the TSH bytes on web traffic)
    # and the entropy coders must not lose to raw on any workload here.
    web_raw = next(
        r for r in rows if r["workload"] == "web" and r["backend"] == "raw"
    )
    if not 1.0 < web_raw["ratio"] < 6.0:
        print(f"suspicious web/raw ratio: {web_raw['ratio']:.2f}%", file=sys.stderr)
        return 1
    for workload in {r["workload"] for r in rows}:
        by_backend = {
            r["backend"]: r["stored"] for r in rows if r["workload"] == workload
        }
        # Auto trial-picks on a 64 KiB sample per section, so grant 2 %
        # slack for sample-vs-full divergence on large sections.
        if by_backend["auto"] > min(by_backend.values()) * 1.02:
            print(f"auto lost the sweep on {workload}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
