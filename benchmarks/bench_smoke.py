#!/usr/bin/env python
"""CI smoke benchmark: the engine must stay faster than the reference,
and metrics must stay near-free.

Compresses a small generated workload's records with the production
engine (:func:`~repro.core.compressor.compress_trace`) and with the
readable linked-list reference in ``tests/compress_oracle.py``, both
reading the same in-memory records.  It checks byte identity, and fails
(exit 1) if the engine's speedup drops below the floor recorded in
``BENCH_streaming.json``.  A second guard times ``compress_tsh_file``
with the :mod:`repro.obs` registry enabled versus disabled and fails
when the enabled run is more than ``metrics_max_overhead`` slower — the
instrumentation's "near-zero overhead" claim, enforced.  Pure stdlib +
the library itself, so the CI job needs no test deps::

    PYTHONPATH=src python benchmarks/bench_smoke.py
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The repository root, so the reference compressor under tests/ imports.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.codec import serialize_compressed  # noqa: E402
from repro.core.compressor import compress_trace  # noqa: E402
from repro.core.streaming import compress_tsh_file  # noqa: E402
from repro.obs import MetricsRegistry, scoped  # noqa: E402
from repro.synth import generate_web_trace  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

from tests.compress_oracle import run_oracle  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "BENCH_streaming.json"
ROUNDS = 3
OVERHEAD_PAIRS = 60


def _best_of(run, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _check_metrics_overhead(path, chunk_size, max_overhead) -> list[str]:
    """Enabled-vs-disabled ``compress_tsh_file`` time, sampled interleaved.

    The disabled run scopes a disabled registry (what ``REPRO_NO_METRICS=1``
    does process-wide); the enabled run scopes a fresh live one.  A run
    takes ~10 ms, so sequential best-of-N blocks mostly measure machine
    drift between the blocks; on/off pairs taken back to back, compared
    by their medians, see both sides under the same load.
    """

    def disabled():
        with scoped(None):
            compress_tsh_file(path, chunk_size=chunk_size)

    def enabled():
        with scoped(MetricsRegistry()):
            compress_tsh_file(path, chunk_size=chunk_size)

    off, on = [], []
    for _ in range(OVERHEAD_PAIRS):
        off.append(_timed(disabled))
        on.append(_timed(enabled))
    off_seconds, on_seconds = statistics.median(off), statistics.median(on)
    overhead = on_seconds / off_seconds - 1.0
    print(
        f"bench-smoke: metrics overhead {overhead * 100.0:+.2f}% "
        f"(median of {OVERHEAD_PAIRS} interleaved pairs: disabled "
        f"{off_seconds * 1000.0:.1f} ms, enabled {on_seconds * 1000.0:.1f} ms, "
        f"cap {max_overhead * 100.0:.0f}%)"
    )
    if overhead > max_overhead:
        return [
            f"bench-smoke: metrics-enabled run is {overhead * 100.0:.2f}% "
            f"slower than disabled; cap is {max_overhead * 100.0:.0f}% "
            f"in {BASELINE.name}"
        ]
    return []


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    workload = baseline["workload"]
    chunk_size = baseline["chunk_size"]
    floor = baseline["columnar_min_speedup"]
    max_overhead = baseline["metrics_max_overhead"]

    trace = generate_web_trace(
        duration=workload["duration"],
        flow_rate=workload["flow_rate"],
        seed=workload["seed"],
    )
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.tsh"
        trace.save_tsh(path)
        errors += _check_metrics_overhead(path, chunk_size, max_overhead)
        records = Trace.load_tsh(path).packets
    reference, reference_seconds = _best_of(lambda: run_oracle(records).output)
    engine, engine_seconds = _best_of(lambda: compress_trace(records))

    packets = len(trace)
    speedup = reference_seconds / engine_seconds
    print(
        f"bench-smoke: {packets} packets | reference "
        f"{packets / reference_seconds:,.0f} pps | engine "
        f"{packets / engine_seconds:,.0f} pps | speedup x{speedup:.2f} "
        f"(floor x{floor})"
    )

    if serialize_compressed(engine) != serialize_compressed(reference):
        errors.append("bench-smoke: engine and reference disagree on output bytes")
    if speedup < floor:
        errors.append(
            f"bench-smoke: engine speedup x{speedup:.2f} over the reference "
            f"fell below the x{floor} floor in {BASELINE.name}"
        )
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
