"""Performance ledger: four closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perf_ledger/ledger.py [--workload build|replay|analyst|ingest|all]
        [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--quick]

For each workload the harness generates the inputs from the seed, times
eleven cold starts (``setup_s``), then runs the workload's loop in a fresh
worker process for ``--seconds`` and checks every output.  With
``--trace 0`` it prints the end-to-end metrics of an untraced run; with
``--trace 1`` it runs an untraced and a traced pass of half the time
each and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  ``--spans FILE`` writes the
traced pass's spans and needs ``--trace 1``.  ``--quick`` uses tiny
inputs and two ops per workload; the ledger's own test runs it.  The
exit code is 1 when any check fails.  See ``perf_ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from workloads import WORKLOADS, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".ledger"
SETUP_PROBES = 11
WORKER_DEADLINE = 170.0

# End-to-end metrics: every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "archive_ratio_pct": "%",
}
# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

# Per-layer metrics.  ``self_s`` is self seconds per op of the workload
# (span time minus child spans), ``share_pct`` that self time over the
# ops' wall time, and rates divide the layer's packets by its self time.
PER_LAYER = {
    "trace.read_columns.self_s": "s",
    "trace.read_columns.share_pct": "%",
    "trace.read_columns.pps": "packets/s",
    "trace.framing.self_s": "s",
    "trace.framing.pps": "packets/s",
    "trace.export.self_s": "s",
    "trace.export.share_pct": "%",
    "trace.export.bytes_out": "B",
    "core.compress.self_s": "s",
    "core.compress.share_pct": "%",
    "core.compress.pps": "packets/s",
    "core.compress.template_hit_pct": "%",
    "core.compress.peak_active_flows": "count",
    "core.flow_specs.self_s": "s",
    "core.synthesize_flow.self_s": "s",
    "core.synthesize_flow.share_pct": "%",
    "core.synthesize_flow.packets": "count",
    "core.merge.self_s": "s",
    "core.merge.peak_open_flows": "count",
    "core.flow_records.self_s": "s",
    "core.flow_records.flows": "count",
    "archive.rotate.self_s": "s",
    "archive.write_segment.self_s": "s",
    "archive.write_segment.share_pct": "%",
    "archive.write_segment.segments": "count",
    "archive.write_segment.stored_over_raw_pct": "%",
    "archive.close.self_s": "s",
    "archive.load_segment.self_s": "s",
    "archive.load_segment.segments": "count",
    "archive.load_segment.bytes": "B",
    "archive.append.self_s": "s",
    "query.time_range.self_s": "s",
    "query.time_range.segments_decoded_per_op": "count",
    "query.time_range.useful_decode_pct": "%",
    "query.time_range.flows_scanned_per_match": "count",
    "query.destination.self_s": "s",
    "query.destination.segments_decoded_per_op": "count",
    "query.destination.useful_decode_pct": "%",
    "query.destination.flows_scanned_per_match": "count",
    "analysis.matrices.aggregate.self_s": "s",
    "analysis.matrices.window_stats.self_s": "s",
    "analysis.matrices.window_stats.windows": "count",
    "analysis.matrices.window_stats.links_p50": "count",
    "analysis.matrices.window_stats.links_max": "count",
    "analysis.matrices.window_stats.scipy_window_pct": "%",
    "serve.loop.residual_s": "s",
    "serve.backpressure_waits": "count",
    "serve.queue_depth_max": "count",
    "api.window_query.p50_ms": "ms",
    "api.window_query.p90_ms": "ms",
    "api.dst_query.p50_ms": "ms",
    "api.dst_query.p90_ms": "ms",
    "api.stats.p50_ms": "ms",
    "api.stats.p90_ms": "ms",
    "api.append.p50_ms": "ms",
    "ledger.coverage_pct": "%",
    "ledger.trace_overhead_pct": "%",
}

_API_KINDS = {
    "window_query": "time_range",
    "dst_query": "destination",
    "stats": "stats",
    "append": "append",
}


def child_env() -> dict:
    """Workers and daemons import the checkout's ``src`` and stay single-threaded."""
    env = dict(os.environ)
    paths = [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(args: list[str], env: dict, cpus: set[int]) -> tuple[float, int, float]:
    """Run this script in a child on ``cpus``; returns (wall s, exit code, peak RSS MB)."""
    with workloads.on_cpus(cpus):
        started = clock()
        process = subprocess.Popen([sys.executable, __file__, *args], env=env)
    deadline = started + WORKER_DEADLINE
    try:
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                process.returncode = os.waitstatus_to_exitcode(status)
                return clock() - started, process.returncode, usage.ru_maxrss / 1024.0
            if clock() > deadline:
                raise TimeoutError(f"worker {args} overran {WORKER_DEADLINE} s")
            time.sleep(0.002)
    finally:
        if process.returncode is None:
            process.kill()
            process.wait()


# -- child roles ----------------------------------------------------------------


def worker_main(spec_path: Path) -> int:
    """Warm up, then run each planned pass; results go next to the spec."""
    from repro.obs import MetricsRegistry, scoped
    from tracer import Tracer

    spec = json.loads(spec_path.read_text())
    store = workloads.warm_up(spec)
    passes = []
    for plan in spec["passes"]:
        tracer = Tracer(spec["workload"]) if plan["traced"] else None
        registry = MetricsRegistry()
        with scoped(registry), tracer.patched() if tracer else nullcontext():
            result = workloads.run_pass(spec, store, plan, tracer)
        result.update(name=plan["name"], traced=plan["traced"])
        result["counters"] = {
            metric.name: metric.value
            for metric in registry
            if metric.kind in ("counter", "gauge")
        }
        if tracer is not None:
            result["layers"] = {
                "ops": tracer.ops,
                "op_seconds": tracer.op_seconds,
                "unattributed": tracer.unattributed_seconds(),
                "self_seconds": dict(tracer.self_seconds),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "samples": dict(tracer.samples),
            }
            result["spans"] = tracer.spans
        passes.append(result)
    if store is not None:
        store.close()
    spec_path.with_name("result.json").write_text(json.dumps({"passes": passes}))
    return 0


def probe_main(spec_path: Path) -> int:
    workloads.warm_up(json.loads(spec_path.read_text()))
    return 0


# -- one workload -------------------------------------------------------------------


def run_workload(name: str, args: argparse.Namespace, env: dict, cpus: set[int]) -> dict:
    workdir = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.prepare(name, workdir, args.seed, args.quick)
        spec = {
            "workload": name,
            "workdir": str(workdir),
            "inputs": inputs,
            "seed": args.seed,
            "quick": args.quick,
            "cpus": sorted(cpus),
        }
        if args.trace:
            return traced_run(spec, args, env)
        return untraced_run(spec, args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_worker(spec: dict, passes: list[dict], env: dict) -> tuple[list[dict], float]:
    spec_path = Path(spec["workdir"]) / "spec.json"
    spec_path.write_text(json.dumps({**spec, "passes": passes}))
    _, code, rss_mb = spawn(["--worker", str(spec_path)], env, set(spec["cpus"]))
    if code != 0:
        raise RuntimeError(f"{spec['workload']} worker exited {code}")
    results = json.loads(spec_path.with_name("result.json").read_text())["passes"]
    if spec["workload"] == "analyst":
        for result in results:
            workloads.check_analyst(spec, result)
    return results, rss_mb


def setup_seconds(spec: dict, quick: bool, env: dict) -> list[float]:
    """Cold starts, each scaled by the machine speed read around it."""
    spec_path = Path(spec["workdir"]) / "probe.json"
    spec_path.write_text(json.dumps(spec))
    cpus = set(spec["cpus"])
    times = []
    for _ in range(1 if quick else SETUP_PROBES):
        before = workloads.calibrate_on(cpus)
        if spec["workload"] == "ingest":
            seconds = workloads.daemon_setup_seconds(spec, env)
        else:
            seconds, code, _ = spawn(["--probe", str(spec_path)], env, cpus)
            if code != 0:
                raise RuntimeError(f"{spec['workload']} set-up probe exited {code}")
        after = workloads.calibrate_on(cpus)
        times.append(seconds * workloads.speed_scale(before, after))
    return times


def untraced_run(spec: dict, args: argparse.Namespace, env: dict) -> dict:
    inputs = spec["inputs"]
    setup = setup_seconds(spec, args.quick, env)
    plan = {"name": "untraced", "seconds": args.seconds, "traced": False}
    if spec["workload"] == "ingest":
        result = workloads.run_ingest_daemons(spec, plan, env)
        rss_mb = max((op.get("rss_mb", 0.0) for op in result["ops"]), default=0.0)
        results = [result]
    else:
        results, rss_mb = run_worker(spec, [plan], env)
    ops = results[0]["ops"]
    seconds = unit_seconds(ops)
    median = statistics.median(seconds) if seconds else 0.0
    # The archive the loop wrote; replay writes none and reports the one it reads.
    archive_bytes = results[0].get("archive_bytes", inputs.get("archive_bytes", 0))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": median * 1000.0,
        "peak_rss_mb": rss_mb,
        "archive_ratio_pct": 100.0 * archive_bytes / inputs["tsh_bytes"],
    }
    raw = unit_seconds(ops, scaled=False)
    detail = {
        "setup_samples": setup,
        "op_samples": len(seconds),
        "op_tail": tail(seconds),
        "raw_op_p50_ms": 1000.0 * statistics.median(raw) if raw else 0.0,
    }
    if spec["workload"] == "analyst":
        detail["by_kind"] = {
            kind: {
                "p50_ms": percentile(latencies, 0.5),
                "p90_ms": percentile(latencies, 0.9),
                "samples": len(latencies),
            }
            for kind, latencies in kind_latencies(ops).items()
        }
    elif median:
        detail["pps"] = inputs["packets"] / median
    return summarize(spec, ops, metrics, END_TO_END, detail)


def traced_run(spec: dict, args: argparse.Namespace, env: dict) -> dict:
    """An untraced and a traced pass; ingest adds the real daemon first."""
    share = args.seconds / (3 if spec["workload"] == "ingest" else 2)
    passes = [
        {"name": "untraced", "seconds": share, "traced": False},
        {"name": "traced", "seconds": share, "traced": True},
    ]
    daemon_ops = []
    if spec["workload"] == "ingest":
        plan = {"name": "daemon", "seconds": share, "traced": False}
        daemon_ops = workloads.run_ingest_daemons(spec, plan, env)["ops"]
    results, _ = run_worker(spec, passes, env)
    ops = [op for result in results for op in result["ops"]] + daemon_ops
    untraced, traced = results
    metrics = layer_metrics(untraced, traced, daemon_ops)
    detail = {
        "traced_ops": traced["layers"]["ops"],
        "unattributed_s": traced["layers"]["unattributed"],
    }
    result = summarize(spec, ops, metrics, PER_LAYER, detail)
    result["spans"] = traced["spans"]
    return result


def scaled_seconds(ops: list[dict]) -> list[float]:
    """Successful ops' times in reference-machine seconds."""
    return [op["seconds"] * op["scale"] for op in ops if op["error"] is None]


def unit_seconds(ops: list[dict], scaled: bool = True) -> list[float]:
    """Seconds per timed unit: an op, or an analyst repetition (the sum of its calls).

    One pass through the analyst's schedule sums every call in it, so
    its time moves with every kind of call, and each pass is the same
    work.  A repetition with a failed call is left out, like a failed op.
    """
    units: dict = {}
    failed = set()
    for index, op in enumerate(ops):
        key = ("repetition", op["repetition"]) if "repetition" in op else index
        if op["error"] is not None:
            failed.add(key)
        else:
            seconds = op["seconds"] * (op["scale"] if scaled else 1.0)
            units[key] = units.get(key, 0.0) + seconds
    return [seconds for key, seconds in units.items() if key not in failed]


def kind_latencies(ops: list[dict]) -> dict[str, list[float]]:
    """Successful ops' scaled latencies in ms, by op kind."""
    latencies: dict[str, list[float]] = {}
    for op in ops:
        if op["error"] is None:
            latencies.setdefault(op["kind"], []).append(1000.0 * op["seconds"] * op["scale"])
    return latencies


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def tail(seconds: list[float]) -> dict | None:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it."""
    if len(seconds) < 2 * TAIL_SAMPLES:
        return None
    point = min(99, int(100 * (1 - TAIL_SAMPLES / len(seconds))))
    return {
        "percentile": point,
        "ms": 1000.0 * percentile(seconds, point / 100),
        "samples": len(seconds),
    }


def layer_metrics(untraced: dict, traced: dict, daemon_ops: list[dict]) -> dict:
    layers = traced["layers"]
    ops = max(layers["ops"], 1)
    wall = layers["op_seconds"] or 1.0
    own = layers["self_seconds"]
    counts = layers["counts"]
    counters = traced["counters"]
    # Layer seconds are scaled like op times, by the traced pass's speed.
    speed = statistics.median(op["scale"] for op in traced["ops"])

    def self_s(name: str) -> float:
        return own.get(name, 0.0) * speed / ops

    def share(name: str) -> float:
        return 100.0 * own.get(name, 0.0) / wall

    def rate(amount: float, name: str) -> float:
        return amount / (own[name] * speed) if own.get(name) else 0.0

    def ratio(part: float, whole: float, scale: float = 100.0) -> float:
        return scale * part / whole if whole else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".share_pct"):
            metrics[name] = share(name[: -len(".share_pct")])
    hits = counters.get("compress.template.hits", 0)
    misses = counters.get("compress.template.misses", 0)
    links = sorted(layers["samples"].get("analysis.matrices.window_stats.links", []))
    scipy_windows = counters.get("analysis.matrices.engine.scipy", 0)
    windows = scipy_windows + counters.get("analysis.matrices.engine.python", 0)
    metrics.update(
        {
            "trace.read_columns.pps": rate(
                counts.get("trace.read_columns.packets", 0), "trace.read_columns"
            ),
            "trace.framing.pps": rate(
                counts.get("trace.framing.packets", 0), "trace.framing"
            ),
            "trace.export.bytes_out": counts.get("trace.export.bytes_out", 0) / ops,
            "core.compress.pps": rate(
                counters.get("compress.packets", 0), "core.compress"
            ),
            "core.compress.template_hit_pct": ratio(hits, hits + misses),
            "core.compress.peak_active_flows": counters.get(
                "stream.active_flows.peak", 0
            ),
            "core.synthesize_flow.packets": counts.get(
                "core.synthesize_flow.packets", 0
            ) / ops,
            "core.merge.peak_open_flows": counts.get("core.merge.peak_open_flows", 0),
            "core.flow_records.flows": counts.get("core.flow_records.flows", 0) / ops,
            "archive.write_segment.segments": layers["calls"].get(
                "archive.write_segment", 0
            ) / ops,
            "archive.write_segment.stored_over_raw_pct": ratio(
                counters.get("codec.bytes_stored", 0), counters.get("codec.bytes_raw", 0)
            ),
            "archive.load_segment.segments": counters.get(
                "archive.segments_decoded", 0
            ) / ops,
            "archive.load_segment.bytes": counters.get("archive.bytes_decoded", 0) / ops,
            "analysis.matrices.window_stats.windows": len(links) / ops,
            "analysis.matrices.window_stats.links_p50": (
                statistics.median(links) if links else 0.0
            ),
            "analysis.matrices.window_stats.links_max": links[-1] if links else 0.0,
            "analysis.matrices.window_stats.scipy_window_pct": ratio(
                scipy_windows, windows
            ),
        }
    )
    for query in ("time_range", "destination"):
        prefix = f"query.{query}"
        decoded = counts.get(f"{prefix}.segments_decoded", 0)
        metrics[f"{prefix}.segments_decoded_per_op"] = ratio(
            decoded, counts.get(f"{prefix}.runs", 0), 1.0
        )
        metrics[f"{prefix}.useful_decode_pct"] = ratio(
            counts.get(f"{prefix}.segments_useful", 0), decoded
        )
        metrics[f"{prefix}.flows_scanned_per_match"] = ratio(
            counts.get(f"{prefix}.flows_scanned", 0),
            counts.get(f"{prefix}.flows_matched", 0),
            1.0,
        )
    by_kind = kind_latencies(untraced["ops"])
    for label, kind in _API_KINDS.items():
        latencies = by_kind.get(kind, [])
        metrics[f"api.{label}.p50_ms"] = percentile(latencies, 0.5)
        if f"api.{label}.p90_ms" in metrics:
            metrics[f"api.{label}.p90_ms"] = percentile(latencies, 0.9)
    plain_seconds = scaled_seconds(untraced["ops"])
    # Both passes run the same op sequence, so compare them op by op.
    pairs = [
        (first["seconds"] * first["scale"], second["seconds"] * second["scale"])
        for first, second in zip(untraced["ops"], traced["ops"])
        if first["error"] is None and second["error"] is None
    ]
    if pairs:
        metrics["ledger.trace_overhead_pct"] = 100.0 * (
            sum(second for _, second in pairs) / sum(first for first, _ in pairs) - 1.0
        )
    metrics["ledger.coverage_pct"] = ratio(wall - layers["unattributed"], wall)
    served = [op for op in daemon_ops if op["error"] is None]
    if served and plain_seconds:
        metrics["serve.loop.residual_s"] = statistics.median(
            scaled_seconds(served)
        ) - statistics.median(plain_seconds)
        waits = [
            op["metrics"].get("counters", {}).get(
                f"serve.source.{workloads.INGEST_LABEL}.backpressure", 0
            )
            for op in served
        ]
        metrics["serve.backpressure_waits"] = sum(waits) / len(waits)
        metrics["serve.queue_depth_max"] = max(
            op["metrics"].get("gauges", {}).get(
                f"serve.source.{workloads.INGEST_LABEL}.queue_depth.peak", 0
            )
            for op in served
        )
    return metrics


def summarize(spec, ops, metrics, units, detail) -> dict:
    failed = [op for op in ops if op["error"] is not None]
    digests = sorted({op["digest"] for op in ops if op.get("digest")})
    detail.update(
        workload=spec["workload"],
        seed=spec["seed"],
        meta=spec["inputs"]["meta"],
        digest=workloads.digest("\n".join(digests).encode()),
        errors=sorted({op["error"] for op in failed})[:5],
    )
    return {
        "correct": not failed and bool(ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "detail": detail,
    }


def print_report(result: dict) -> None:
    detail, meta = result["detail"], result["detail"]["meta"]
    print(
        f"== {detail['workload']} (seed {detail['seed']}): "
        f"{result['attempted']} ops, {result['failed']} failed; "
        f"{meta['scenario']} {meta['packets']} packets, "
        f"{meta['tsh_bytes'] / 1e6:.1f} MB TSH, "
        f"temporal complexity {meta['temporal_complexity']} bits"
    )
    for name, metric in result["metrics"].items():
        print(f"   {name:<48s} {metric['value']:>14.4f} {metric['unit']}")
    for error in detail["errors"]:
        print(f"   FAILED: {error}")
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    if args.worker:
        return worker_main(args.worker)
    if args.probe:
        return probe_main(args.probe)

    env = child_env()
    # Measured processes get a CPU of their own; the harness keeps off it.
    measured, harness = workloads.cpu_split()
    if harness:
        os.sched_setaffinity(0, harness)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, spans = {}, []
    for name in names:
        results[name] = run_workload(name, args, env, measured)
        spans.extend(results[name].pop("spans", []))
        print_report(results[name])
        if len(names) > 1:
            print(f"result {name} " + json.dumps(_line(results[name])))
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it
    if args.spans:
        args.spans.write_text(json.dumps({"seed": args.seed, "spans": spans}))
    if len(names) == 1:
        line = _line(results[names[0]])
    else:
        line = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _line(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


if __name__ == "__main__":
    sys.exit(main())
