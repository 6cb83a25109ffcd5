"""Spread of the ledger's end-to-end metrics, over seeds and at one seed.

    python3 perf_ledger/spread.py --workload build [--out FILE]

Runs ``ledger.py --trace 0`` on seeds 1-10 twice in a row, then five
times on seed 1.  For each metric it reports each seed set's median,
quartiles and spread (quartile distance over the median), how far the
second set's median moved from the first's, and the spread of the
seed-1 repeats: the run-to-run noise on one input.  This is how the
bounds in ``BENCHMARK.json`` were chosen: each bound must hold every
seed spread but ``setup_s``'s, and every median shift.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "ledger.py"
SEEDS = range(1, 11)
SETS = 2
REPEATS = 5  # runs on the first seed, for the run-to-run noise
SECONDS = 15


def run(workload: str, seed: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(LEDGER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed:\n{completed.stderr[-2000:]}")
    print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
    return {"seed": seed, "wall_s": wall, **json.loads(lines[-1])}


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    sets = [[run(args.workload, seed) for seed in SEEDS] for _ in range(SETS)]
    repeats = [run(args.workload, SEEDS[0]) for _ in range(REPEATS)]
    runs = [entry for runs in sets for entry in runs] + repeats
    report = {"workload": args.workload, "seeds": list(SEEDS), "metrics": {}}
    for name, first in sets[0][0]["metrics"].items():
        described = [
            describe([entry["metrics"][name]["value"] for entry in runs]) for runs in sets
        ]
        base = described[0]["median"]
        entry = report["metrics"][name] = {
            "unit": first["unit"],
            "sets": described,
            "median_shift": [(d["median"] - base) / base for d in described[1:]],
            "same_seed": describe([r["metrics"][name]["value"] for r in repeats]),
        }
        spreads = " ".join(f"{d['spread']:.3f}" for d in described)
        shifts = " ".join(f"{shift:+.3f}" for shift in entry["median_shift"])
        print(
            f"{name:<20s} median {base:14.4f}  seed spread {spreads}  "
            f"shift {shifts}  same-seed spread {entry['same_seed']['spread']:.3f}"
        )
    report["slowest_run_s"] = max(entry["wall_s"] for entry in runs)
    report["failed_ops"] = sum(entry["failed"] for entry in runs)
    print(f"slowest run {report['slowest_run_s']:.1f} s; failed ops {report['failed_ops']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
