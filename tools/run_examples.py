#!/usr/bin/env python
"""Headless smoke-run of every ``examples/*.py`` script.

The CI ``examples`` job runs this with two hard rules:

1. **Tiny inputs** — ``REPRO_EXAMPLES_QUICK=1`` is exported, which every
   example honors by shrinking its synthetic workload; the whole sweep
   stays in CI-smoke territory.
2. **No deprecation leaks** — each example runs under
   ``-W error::DeprecationWarning``, so an example (or any *internal*
   ``repro`` code it exercises) that routes through a deprecated entry
   point fails the build.  Examples are the reference façade callers;
   they must be warning-clean.

Needs only the package and numpy; exits non-zero on the first failing
example.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
PER_EXAMPLE_TIMEOUT = 600  # seconds; quick mode finishes far below this


def main() -> int:
    if not EXAMPLES:
        print("ERROR: no examples found", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["REPRO_EXAMPLES_QUICK"] = "1"
    env["PYTHONPATH"] = (
        f"{REPO / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO / "src")
    )
    failures = 0
    for example in EXAMPLES:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", str(example)],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=PER_EXAMPLE_TIMEOUT,
        )
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            failures += 1
            print(f"FAIL  {example.name} ({elapsed:.1f}s)")
            sys.stderr.write(proc.stdout[-2000:])
            sys.stderr.write(proc.stderr[-4000:])
        else:
            print(f"ok    {example.name} ({elapsed:.1f}s)")
    print(f"{len(EXAMPLES) - failures}/{len(EXAMPLES)} examples passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
