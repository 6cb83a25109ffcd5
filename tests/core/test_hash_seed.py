"""Compressed bytes do not depend on per-process hash randomization.

Iteration over a set or dict keyed by ``str`` or by an ``Enum`` (which
hashes its name string) follows ``PYTHONHASHSEED``.  A container whose
bytes followed it would differ between two processes compressing the
same input — a reference written in one process and a rerun in another
would disagree only now and then.  Two fresh interpreters with
different hash seeds must write the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

_DIGESTS = """
import hashlib
from repro.core.codec import serialize_compressed
from repro.core.compressor import compress_trace
from repro.synth.scenarios import get_scenario

for name, duration, rate in (("flood", 8.0, 40.0), ("web", 8.0, 20.0)):
    packets = get_scenario(name).build(duration, rate, 1).packets
    data = serialize_compressed(compress_trace(packets))
    print(name, len(packets), hashlib.sha256(data).hexdigest())
"""


def _digests(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return proc.stdout


def test_container_bytes_ignore_the_hash_seed():
    first = _digests("0")
    assert len(first.splitlines()) == 2
    assert _digests("1") == first
