"""Shared benchmark fixtures: fixed workloads, built once per session."""

from __future__ import annotations

import pytest

from repro.api import roundtrip
from repro.experiments.common import ExperimentConfig
from repro.synth import generate_web_trace
from repro.trace.trace import Trace

BENCH_DURATION = 15.0
BENCH_FLOW_RATE = 40.0
BENCH_SEED = 1


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration all benches share."""
    return ExperimentConfig(
        duration=BENCH_DURATION, flow_rate=BENCH_FLOW_RATE, seed=BENCH_SEED,
        tolerance_scale=2.0,
    )


@pytest.fixture(scope="session")
def bench_trace() -> Trace:
    """A ~9k-packet Web trace."""
    return generate_web_trace(
        duration=BENCH_DURATION, flow_rate=BENCH_FLOW_RATE, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def bench_decompressed(bench_trace: Trace) -> Trace:
    """The decompressed twin of the benchmark trace."""
    decompressed, _report = roundtrip(bench_trace)
    return decompressed
