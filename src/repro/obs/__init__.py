"""repro.obs — the always-compiled-in instrumentation subsystem.

The paper's argument is quantitative — ratio and throughput per
pipeline stage — and this package makes those numbers observable at
runtime instead of only in benchmarks.  Three layers:

* **Primitives** (:mod:`repro.obs.metrics`): :class:`Counter`,
  :class:`Gauge`, :class:`Histogram`, :class:`Timer` +
  :class:`StageTimer`, collected in a thread-safe
  :class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot` is
  a picklable point-in-time copy.
* **Run reports** (:mod:`repro.obs.report`): :class:`RunReport`, a
  structured JSON document of everything one run measured —
  ``store.compress(..., report=True)`` and the CLI's
  ``--metrics`` / ``--metrics-out`` flags produce these.
* **Exposition** (:mod:`repro.obs.prometheus`):
  :func:`render_prometheus` turns a registry into the Prometheus text
  format, so a daemon can serve ``/metrics`` unchanged.

Instrumented library code records into :func:`current` — the process
default unless a :func:`scoped` registry is installed.  Collection
granularity is chunks / flow closes / segments, never packets, so the
overhead is held within the benchmark guard's 5 % budget
(``benchmarks/bench_smoke.py``); ``REPRO_NO_METRICS=1`` or
:func:`set_enabled` turn even that off.

Metric catalog and naming rules: ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    StageTimer,
    Timer,
    current,
    get_registry,
    scoped,
    set_enabled,
)
from repro.obs.prometheus import metric_name, render_prometheus
from repro.obs.report import RUN_REPORT_SCHEMA, RunReport, record_run

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "StageTimer",
    "Timer",
    "current",
    "get_registry",
    "metric_name",
    "record_run",
    "render_prometheus",
    "scoped",
    "set_enabled",
]
