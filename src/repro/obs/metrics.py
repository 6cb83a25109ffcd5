"""Metric primitives and the process-local registry.

Design constraints, in order:

1. **Near-zero hot-path overhead.**  Instrumented code records at
   *chunk* / *flow-close* / *segment* granularity, never per packet, and
   a metric handle is one dict lookup away (cache it in a local for
   loops).  When collection is disabled every factory returns a shared
   no-op metric, so a disabled run costs one attribute check per chunk.
2. **Thread safety.**  Every mutation takes the metric's lock — at chunk
   granularity the contention is unmeasurable, and counters can never
   lose increments under concurrent feeds.
3. **Plain-data snapshots.**  :meth:`MetricsRegistry.snapshot`
   returns a picklable copy of every metric's state, taken under the
   registry lock, so a reader sees one consistent instant.

The active registry is resolved dynamically (:func:`current`): the
process-wide default unless a :func:`scoped` registry is installed for
the calling context (a ``contextvars`` context, so threads and asyncio
tasks scope independently).  ``REPRO_NO_METRICS=1`` disables the
default registry at import time — the benchmark overhead guard's
baseline.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "StageTimer",
    "Timer",
    "current",
    "get_registry",
    "scoped",
    "set_enabled",
]

DEFAULT_BUCKETS = (
    1.0,
    8.0,
    64.0,
    512.0,
    4096.0,
    8192.0,
    65536.0,
    float("inf"),
)
"""Default histogram bounds — sized for packet-per-chunk distributions."""


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def state(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value with an optional high-water mode.

    ``set`` records the latest value; ``set_max`` only ever raises it —
    the natural mode for working-set high-water marks.
    """

    kind = "gauge"
    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bounds`` are upper bucket bounds; an implicit ``+Inf`` bucket is
    appended when missing, so every observation lands somewhere.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self, name: str, help: str = "", bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if not bounds:
            bounds = DEFAULT_BUCKETS
        if bounds != tuple(sorted(bounds)):
            raise ValueError(f"histogram {name}: bounds must be sorted: {bounds}")
        if bounds[-1] != float("inf"):
            bounds = (*bounds, float("inf"))
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative (bound, count<=bound) pairs, Prometheus-style."""
        total = 0
        out = []
        for bound, count in zip(self.bounds, self._counts):
            total += count
            out.append((bound, total))
        return out

    def state(self) -> tuple:
        return (self.bounds, tuple(self._counts), self._sum, self._count)


class Timer:
    """Accumulated wall time of a named stage (count/total/min/max)."""

    kind = "timer"
    __slots__ = ("name", "help", "_lock", "_count", "_total", "_min", "_max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._count += 1
            self._total += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    def time(self) -> "StageTimer":
        """A context manager observing the block's wall time."""
        return StageTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_seconds(self) -> float:
        return self._total

    @property
    def min_seconds(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max_seconds(self) -> float:
        return self._max

    def state(self) -> tuple:
        return (self._count, self._total, self._min, self._max)


class StageTimer:
    """``with registry.timer("stage.decode").time():`` — wall-clock a stage.

    Reusable and re-entrant-per-instance is *not* supported (one timing
    in flight per instance); create one per ``with`` via
    :meth:`Timer.time`.  ``elapsed`` holds the last measured duration.
    """

    __slots__ = ("_timer", "_start", "elapsed")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._timer.observe(self.elapsed)


class _NullMetric:
    """The shared do-nothing metric a disabled registry hands out."""

    kind = "null"
    name = ""
    help = ""
    bounds = DEFAULT_BUCKETS
    value = 0
    count = 0
    sum = 0.0
    total_seconds = 0.0
    min_seconds = 0.0
    max_seconds = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "StageTimer":
        return StageTimer(_NULL_TIMER)

    def buckets(self) -> list[tuple[float, int]]:
        return []


_NULL_METRIC = _NullMetric()
_NULL_TIMER = Timer("null")  # sink for StageTimer on the null path


@dataclass(frozen=True)
class MetricsSnapshot:
    """A picklable copy of a registry's state at one instant.

    ``metrics`` maps name → (kind, state); states are the plain values
    each metric's ``state()`` returns.
    """

    metrics: dict[str, tuple[str, object]] = field(default_factory=dict)

    def counters(self) -> dict[str, int]:
        return {
            name: state
            for name, (kind, state) in self.metrics.items()
            if kind == "counter"
        }


_METRIC_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "timer": Timer,
}


class MetricsRegistry:
    """A named collection of metrics; the unit of scoping and snapshotting.

    Metric factories are get-or-create and type-checked: asking for an
    existing name with a different kind raises, so two subsystems can
    never fight over one name.  With ``enabled=False`` every factory
    returns the shared no-op metric — the only overhead left in
    instrumented code is the factory call itself.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    # -- factories ---------------------------------------------------------

    def _get(self, kind: str, name: str, help: str, **kwargs):
        if not self.enabled:
            return _NULL_METRIC
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _METRIC_TYPES[kind](name, help, **kwargs)
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}"
                )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get("counter", name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get("gauge", name, help)

    def histogram(
        self, name: str, help: str = "", bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get("histogram", name, help, bounds=bounds)

    def timer(self, name: str, help: str = "") -> Timer:
        return self._get("timer", name, help)

    # -- introspection -----------------------------------------------------

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        """The registered metric, or None — for tests and reports."""
        return self._metrics.get(name)

    def value(self, name: str, default=0):
        """A counter/gauge's value by name (default when unregistered)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                metrics={
                    name: (metric.kind, metric.state())
                    for name, metric in self._metrics.items()
                }
            )

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


# -- the process-local default and context scoping ---------------------------

_DEFAULT = MetricsRegistry(
    enabled=not os.environ.get("REPRO_NO_METRICS")
)
_DISABLED = MetricsRegistry(enabled=False)
_ACTIVE: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_registry", default=None
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what a ``/metrics`` endpoint serves)."""
    return _DEFAULT


def current() -> MetricsRegistry:
    """The registry instrumented code should record into *right now*."""
    active = _ACTIVE.get()
    return _DEFAULT if active is None else active


@contextmanager
def scoped(registry: MetricsRegistry | None = None):
    """Route this context's instrumentation into ``registry``.

    ``None`` installs a disabled registry — the "metrics off" scope.
    Yields the installed registry.  Scopes nest; threads started inside
    a scope copy it (``contextvars`` semantics).
    """
    registry = _DISABLED if registry is None else registry
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def set_enabled(enabled: bool) -> None:
    """Turn the process-default registry on or off (scoped ones are explicit)."""
    _DEFAULT.enabled = enabled
