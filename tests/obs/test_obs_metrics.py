"""Unit tests for the metric primitives and the registry."""

import pickle
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    current,
    get_registry,
    scoped,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_arithmetic(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(3.0)
        assert gauge.value == 4.0

    def test_set_max_only_raises(self):
        gauge = Gauge("g")
        gauge.set_max(10.0)
        gauge.set_max(3.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 555.5
        buckets = dict(histogram.buckets())
        assert buckets[1.0] == 1
        assert buckets[10.0] == 2
        assert buckets[100.0] == 3
        assert buckets[float("inf")] == 4

    def test_implicit_inf_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        assert histogram.bounds[-1] == float("inf")

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10.0, 1.0))

    def test_default_buckets(self):
        assert Histogram("h").bounds == DEFAULT_BUCKETS


class TestTimer:
    def test_observe_tracks_count_total_extrema(self):
        timer = Timer("t")
        timer.observe(2.0)
        timer.observe(1.0)
        timer.observe(4.0)
        assert timer.count == 3
        assert timer.total_seconds == 7.0
        assert timer.min_seconds == 1.0
        assert timer.max_seconds == 4.0

    def test_min_is_zero_before_any_observation(self):
        assert Timer("t").min_seconds == 0.0

    def test_time_context_manager_records_elapsed(self):
        timer = Timer("t")
        with timer.time() as stage:
            pass
        assert timer.count == 1
        assert stage.elapsed >= 0.0
        assert timer.total_seconds == pytest.approx(stage.elapsed)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_iteration_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert [metric.name for metric in registry] == ["a", "b"]

    def test_value_lookup_with_default(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        assert registry.value("a") == 3
        assert registry.value("missing", default=-1) == -1

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert len(registry) == 0

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(100)
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(1.0)
        with registry.timer("t").time():
            pass
        assert len(registry) == 0
        assert registry.snapshot().metrics == {}

    def test_thread_safe_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(10)
        registry.gauge("g").set_max(7.0)
        registry.histogram("h", bounds=(1.0, 10.0)).observe(5.0)
        registry.timer("t").observe(2.0)
        return registry

    def test_snapshot_is_picklable(self):
        snapshot = self._populated().snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.metrics == snapshot.metrics

    def test_counters_helper(self):
        snapshot = self._populated().snapshot()
        assert snapshot.counters() == {"c": 10}


class TestScoping:
    def test_default_is_process_registry(self):
        assert current() is get_registry()

    def test_scoped_registry_wins_and_unwinds(self):
        registry = MetricsRegistry()
        with scoped(registry) as installed:
            assert installed is registry
            assert current() is registry
            inner = MetricsRegistry()
            with scoped(inner):
                assert current() is inner
            assert current() is registry
        assert current() is get_registry()

    def test_scoped_none_disables(self):
        with scoped(None) as registry:
            assert not registry.enabled
            current().counter("nope").inc()
            assert len(registry) == 0
