"""The per-reader segment view cache: differential, bounded, failure-safe.

One long-lived :class:`~repro.api.store.ArchiveStore` serves a seeded
random interleaving of queries, index-path stats and appends from its
view cache; every answer must equal the same call on a freshly opened
store over a copy of the file, and every stats report the windows of
the uncached ``method="decode"`` baseline.  The same run repeats with the cache
bound forced below the archive's flow count, so views are evicted and
re-decoded mid-session.
"""

from __future__ import annotations

import random
import re
import shutil
from pathlib import Path

import pytest

import repro
import repro.archive.reader as archive_reader
from repro.api import Options
from repro.api.errors import CorruptInputError
from repro.archive import ArchiveReader
from repro.core.decompressor import DecompressorConfig
from repro.net.ip import format_ipv4
from repro.obs import MetricsRegistry, scoped
from repro.query import (
    DestinationAddress,
    DestinationPrefix,
    FlowKind,
    MatchAll,
    QueryEngine,
    TimeRange,
)
from repro.query.engine import SegmentView

OPTIONS = Options.make(segment_span=1.0)
HEAD_SECONDS = 8.0
CAPTURES = 3
DOCS = Path(__file__).resolve().parents[2] / "docs"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A head archive of ~8 one-second segments plus three later captures."""
    from repro.synth import generate_web_trace
    from repro.trace.export import export_packet_stream

    workdir = tmp_path_factory.mktemp("views")
    trace = generate_web_trace(duration=14.0, flow_rate=30.0, seed=21)
    origin = trace.packets[0].timestamp
    head, tail = [], [[] for _ in range(CAPTURES)]
    span = (14.0 - HEAD_SECONDS) / CAPTURES
    for packet in trace.packets:
        offset = packet.timestamp - origin
        if offset < HEAD_SECONDS:
            head.append(packet)
        else:
            slot = min(int((offset - HEAD_SECONDS) // span), CAPTURES - 1)
            tail[slot].append(packet)
    export_packet_stream(iter(head), workdir / "head.tsh")
    captures = []
    for index, packets in enumerate(tail):
        captures.append(workdir / f"capture-{index}.tsh")
        export_packet_stream(iter(packets), captures[-1])
    repro.api.create_archive(
        workdir / "head.fctca", [workdir / "head.tsh"], options=OPTIONS
    )
    with repro.open(workdir / "head.fctca") as store:
        destinations = sorted({flow.destination for flow in store.query().flows})
    return workdir, captures, destinations


def fresh(path: Path, copy: Path):
    shutil.copyfile(path, copy)
    return repro.open(copy, options=OPTIONS)


def fresh_call(path: Path, copy: Path, call):
    """``call(store)`` on a new store over a copy, outside the metrics."""
    with scoped(None), fresh(path, copy) as store:
        return call(store)


def report_key(report) -> dict:
    document = report.to_dict()
    document.pop("source")
    return document


def draw_predicate(rng: random.Random, destinations: list[int], latest: float):
    start = rng.uniform(0.0, latest)
    choices = [
        TimeRange(start, start + rng.uniform(0.2, 3.0)),
        DestinationAddress(rng.choice(destinations)),
        DestinationPrefix(f"{format_ipv4(rng.choice(destinations))}/16"),
        FlowKind(rng.choice(["short", "long"])),
        ~DestinationAddress(rng.choice(destinations)),
        TimeRange(start, start + 2.0) & ~FlowKind("long"),
        MatchAll(),
    ]
    return rng.choice(choices)


def run_session(workdir: Path, captures, destinations, seed: int, bound=None):
    """Interleave calls on one store; check each against a fresh open."""
    path = workdir / f"session-{seed}.fctca"
    copy = workdir / f"fresh-{seed}.fctca"
    shutil.copyfile(workdir / "head.fctca", path)
    rng = random.Random(seed)
    pending = list(captures)
    calls = {"query": 0, "stats": 0, "append": 0}
    registry = MetricsRegistry()
    with scoped(registry), repro.open(path, options=OPTIONS) as store:
        for _ in range(60):
            kind = rng.choices(
                ["query", "stats", "append"], weights=[6, 3, 1 if pending else 0]
            )[0]
            calls[kind] += 1
            if kind == "append":
                store.append([pending.pop(0)])
                continue
            latest = store.reader.time_bounds()[1]
            if kind == "query":
                predicate = draw_predicate(rng, destinations, latest)
                limit = rng.choice([None, None, 1, 5, 40])
                got = store.query(predicate, limit=limit)
                want = fresh_call(
                    path, copy, lambda other: other.query(predicate, limit=limit)
                )
                assert got.flows == want.flows, predicate
                assert got.stats == want.stats, predicate
            else:
                since = rng.uniform(0.0, latest)
                until = since + rng.uniform(1.0, 6.0)
                got = store.stats(window=1.0, since=since, until=until)
                want = fresh_call(
                    path,
                    copy,
                    lambda other: other.stats(window=1.0, since=since, until=until),
                )
                assert report_key(got) == report_key(want), (since, until)
                # The independent full-synthesis path gives the same windows.
                baseline = fresh_call(
                    path,
                    copy,
                    lambda other: other.stats(
                        window=1.0, since=since, until=until, method="decode"
                    ),
                )
                assert got.windows == baseline.windows, (since, until)
            if bound is not None:
                assert store.reader.cached_flows <= bound
    assert all(calls.values()), calls
    return registry.snapshot().counters()


class TestDifferential:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_long_lived_store_matches_fresh_opens(self, inputs, seed):
        workdir, captures, destinations = inputs
        counters = run_session(workdir, captures, destinations, seed)
        assert counters["archive.segment_cache.hits"] > 0
        assert counters.get("archive.segment_cache.evictions", 0) == 0

    def test_forced_evictions_stay_exact_and_bounded(self, inputs, monkeypatch):
        workdir, captures, destinations = inputs
        with repro.open(workdir / "head.fctca") as store:
            flows = store.reader.flow_count()
        bound = flows // 3
        monkeypatch.setattr(archive_reader, "VIEW_CACHE_FLOWS", bound)
        counters = run_session(workdir, captures, destinations, 3, bound=bound)
        assert counters["archive.segment_cache.evictions"] > 0


class TestCache:
    def test_repeat_query_decodes_nothing_new(self, inputs):
        workdir, _captures, _destinations = inputs
        with repro.open(workdir / "head.fctca", options=OPTIONS) as store:
            first = store.query(MatchAll())
            decoded = store.reader.segments_decoded
            assert decoded == store.reader.segment_count
            again = store.query(MatchAll())
            # Same answer and accounting, with no further real decode.
            assert again.flows == first.flows
            assert again.stats == first.stats
            assert store.reader.segments_decoded == decoded

    def test_stats_reuses_the_query_views_after_one_records_decode(self, inputs):
        workdir, _captures, _destinations = inputs
        with repro.open(workdir / "head.fctca", options=OPTIONS) as store:
            store.query(MatchAll())
            count = store.reader.segment_count
            first = store.stats(window=1.0)
            # Records for the store's config came from the query's decode...
            assert store.reader.segments_decoded == count
            second = store.stats(window=1.0)
            # ...and every later call reads them from the cache.
            assert store.reader.segments_decoded == count
            assert report_key(first) == report_key(second)
            assert first.segments_decoded == count

    def test_analyst_schedule_decodes_each_segment_state_once(self, inputs, tmp_path):
        """Queries, an append, stats and destination queries on one store.

        Every segment state a call touches — an index survivor, keyed
        by its index entry, which an append leaves unchanged — decodes
        exactly once, whichever call touched it first.
        """
        workdir, captures, destinations = inputs
        path = tmp_path / "a.fctca"
        shutil.copyfile(workdir / "head.fctca", path)
        registry = MetricsRegistry()
        touched: set = set()
        decoded = 0
        with scoped(registry), repro.open(path, options=OPTIONS) as store:

            def touch(predicate) -> None:
                for index, entry in enumerate(store.reader.entries):
                    if predicate.match_segment(entry):
                        touched.add((index, entry))

            def query(predicate) -> None:
                store.query(predicate)
                touch(predicate)

            def stats(since: float, until: float) -> None:
                store.stats(window=1.0, since=since, until=until)
                touch(TimeRange(since, until))

            query(TimeRange(1.0, 3.0))
            query(DestinationAddress(destinations[0]))
            stats(0.0, 4.0)
            decoded += store.reader.segments_decoded
            store.append([captures[0]])
            latest = store.reader.time_bounds()[1]
            stats(2.0, latest)
            query(TimeRange(latest - 2.0, latest))
            query(DestinationAddress(destinations[-1]))
            stats(0.0, latest)
            query(MatchAll())
            decoded += store.reader.segments_decoded
        assert decoded == len(touched)
        assert registry.snapshot().counters()["archive.segments_decoded"] == len(
            touched
        )

    def test_records_are_cached_per_config(self, inputs):
        workdir, _captures, _destinations = inputs
        configs = [DecompressorConfig(), DecompressorConfig(seed=7)]
        expected = []
        for config in configs:
            with ArchiveReader(workdir / "head.fctca") as reader:
                expected.append(
                    list(QueryEngine(reader).iter_flow_records(config=config))
                )
        assert expected[0] != expected[1]  # the seed moves the sources
        with ArchiveReader(workdir / "head.fctca") as reader:
            engine = QueryEngine(reader)
            for _ in range(2):
                for config, want in zip(configs, expected):
                    assert list(engine.iter_flow_records(config=config)) == want
            # One decode per segment and config, none on the second pass.
            assert reader.segments_decoded == 2 * reader.segment_count

    def test_views_share_one_summary_between_orders(self, inputs):
        workdir, _captures, _destinations = inputs
        with repro.open(workdir / "head.fctca", options=OPTIONS) as store:
            config = store.options.decompressor
            view = store.reader.segment_view(0, SegmentView, config)
            pairs = list(view.records(config))
            assert {id(flow) for _record, flow in pairs} == {
                id(flow) for flow in view.flows
            }
            for record, flow in pairs:
                assert record.start == pytest.approx(flow.timestamp, abs=1e-4)
                assert record.dst == flow.destination

    def test_append_keeps_the_views_of_unchanged_segments(self, inputs, tmp_path):
        workdir, captures, _destinations = inputs
        path = tmp_path / "a.fctca"
        shutil.copyfile(workdir / "head.fctca", path)
        with repro.open(path, options=OPTIONS) as store:
            store.query(MatchAll())
            before = store.reader.segment_count
            store.append([captures[0]])
            assert store.reader.segments_decoded == 0
            assert store.reader.cached_flows == sum(
                entry.flow_count for entry in store.reader.entries[:before]
            )
            store.query(MatchAll())
            # Only the appended segments decode.
            assert store.reader.segments_decoded == store.reader.segment_count - before

    def test_oversized_segment_is_served_but_not_cached(self, inputs, monkeypatch):
        workdir, _captures, _destinations = inputs
        monkeypatch.setattr(archive_reader, "VIEW_CACHE_FLOWS", 0)
        with repro.open(workdir / "head.fctca", options=OPTIONS) as store:
            first = store.query(MatchAll())
            second = store.query(MatchAll())
            assert first.flows == second.flows
            assert store.reader.cached_flows == 0
            assert store.reader.segments_decoded == 2 * store.reader.segment_count


class TestFailures:
    def test_corrupt_segment_raises_every_time_and_caches_nothing(
        self, inputs, tmp_path
    ):
        workdir, _captures, _destinations = inputs
        path = tmp_path / "corrupt.fctca"
        shutil.copyfile(workdir / "head.fctca", path)
        with repro.open(path) as store:
            bad = 2
            entry = store.reader.entries[bad]
        data = bytearray(path.read_bytes())
        data[entry.offset : entry.offset + 8] = b"\xff" * 8
        path.write_bytes(bytes(data))
        with repro.open(path, options=OPTIONS) as store:
            # Only the segments before the bad one decode and stay cached.
            healthy = sum(entry.flow_count for entry in store.reader.entries[:bad])
            for _ in range(3):
                with pytest.raises(CorruptInputError):
                    store.query(MatchAll())
                with pytest.raises(CorruptInputError):
                    store.stats(window=1.0)
                assert store.reader.cached_flows == healthy

    def test_failed_append_leaves_a_store_equal_to_a_fresh_open(
        self, inputs, tmp_path
    ):
        workdir, captures, _destinations = inputs
        path = tmp_path / "a.fctca"
        shutil.copyfile(workdir / "head.fctca", path)

        def failing_feed():
            with repro.open(captures[0]) as capture:
                for count, packet in enumerate(capture.packets()):
                    if count == 600:
                        raise RuntimeError("capture source died")
                    yield packet

        with repro.open(path, options=OPTIONS) as store:
            store.query(MatchAll())
            store.stats(window=1.0)
            with pytest.raises(RuntimeError):
                store.append(failing_feed())
            got_flows = store.query(MatchAll())
            got_stats = store.stats(window=1.0)
            with fresh(path, tmp_path / "copy.fctca") as other:
                assert got_flows.flows == other.query(MatchAll()).flows
                assert got_flows.stats == other.query(MatchAll()).stats
                assert report_key(got_stats) == report_key(other.stats(window=1.0))


def catalog_patterns() -> list[re.Pattern]:
    """Counter names from the OBSERVABILITY.md catalog table, as patterns.

    A cell lists names in backticks; a name starting with ``.`` extends
    the previous name's prefix, and ``<placeholder>`` matches one label.
    """
    text = (DOCS / "OBSERVABILITY.md").read_text()
    section = text.split("Counters (monotonic totals):", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    patterns = []
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        previous = ""
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if name.startswith("."):
                name = previous.rsplit(".", 1)[0] + name
            previous = name
            parts = re.split(r"<[^>]+>", name)
            patterns.append(
                re.compile("[^.]+".join(re.escape(part) for part in parts) + "$")
            )
    return patterns


class TestObservability:
    def test_query_and_stats_emit_only_cataloged_counters(self, inputs, tmp_path):
        workdir, captures, destinations = inputs
        path = tmp_path / "a.fctca"
        shutil.copyfile(workdir / "head.fctca", path)
        registry = MetricsRegistry()
        with scoped(registry), repro.open(path, options=OPTIONS) as store:
            store.query(TimeRange(1.0, 3.0))
            store.query(DestinationAddress(destinations[0]), limit=2)
            store.stats(window=1.0, since=0.0, until=4.0)
            store.stats(window=1.0)
            store.append([captures[0]])
            store.query(MatchAll())
        counters = registry.snapshot().counters()
        for name in (
            "archive.segment_cache.hits",
            "archive.segment_cache.misses",
            "archive.segments_decoded",
        ):
            assert name in counters
        patterns = catalog_patterns()
        unknown = [
            name
            for name in counters
            if not any(pattern.match(name) for pattern in patterns)
        ]
        assert unknown == []

    def test_decode_counter_counts_real_decodes_only(self, inputs):
        workdir, _captures, _destinations = inputs
        registry = MetricsRegistry()
        with scoped(registry), repro.open(
            workdir / "head.fctca", options=OPTIONS
        ) as store:
            store.query(MatchAll())
            store.query(MatchAll())
            count = store.reader.segment_count
        counters = registry.snapshot().counters()
        assert counters["archive.segments_decoded"] == count
        assert counters["archive.segment_cache.misses"] == count
        assert counters["archive.segment_cache.hits"] == count
        assert counters["query.segments_decoded"] == 2 * count
