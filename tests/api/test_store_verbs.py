"""The uniform verb surface across all four store kinds."""

import pytest

from repro import api
from repro.api import errors
from repro.trace.trace import Trace


class TestPackets:
    def test_tsh_packets_match_trace(self, tsh_path):
        with api.open(tsh_path) as store:
            replayed = list(store.packets())
        assert replayed == Trace.load_tsh(tsh_path).packets

    def test_pcap_packets_match_trace(self, pcap_path, trace):
        with api.open(pcap_path) as store:
            replayed = list(store.packets())
        assert [p.dst_ip for p in replayed] == [p.dst_ip for p in trace.packets]

    def test_container_replay_matches_batch(self, fctc_path):
        from repro.core import decompress_trace, deserialize_compressed

        batch = decompress_trace(
            deserialize_compressed(fctc_path.read_bytes())
        ).packets
        with api.open(fctc_path) as store:
            assert list(store.packets()) == batch

    def test_archive_replay_is_time_ordered(self, fctca_path):
        with api.open(fctca_path) as store:
            timestamps = [p.timestamp for p in store.packets()]
        assert timestamps == sorted(timestamps)

    def test_filtered_container_replay_subset(self, fctc_path):
        predicate = api.TimeRange(0.0, 1.0)
        with api.open(fctc_path) as store:
            full = list(store.packets())
            filtered = list(store.packets(predicate))
        assert 0 < len(filtered) < len(full)
        # Filtering skips flows; survivors are byte-identical packets.
        full_keys = {(p.timestamp, p.seq, p.src_port, p.dst_ip) for p in full}
        assert all(
            (p.timestamp, p.seq, p.src_port, p.dst_ip) in full_keys
            for p in filtered
        )


class TestFlowsAndQuery:
    def test_flows_uniform_across_kinds(self, tsh_path, fctc_path, fctca_path):
        counts = {}
        for path in (tsh_path, fctc_path, fctca_path):
            with api.open(path) as store:
                rows = list(store.flows())
            assert all(isinstance(row, api.FlowSummary) for row in rows)
            counts[path.suffix] = len(rows)
        # tsh and fctc see the same single-segment flow count; the
        # archive splits flows at rotation bounds so it can only grow.
        assert counts[".tsh"] == counts[".fctc"]
        assert counts[".fctca"] >= counts[".fctc"]

    def test_query_respects_predicate_and_limit(self, fctca_path):
        predicate = api.FlowKind("short")
        with api.open(fctca_path) as store:
            everything = store.query()
            shorts = store.query(predicate)
            capped = store.query(predicate, limit=3)
        assert 0 < len(shorts.flows) <= len(everything.flows)
        assert len(capped.flows) == 3
        assert capped.stats.flows_matched == 3

    def test_archive_query_prunes_segments(self, fctca_path):
        with api.open(fctca_path) as store:
            result = store.query(api.TimeRange(0.0, 0.5))
        assert result.stats.segments_decoded < result.stats.segments_total

    def test_trace_query_counts_stats(self, tsh_path):
        with api.open(tsh_path) as store:
            result = store.query(api.FlowKind("short"))
        assert result.stats.flows_scanned >= result.stats.flows_matched > 0


class TestCompress:
    def test_read_chunking_never_changes_bytes(self, tmp_path, tsh_path):
        default, chunked = tmp_path / "d.fctc", tmp_path / "c.fctc"
        with api.open(tsh_path) as store:
            store.compress(default)
            store.compress(
                chunked, options=api.Options.make(chunk_packets=7)
            )
        assert default.read_bytes() == chunked.read_bytes()

    def test_backend_roundtrip(self, tmp_path, tsh_path):
        out = tmp_path / "z.fctc"
        with api.open(tsh_path) as store:
            report = store.compress(
                out, options=api.Options.make(backend="zlib")
            )
        assert report.compressed_bytes == out.stat().st_size
        with api.open(out) as store:
            backends = {section.backend for section in store.sections()}
        assert "zlib" in backends

    def test_trace_to_archive_by_suffix(self, tmp_path, tsh_path):
        out = tmp_path / "direct.fctca"
        with api.open(tsh_path) as store:
            report = store.compress(
                out, options=api.Options.make(segment_span=1.0)
            )
        assert isinstance(report, api.ArchiveBuildReport)
        assert report.segments_written > 1
        with api.open(out) as store:
            assert store.kind.value == "archive"

    def test_container_default_rewrite_preserves_backends(
        self, tmp_path, tsh_path
    ):
        encoded = tmp_path / "enc.fctc"
        with api.open(tsh_path) as store:
            store.compress(encoded, options=api.Options.make(backend="zlib"))
        rewritten = tmp_path / "rewritten.fctc"
        with api.open(encoded) as store:
            store.compress(rewritten)  # default options: faithful rewrite
        assert [s.backend for s in api.container_sections(rewritten)] == [
            s.backend for s in api.container_sections(encoded)
        ]
        assert rewritten.read_bytes() == encoded.read_bytes()

    def test_container_transcode_preserves_datasets(self, tmp_path, fctc_path):
        out = tmp_path / "re.fctc"
        with api.open(fctc_path) as store:
            store.compress(out, options=api.Options.make(backend="bz2"))
            original_flows = store.compressed.flow_count()
        with api.open(out) as store:
            assert store.compressed.flow_count() == original_flows

    def test_archive_reencode(self, tmp_path, fctca_path):
        out = tmp_path / "re.fctca"
        with api.open(fctca_path) as source:
            report = source.compress(
                out, options=api.Options.make(backend="zlib")
            )
            assert report.segments_written == source.reader.segment_count
        assert out.stat().st_size < fctca_path.stat().st_size


class TestExportAppendFilter:
    def test_export_decompress(self, tmp_path, fctc_path):
        out = tmp_path / "restored.tsh"
        with api.open(fctc_path) as store:
            result = store.export(out)
        assert result.packets == len(Trace.load_tsh(out))

    def test_export_convert(self, tmp_path, tsh_path, trace):
        out = tmp_path / "converted.pcap"
        with api.open(tsh_path) as store:
            result = store.export(out)
        assert result.format == "pcap"
        assert len(Trace.load_pcap(out)) == len(trace)

    def test_append_grows_archive(self, tmp_path, tsh_path, fctca_path):
        grown = tmp_path / "grown.fctca"
        grown.write_bytes(fctca_path.read_bytes())
        with api.open(grown) as store:
            before = store.reader.segment_count
            report = store.append([tsh_path])
            # The session sees the appended segments immediately.
            assert store.reader.segment_count == report.segments_total
        assert report.segments_total > before

    def test_filter_writes_subarchive(self, tmp_path, fctca_path):
        out = tmp_path / "window.fctca"
        with api.open(fctca_path) as store:
            written, stats = store.filter(out, api.TimeRange(0.0, 1.0))
        assert 0 < written < stats.segments_total
        with api.open(out) as store:
            assert store.reader.segment_count == written


class TestCapabilities:
    def test_append_on_trace_file(self, tsh_path):
        with pytest.raises(errors.CapabilityError) as excinfo:
            api.open(tsh_path).append([tsh_path])
        assert "archive" in str(excinfo.value)

    def test_window_probe_on_container(self, fctc_path):
        # stats()/matrices() reach containers now; the index-backed
        # window probe still needs an archive footer.
        with pytest.raises(errors.CapabilityError):
            api.open(fctc_path).window_probe(4)

    def test_model_on_archive(self, fctca_path):
        with api.open(fctca_path) as store:
            with pytest.raises(errors.CapabilityError):
                store.model()

    def test_fidelity_on_container(self, fctc_path):
        with pytest.raises(errors.CapabilityError):
            api.open(fctc_path).fidelity()

    def test_filtered_replay_not_on_raw_traces(self, tsh_path):
        with pytest.raises(errors.CapabilityError):
            api.open(tsh_path).packets(api.MatchAll())

    def test_stats_only_replay_fills_stats(self, fctca_path, fctc_path):
        # Passing stats without a predicate must still account the work,
        # never silently return zeros.
        for path in (fctca_path, fctc_path):
            stats = api.QueryStats()
            with api.open(path) as store:
                emitted = sum(1 for _ in store.packets(stats=stats))
            assert emitted > 0
            assert stats.flows_matched == stats.flows_scanned > 0

    def test_stats_rejected_on_raw_traces(self, tsh_path):
        with pytest.raises(errors.CapabilityError):
            api.open(tsh_path).packets(stats=api.QueryStats())


class TestFidelity:
    def test_trace_file_scores_its_own_roundtrip(self, tsh_path, trace):
        with api.open(tsh_path) as store:
            score = store.fidelity()
        assert score.packets == len(trace)
        assert score.seed == 0  # captures have no generator seed
        assert 0.0 < score.ratio < 1.0
        assert score.flow_size_ks == 0.0

    def test_options_reach_the_scored_container(self, tsh_path):
        with api.open(tsh_path) as store:
            raw = store.fidelity()
            coded = store.fidelity(
                options=api.Options.make(backend="zlib")
            )
        # Same trace either way; only the container size may move.
        assert coded.packets == raw.packets
        assert coded.compressed_bytes < raw.compressed_bytes


class TestInfo:
    def test_info_headline_fields(self, tsh_path, fctc_path, fctca_path, trace):
        with api.open(tsh_path) as store:
            assert store.info().packets == len(trace)
        with api.open(fctc_path) as store:
            info = store.info()
            assert info.packets == len(trace)
            assert info.flows == store.compressed.flow_count()
        with api.open(fctca_path) as store:
            info = store.info()
            assert info.packets == len(trace)
            assert info.flows == store.reader.flow_count()

    def test_container_detail_lines_cover_sections(self, fctc_path):
        with api.open(fctc_path) as store:
            text = "\n".join(store.info().summary_lines())
        assert "short templates" in text
        assert "time_seq" in text
        assert "stored sections" in text
