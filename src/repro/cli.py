"""``repro-trace`` — the command-line face of the library.

Every subcommand is a thin caller of the :mod:`repro.api` façade — the
CLI holds argument parsing and printing, nothing else, so CLI and
library behavior cannot diverge.  Subcommands (full reference in
``docs/CLI.md``)::

    repro-trace generate out.tsh --duration 100 --rate 40 --seed 1
    repro-trace generate out.tsh --scenario flood     (--list-scenarios for names)
    repro-trace fidelity [--scenario NAME ...] [--duration 10] [--out report.json]
    repro-trace compress in.tsh out.fctc [--chunk-size 8192] [--backend auto]
    repro-trace decompress in.fctc out.tsh
    repro-trace replay day.fctca out.tsh [--since 10 --dst a.b.c.d ...]
    repro-trace stats in.tsh
    repro-trace inspect in.fctc [--addresses]
    repro-trace convert in.tsh out.pcap
    repro-trace synthesize in.tsh out.tsh --scale 2
    repro-trace anonymize in.tsh out.tsh --key secret
    repro-trace compare a.tsh b.tsh
    repro-trace archive build day.fctca in1.tsh in2.tsh --segment-span 60 [--backend zlib]
    repro-trace archive append day.fctca in3.tsh
    repro-trace archive info day.fctca
    repro-trace query day.fctca --since 10 --until 60 --dst 192.168.0.80
    repro-trace serve day.fctca --source unix:/run/repro.sock --source tail:/data/live.tsh

Exit codes are uniform across every subcommand:

* ``0`` — success;
* ``1`` — internal error (a bug; set ``REPRO_DEBUG=1`` for the
  traceback);
* ``2`` — usage or data errors the user can fix (bad flags, missing
  files, malformed containers, capacity overflows), reported as a
  one-line ``error: ...`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import repro
from repro import api
from repro.api.errors import ReproError
from repro.core.backends import AUTO, backend_names
from repro.core.errors import CodecError, CompressionError
from repro.net.ip import format_ipv4
from repro.obs import record_run
from repro.trace.reader import DEFAULT_CHUNK_PACKETS

_log = logging.getLogger(__name__)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        for scenario in api.iter_scenarios():
            print(f"{scenario.name:<15s} {scenario.summary}")
        return 0
    if args.output is None:
        _log.error("error: output path required (or pass --list-scenarios)")
        return 2
    result = api.generate(
        args.output,
        duration=args.duration,
        flow_rate=args.rate,
        seed=args.seed,
        scenario=args.scenario,
    )
    print(
        f"wrote {result.packets} packets ({result.size_bytes} B) to {args.output}"
    )
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    options = api.Options.make(backend=args.backend, level=args.level)
    report = api.fidelity(
        args.scenario,
        duration=args.duration,
        flow_rate=args.rate,
        seed=args.seed,
        options=options,
    )
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        report.write(args.out)
        print(f"wrote fidelity report to {args.out}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.chunk_size is not None and args.chunk_size < 1:
        _log.error("error: --chunk-size must be >= 1, got %s", args.chunk_size)
        return 2
    options = api.Options.make(
        backend=args.backend,
        level=args.level,
        chunk_packets=args.chunk_size,
    )
    with api.open(args.input, options=options) as store:
        report = store.compress(args.output, options=options)
    if isinstance(report, api.ArchiveBuildReport):
        print(
            f"wrote {report.segments_written} segments / {report.packets} "
            f"packets to {args.output}"
        )
        return 0
    for line in report.summary_lines():
        print(line)
    if args.backend is not None and args.backend != "raw":
        # Auto may pick a different coder per section — show what
        # landed (framing parse only, no container re-decode).
        picks = " ".join(
            f"{s.name}={s.backend}"
            for s in api.container_sections(args.output)
        )
        print(f"backends        : {picks}")
    return 0


def _require_kind(store, path, allowed: tuple[str, ...], verb: str) -> None:
    """Reject inputs a subcommand's contract excludes, with exit 2.

    The library's ``export`` happily streams a raw trace (that is the
    ``convert`` subcommand), but ``decompress``/``replay`` pointed at an
    uncompressed capture is a user mistake that must not silently
    succeed as a byte copy.
    """
    if store.kind.value not in allowed:
        raise ReproError(
            f"{path}: {verb} takes {' or '.join(allowed)} input, "
            f"not {store.kind.value} (use 'convert' to copy raw traces)"
        )


def _cmd_decompress(args: argparse.Namespace) -> int:
    # Stream the packets straight to disk: byte-identical to the batch
    # decompressor, but peak memory is the concurrent-flow fan-out plus
    # the (compressed) datasets — never the synthetic trace itself.
    with api.open(args.input) as store:
        _require_kind(store, args.input, ("container", "archive"), "decompress")
        result = store.export(args.output)
    print(
        f"wrote {result.packets} packets ({result.size_bytes} B) to {args.output}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    predicate = _build_predicate(args)
    filtered = not isinstance(predicate, api.MatchAll) or args.limit is not None
    with api.open(args.archive) as store:
        _require_kind(store, args.archive, ("archive",), "replay")
        stats = api.QueryStats() if filtered else None
        result = store.export(
            args.output,
            predicate if filtered else None,
            limit=args.limit,
            stats=stats,
        )
        print(
            f"wrote {result.packets} packets ({result.size_bytes} B) "
            f"to {args.output}"
        )
        if stats is not None:
            for line in stats.summary_lines():
                print(line)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    kwargs = {}
    for name, value in (
        ("window", args.window),
        ("since", args.since),
        ("until", args.until),
        ("top_k", args.top),
        ("scan_fanout", args.scan_fanout),
        ("anonymize_key", args.anonymize_key),
        ("method", args.method),
    ):
        if value is not None:
            kwargs[name] = value
    with api.open(args.input) as store:
        stats = store.stats(**kwargs)
    if not isinstance(stats, api.MatrixReport):
        # A raw trace without matrix arguments keeps the legacy
        # packet-level statistics; the matrix flags need a window.
        if args.json or args.out is not None:
            _log.error(
                "error: --json/--out write the matrix report; pass "
                "--window (or a compressed input) to build one"
            )
            return 2
        for line in stats.summary_lines():
            print(line)
        return 0
    if args.out is not None:
        stats.write(args.out)
    if args.json:
        print(stats.to_json())
    else:
        for line in stats.summary_lines():
            print(line)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with api.open(args.input) as store:
        for line in store.info().summary_lines():
            print(line)
        if args.addresses:
            for index, address in enumerate(store.addresses()):
                print(f"  [{index}] {format_ipv4(address)}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    report = api.synthesize(
        args.input,
        args.output,
        scale=args.scale,
        flows=args.flows,
        seed=args.seed,
    )
    print(
        f"fitted {report.templates} templates; "
        f"wrote {report.packets} packets / {report.flows} flows "
        f"({report.size_bytes} B) to {args.output}"
    )
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    result = api.anonymize(args.input, args.output, key=args.key)
    print(
        f"wrote {result.packets} anonymized packets "
        f"({result.size_bytes} B) to {args.output}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = api.compare(args.first, args.second)
    print(comparison.render())
    print()
    print(f"statistically similar: {comparison.statistically_similar()}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    with api.open(args.input) as store:
        result = store.export(args.output)
    if result.format == "pcap":
        print(f"wrote {result.packets} packets to {args.output}")
    else:
        print(
            f"wrote {result.packets} packets ({result.size_bytes} B) "
            f"to {args.output}"
        )
    return 0


def _archive_options(args: argparse.Namespace) -> "api.Options":
    return api.Options.make(
        backend=args.backend,
        level=args.level,
        segment_packets=args.segment_packets,
        segment_span=args.segment_span,
    )


def _cmd_archive_build(args: argparse.Namespace) -> int:
    report = api.create_archive(
        args.output, args.inputs, options=_archive_options(args)
    )
    print(
        f"wrote {report.segments_written} segments / {report.packets} "
        f"packets to {args.output}"
    )
    return 0


def _cmd_archive_append(args: argparse.Namespace) -> int:
    with api.open(args.archive) as store:
        report = store.append(args.inputs, options=_archive_options(args))
    print(
        f"appended {report.segments_written} segments / {report.packets} "
        f"packets to {args.archive} ({report.segments_total} total)"
    )
    return 0


def _cmd_archive_info(args: argparse.Namespace) -> int:
    with api.open(args.archive) as store:
        for line in store.info().summary_lines():
            print(line)
        if args.windows is not None:
            print()
            for line in _window_probe_lines(store.window_probe(args.windows)):
                print(line)
    return 0


def _window_probe_lines(probes) -> list[str]:
    """Render the ``archive info --windows N`` cost-estimate table."""
    header = (
        f"{'window':>7s} {'start':>10s} {'end':>10s} {'segments':>8s} "
        f"{'bytes':>12s} {'flows<=':>8s}"
    )
    lines = [
        "window probe (index only — nothing decoded):",
        header,
        "-" * len(header),
    ]
    for probe in probes:
        lines.append(
            f"{probe.index:>7d} {probe.start:>10.3f} {probe.end:>10.3f} "
            f"{probe.segments_overlapping:>8d} {probe.bytes_to_decode:>12d} "
            f"{probe.flows_upper_bound:>8d}"
        )
    return lines


def _cmd_serve(args: argparse.Namespace) -> int:
    serve_kwargs = {"sources": tuple(args.source)}
    if args.rotate_seconds is not None:
        serve_kwargs["rotate_seconds"] = args.rotate_seconds
    if args.queue_chunks is not None:
        serve_kwargs["queue_chunks"] = args.queue_chunks
    if args.drain_timeout is not None:
        serve_kwargs["drain_timeout"] = args.drain_timeout
    if args.stop_after is not None:
        serve_kwargs["stop_after_packets"] = args.stop_after
    if args.prometheus_port is not None:
        serve_kwargs["prometheus_port"] = args.prometheus_port
    if args.tail_poll is not None:
        serve_kwargs["tail_poll_seconds"] = args.tail_poll
    options = replace(
        api.Options.make(
            backend=args.backend,
            level=args.level,
            segment_packets=args.segment_packets,
            segment_span=args.segment_span,
            epoch=args.epoch,
        ),
        serve=api.ServeOptions(**serve_kwargs),
    )
    report = api.serve(args.output, options)
    for line in report.summary_lines():
        print(line)
    return 0


def _build_predicate(args: argparse.Namespace):
    predicate = None

    def conjoin(term) -> None:
        nonlocal predicate
        predicate = term if predicate is None else predicate & term

    if args.since is not None or args.until is not None:
        conjoin(
            api.TimeRange(
                args.since or 0.0,
                args.until if args.until is not None else float("inf"),
            )
        )
    if args.dst is not None:
        conjoin(api.DestinationAddress(args.dst))
    if args.dst_prefix is not None:
        conjoin(api.DestinationPrefix(args.dst_prefix))
    if args.kind is not None:
        conjoin(api.FlowKind(args.kind))
    if args.min_packets is not None or args.max_packets is not None:
        conjoin(api.PacketCountRange(args.min_packets or 1, args.max_packets))
    if args.min_rtt is not None or args.max_rtt is not None:
        conjoin(api.RttRange(args.min_rtt or 0.0, args.max_rtt))
    return predicate if predicate is not None else api.MatchAll()


def _cmd_query(args: argparse.Namespace) -> int:
    if args.output is None and (args.backend is not None or args.level is not None):
        _log.error(
            "error: --backend/--level re-encode the --output sub-archive; "
            "pass --output or drop them"
        )
        return 2
    predicate = _build_predicate(args)
    if args.stats:
        if args.output is not None or args.limit is not None:
            _log.error(
                "error: --stats aggregates every matching flow; drop "
                "--output/--limit"
            )
            return 2
        with api.open(args.archive) as store:
            return _print_query_stats(store, predicate)
    with api.open(args.archive) as store:
        if args.output is not None:
            options = api.Options.make(backend=args.backend, level=args.level)
            written, stats = store.filter(
                args.output, predicate, limit=args.limit, options=options
            )
            print(
                f"wrote {written} segments / {stats.flows_matched} flows "
                f"to {args.output}"
            )
        else:
            result = store.query(predicate, limit=args.limit)
            for flow in result.flows:
                print(
                    f"seg={flow.segment:<4d} t={flow.timestamp:<12.4f} "
                    f"kind={flow.kind.name.lower():<5s} packets={flow.packet_count:<6d} "
                    f"dst={format_ipv4(flow.destination):<15s} "
                    f"rtt={flow.rtt:.4f}"
                )
            stats = result.stats
        for line in stats.summary_lines():
            print(line)
    return 0


def _print_query_stats(store, predicate) -> int:
    """``repro-trace query --stats``: matched flows as one matrix window.

    Rides the flow-metadata fast path over the store's segment
    sequence — any store kind, no packet synthesized — and folds every
    matching flow into a single unbounded window, then prints its
    matrix statistics plus the usual query work accounting.
    """
    query_stats = api.QueryStats()
    matrices = list(
        store.matrices(window=None, predicate=predicate, query_stats=query_stats)
    )
    if not matrices:
        print("no matching flows")
    else:
        stats = matrices[0].stats()
        print(f"matched flows   : {stats.flows}")
        print(f"packets / bytes : {stats.packets} / {stats.bytes}")
        print(
            f"sources / dests : {stats.sources} / {stats.destinations} "
            f"({stats.links} links)"
        )
        print(f"max fan-out/in  : {stats.max_fanout} / {stats.max_fanin}")
        for link in stats.top_links_packets[:3]:
            print(
                f"top link        : {format_ipv4(link.src)} -> "
                f"{format_ipv4(link.dst)} ({link.packets} packets, "
                f"{link.bytes} B)"
            )
    for line in query_stats.summary_lines():
        print(line)
    return 0


def _add_backend_flags(
    sub: argparse.ArgumentParser, *, default_note: str, what: str
) -> None:
    """Attach the shared section-backend flags (`--backend`, `--level`).

    The argparse default is always ``None`` — the library's "raw / keep
    source backends" behavior, under which `--level` is advisory.  Only
    an *explicitly named* backend treats an unusable `--level` as an
    error.  ``default_note`` is the human description of the None case.
    """
    sub.add_argument(
        "--backend",
        choices=[*backend_names(), AUTO],
        default=None,
        help=f"section codec for {what}: one of the registered backends, "
        "or 'auto' to trial each backend on a sample of every section "
        f"and keep the best ratio (default: {default_note})",
    )
    sub.add_argument(
        "--level",
        type=int,
        default=None,
        help="compression level for backends that take one "
        "(zlib/lzma 0-9, bz2 1-9; each backend's own default otherwise)",
    )


def _add_predicate_flags(sub: argparse.ArgumentParser) -> None:
    """Attach the shared flow-filter flags (query and replay commands)."""
    sub.add_argument(
        "--since", type=float, default=None,
        help="earliest flow start, seconds since the archive epoch",
    )
    sub.add_argument(
        "--until", type=float, default=None,
        help="latest flow start, seconds since the archive epoch",
    )
    sub.add_argument("--dst", default=None, help="destination address a.b.c.d")
    sub.add_argument(
        "--dst-prefix", default=None, help="destination prefix a.b.c.d/len"
    )
    sub.add_argument(
        "--kind", choices=["short", "long"], default=None, help="flow kind"
    )
    sub.add_argument("--min-packets", type=int, default=None)
    sub.add_argument("--max-packets", type=int, default=None)
    sub.add_argument("--min-rtt", type=float, default=None, help="seconds")
    sub.add_argument("--max-rtt", type=float, default=None, help="seconds")


def _common_flags() -> argparse.ArgumentParser:
    """The global flags every subcommand shares, as a parent parser.

    Attached via ``parents=`` on each subparser (never duplicated on the
    root — a subparser's default would silently override the root's
    parsed value), so ``repro-trace compress -v ...`` and
    ``repro-trace archive build --metrics ...`` both work.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("diagnostics")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="log errors only (overrides -v)",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics table to stderr when done",
    )
    group.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics as a JSON run report to FILE",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Flow-clustering trace compressor tools."
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    common = _common_flags()
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesize a registered traffic scenario", parents=[common]
    )
    generate.add_argument(
        "output", nargs="?", default=None, help="output .tsh path"
    )
    generate.add_argument("--duration", type=float, default=100.0)
    generate.add_argument("--rate", type=float, default=40.0, help="flows/second")
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="named traffic scenario from the registry "
        "(default: web, the historical workload; see --list-scenarios)",
    )
    generate.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered scenario names and exit",
    )
    generate.set_defaults(handler=_cmd_generate)

    fidelity = subparsers.add_parser(
        "fidelity",
        help="score scenario compress→reconstruct roundtrips",
        parents=[common],
    )
    fidelity.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to score (repeatable; default: all registered)",
    )
    fidelity.add_argument(
        "--duration", type=float, default=10.0, help="seconds of traffic per scenario"
    )
    fidelity.add_argument("--rate", type=float, default=40.0, help="flows/second")
    fidelity.add_argument(
        "--seed", type=int, default=None,
        help="generator seed (default: each scenario's own)",
    )
    fidelity.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the FidelityReport JSON to FILE",
    )
    _add_backend_flags(fidelity, default_note="raw", what="the scored containers")
    fidelity.set_defaults(handler=_cmd_fidelity)

    compress = subparsers.add_parser(
        "compress", help="compress a TSH trace", parents=[common]
    )
    compress.add_argument("input", help="input .tsh path")
    compress.add_argument(
        "output", help="output .fctc path (.fctca builds a segmented archive)"
    )
    compress.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=f"packets decoded per read (default {DEFAULT_CHUNK_PACKETS})",
    )
    _add_backend_flags(compress, default_note="raw", what="the output container")
    compress.set_defaults(handler=_cmd_compress)

    decompress = subparsers.add_parser(
        "decompress", help="rebuild a trace", parents=[common]
    )
    decompress.add_argument("input", help="input .fctc path")
    decompress.add_argument(
        "output", help="output .tsh path (.pcap writes pcap-lite instead)"
    )
    decompress.set_defaults(handler=_cmd_decompress)

    replay = subparsers.add_parser(
        "replay",
        help="stream an archive back into a synthetic trace file",
        parents=[common],
    )
    replay.add_argument("archive", help=".fctca path")
    replay.add_argument(
        "output", help="output .tsh path (.pcap writes pcap-lite instead)"
    )
    _add_predicate_flags(replay)
    replay.add_argument(
        "--limit", type=int, default=None, help="replay at most N matching flows"
    )
    replay.set_defaults(handler=_cmd_replay)

    stats = subparsers.add_parser(
        "stats",
        help="packet statistics of a trace, or windowed traffic-matrix "
        "analytics over compressed inputs",
        parents=[common],
    )
    stats.add_argument("input", help="input .tsh/.pcap/.fctc/.fctca path")
    stats.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="traffic-matrix window span; compressed inputs default to "
        "60, raw traces keep the legacy packet statistics unless set",
    )
    stats.add_argument(
        "--since", type=float, default=None,
        help="earliest flow start, seconds since the epoch",
    )
    stats.add_argument(
        "--until", type=float, default=None,
        help="latest flow start, seconds since the epoch",
    )
    stats.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="depth of the top-link / scan-candidate lists (default 10)",
    )
    stats.add_argument(
        "--scan-fanout", type=int, default=None, metavar="N",
        help="per-window fan-out at which a source counts as a scan "
        "candidate (default 16)",
    )
    stats.add_argument(
        "--anonymize-key", default=None, metavar="KEY",
        help="keyed-hash (blake2b) address anonymization; the same key "
        "maps the same host to the same pseudonym across runs",
    )
    stats.add_argument(
        "--method",
        choices=("index", "decode"),
        default=None,
        help="derive flows from the metadata fast path (index, default) "
        "or from full packet synthesis (decode); identical statistics",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the repro.analysis/matrix-report/v1 JSON document",
    )
    stats.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the matrix report JSON to FILE",
    )
    stats.set_defaults(handler=_cmd_stats)

    inspect = subparsers.add_parser(
        "inspect", help="examine a compressed file", parents=[common]
    )
    inspect.add_argument("input", help="input .fctc path")
    inspect.add_argument(
        "--addresses", action="store_true", help="list the address dataset"
    )
    inspect.set_defaults(handler=_cmd_inspect)

    convert = subparsers.add_parser(
        "convert", help="convert between tsh/pcap", parents=[common]
    )
    convert.add_argument("input", help="input .tsh or .pcap path")
    convert.add_argument("output", help="output .tsh or .pcap path")
    convert.set_defaults(handler=_cmd_convert)

    synthesize = subparsers.add_parser(
        "synthesize",
        help="fit a model and synthesize a scaled trace",
        parents=[common],
    )
    synthesize.add_argument("input", help="source .tsh path")
    synthesize.add_argument("output", help="output .tsh path")
    synthesize.add_argument(
        "--scale", type=float, default=1.0, help="flow-count multiplier"
    )
    synthesize.add_argument(
        "--flows", type=int, default=None, help="absolute flow count (overrides --scale)"
    )
    synthesize.add_argument("--seed", type=int, default=1)
    synthesize.set_defaults(handler=_cmd_synthesize)

    anonymize = subparsers.add_parser(
        "anonymize",
        help="prefix-preserving address anonymization",
        parents=[common],
    )
    anonymize.add_argument("input", help="input .tsh path")
    anonymize.add_argument("output", help="output .tsh path")
    anonymize.add_argument("--key", default="repro-anonymizer")
    anonymize.set_defaults(handler=_cmd_anonymize)

    compare = subparsers.add_parser(
        "compare", help="semantic comparison of two traces", parents=[common]
    )
    compare.add_argument("first", help="first .tsh path")
    compare.add_argument("second", help="second .tsh path")
    compare.set_defaults(handler=_cmd_compare)

    archive = subparsers.add_parser(
        "archive", help="build and inspect segmented .fctca archives"
    )
    archive_sub = archive.add_subparsers(dest="archive_command", required=True)

    def _segment_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--segment-packets",
            type=int,
            default=None,
            help="rotate after this many packets (default 65536)",
        )
        sub.add_argument(
            "--segment-span",
            type=float,
            default=None,
            help="rotate after this many seconds of trace time (default 60)",
        )

    archive_build = archive_sub.add_parser(
        "build",
        help="compress one or more .tsh captures into a new archive",
        parents=[common],
    )
    archive_build.add_argument("output", help="output .fctca path")
    archive_build.add_argument("inputs", nargs="+", help="input .tsh paths, in time order")
    _segment_flags(archive_build)
    _add_backend_flags(archive_build, default_note="raw", what="every segment")
    archive_build.set_defaults(handler=_cmd_archive_build)

    archive_append = archive_sub.add_parser(
        "append",
        help="append captures to an existing archive in place",
        parents=[common],
    )
    archive_append.add_argument("archive", help="existing .fctca path")
    archive_append.add_argument("inputs", nargs="+", help="input .tsh paths")
    _segment_flags(archive_append)
    _add_backend_flags(archive_append, default_note="raw", what="the new segments")
    archive_append.set_defaults(handler=_cmd_archive_append)

    archive_info = archive_sub.add_parser(
        "info",
        help="print the archive overview and per-segment index",
        parents=[common],
    )
    archive_info.add_argument("archive", help=".fctca path")
    archive_info.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help="append an N-window segment-overlap probe — the decode "
        "cost estimate behind windowed stats (index only, no decode)",
    )
    archive_info.set_defaults(handler=_cmd_archive_info)

    serve = subparsers.add_parser(
        "serve",
        help="run the live-capture ingest daemon into a .fctca archive",
        parents=[common],
    )
    serve.add_argument("output", help="output .fctca archive path")
    serve.add_argument(
        "--source",
        action="append",
        required=True,
        metavar="SPEC",
        help="ingest source scheme:target[+format], repeatable: "
        "unix:/path.sock and tcp:host:port accept length-framed streams, "
        "tail:/path follows a growing capture file; '+pcap' switches the "
        "payload format (default tsh)",
    )
    serve.add_argument(
        "--segment-packets",
        type=int,
        default=None,
        help="rotate a source's segment after this many packets (default 65536)",
    )
    serve.add_argument(
        "--segment-span",
        type=float,
        default=None,
        help="rotate after this many seconds of trace time (default 60)",
    )
    serve.add_argument(
        "--epoch",
        type=float,
        default=None,
        help="pin the archive time base (seconds); without it the first "
        "packet from whichever source wins anchors the epoch",
    )
    serve.add_argument(
        "--rotate-seconds",
        type=float,
        default=None,
        help="also flush quiet sources every N wall-clock seconds",
    )
    serve.add_argument(
        "--queue-chunks",
        type=int,
        default=None,
        help="per-source ingest queue bound in decoded chunks; a full "
        "queue backpressures the source (default 64)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="seconds a SIGTERM/SIGINT drain may take before queued "
        "data is cut (default 10)",
    )
    serve.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="PACKETS",
        help="stop (with a clean drain) once this many packets were "
        "ingested — bounded runs for tests and benchmarks",
    )
    serve.add_argument(
        "--prometheus-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text metrics on 127.0.0.1:PORT (0 picks "
        "an ephemeral port, logged at startup)",
    )
    serve.add_argument(
        "--tail-poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll interval for tail: sources (default 0.25)",
    )
    _add_backend_flags(serve, default_note="raw", what="every segment")
    serve.set_defaults(handler=_cmd_serve)

    query = subparsers.add_parser(
        "query",
        help="query flows in an archive without decoding unrelated segments",
        parents=[common],
    )
    query.add_argument("archive", help=".fctca path")
    _add_predicate_flags(query)
    query.add_argument(
        "--limit", type=int, default=None, help="stop after N matches"
    )
    query.add_argument(
        "--output",
        default=None,
        help="write matches as a filtered .fctca instead of printing them",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="aggregate the matching flows into one traffic-matrix "
        "window and print its statistics instead of the flow list",
    )
    _add_backend_flags(
        query, what="--output segments",
        default_note="keep each source segment's backends",
    )
    query.set_defaults(handler=_cmd_query)

    return parser


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Point the ``repro`` logger at the *current* stderr for this run.

    The handler is rebuilt on every :func:`main` call rather than once at
    import, because test harnesses (and some embedders) swap
    ``sys.stderr`` between invocations; a cached stream would write into
    the void.  Handlers from previous runs are tagged and removed so
    repeated ``main()`` calls never double-print.  Messages pass through
    verbatim (``%(message)s``) — the one-line ``error: ...`` contract of
    the exit-code table depends on it.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler._repro_cli = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logger.setLevel(level)


def _run_handler(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand, recording a run report when asked.

    ``--metrics`` / ``--metrics-out`` wrap the handler in
    :func:`repro.obs.record_run` — a fresh scoped registry, so the
    report covers exactly this invocation.  Without either flag the
    handler runs bare and pays nothing.
    """
    metrics_out = getattr(args, "metrics_out", None)
    show_metrics = getattr(args, "metrics", False)
    if not metrics_out and not show_metrics:
        return args.handler(args)
    command = args.command
    sub = getattr(args, "archive_command", None)
    if sub:
        command = f"{command}.{sub}"
    with record_run(command) as run:
        code = args.handler(args)
    if metrics_out:
        run.report.write(metrics_out)
    if show_metrics:
        for line in run.report.summary_lines():
            print(line, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help/--version (0) and usage errors (2);
        # normalize so main() always *returns* a uniform code.
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    _configure_logging(getattr(args, "verbose", 0), getattr(args, "quiet", False))
    try:
        return _run_handler(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename is not None else exc
        _log.error("error: %s: no such file", name)
        return 2
    except (ReproError, CodecError, CompressionError, OSError, ValueError) as exc:
        # User-caused failures (malformed containers, capacity overflows,
        # truncated traces, bad flag values) end with a message, not a
        # traceback; programming errors land in the handler below.
        _log.error("error: %s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 — the uniform "internal" exit
        if os.environ.get("REPRO_DEBUG"):
            raise
        _log.error(
            "internal error: %r (set REPRO_DEBUG=1 for the traceback)", exc
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
