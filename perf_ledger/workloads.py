"""The ledger's four closed-loop workloads: inputs, warm-up, loops, checks.

Each workload has three halves, run in three places:

* ``prepare_*`` runs in the harness process before any timing.  It generates the
  inputs from :mod:`repro.synth.scenarios` with the run's seed, writes
  them to files, and computes the reference outputs the checks compare
  against.  The program under test only ever receives these files.
* ``warm_up`` runs in a fresh interpreter, both in the set-up probes
  (whose wall time is ``setup_s``) and at the start of every worker, so
  lazy imports and first-call costs never land in a timed op.
* ``run_*`` runs in the worker: one closed loop per pass, one client,
  the next op starting when the previous one returns.

Ingest differs: its loop is a client in the harness feeding a real
``repro serve`` daemon, and its worker is an in-process replica of the
daemon's data path that the traced run splits into layers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

clock = time.perf_counter

WORKLOADS = ("build", "replay", "analyst", "ingest")

# Input sizes: scenario, seconds of traffic, flows per second, and a
# packet cap that keeps the input the same size whatever the seed.
# Ingest picks one of ``candidates`` traces per seed (:func:`_generate`).
SIZES = {
    "build": {"scenario": "web-search", "duration": 60.0, "rate": 40.0,
              "cap": 360_000},
    "replay": {"scenario": "web", "duration": 30.0, "rate": 120.0,
               "cap": 50_000},
    "analyst": {"scenario": "mixed-protocol", "duration": 168.0,
                "rate": 120.0, "head": 160.0, "captures": 4},
    "ingest": {"scenario": "flood", "duration": 70.0, "rate": 40.0,
               "cap": 60_000, "candidates": 5, "flows_per_packet": 0.704},
}
QUICK_SIZES = {
    "build": {"scenario": "web-search", "duration": 4.0, "rate": 40.0},
    "replay": {"scenario": "web", "duration": 4.0, "rate": 60.0},
    "analyst": {"scenario": "mixed-protocol", "duration": 18.0, "rate": 30.0,
                "head": 16.0, "captures": 1},
    "ingest": {"scenario": "flood", "duration": 8.0, "rate": 40.0},
}
QUICK_OPS = 2
MIN_OPS = 3
WARM_CAPTURE_SECONDS = 1.0

# Machine-speed calibration: a reading every quarter second of loop
# time, and the reading's value on a quiet 2-core host, which scaled
# times are expressed in.
CALIBRATE_EVERY = 0.25
CALIBRATION_ITERATIONS = 8000
REFERENCE_CALIBRATION_SECONDS = 0.0029

# The analyst mix, per cycle of 20 calls: one append of the next capture
# first, then these in a seeded order.  One cycle per capture makes one
# repetition of the schedule; a fixed count per cycle keeps the mix the
# same for every seed.
ANALYST_CYCLE = (("time_range", 11), ("destination", 5), ("stats", 3))
ANALYST_SEGMENT_SPAN = 5.0
WINDOW_QUERY_SECONDS = 5.0
STATS_WINDOW = 10.0
STATS_SECONDS = 30.0
QUERY_CHECK_EVERY = 10
STATS_CHECK_EVERY = 20

INGEST_LABEL = "unix0"  # the daemon's name for its first unix source
FRAME_RECORDS = 1024
DAEMON_READ_BYTES = 1 << 16  # the daemon's socket read size
TSH_RECORD = 44
DAEMON_DEADLINE = 120.0


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def digest_file(path) -> str:
    return digest(Path(path).read_bytes())


def production_options(segment_span: float | None = None):
    from repro.api.options import ArchiveOptions, Options

    options = Options.production()
    if segment_span is not None:
        options = replace(options, archive=ArchiveOptions(segment_span=segment_span))
    return options


def ingest_options(epoch: float):
    """What ``repro serve --backend zlib --epoch E`` builds its writer with."""
    from repro.api.options import Options

    return Options.make(backend="zlib", epoch=epoch)


# -- inputs (harness side) ----------------------------------------------------


def _generate(sizes: dict, seed: int, duration: float | None = None):
    """The seed's trace, cut to the packet cap.

    A flood's conversations per packet vary by up to a tenth from seed to
    seed, and the daemon's time follows them.  So with ``candidates``
    the seed names that many traces, and the one nearest the median
    ``flows_per_packet`` is used: every seed then offers the same mix.
    """
    from repro.synth.scenarios import get_scenario

    scenario = get_scenario(sizes["scenario"])
    count = sizes.get("candidates", 1)
    chosen, distance = None, float("inf")
    for index in range(count):
        packets = scenario.build(
            duration or sizes["duration"], sizes["rate"], seed * count + index
        ).packets
        packets = packets[: sizes["cap"]] if "cap" in sizes else packets
        if count > 1:
            flows = len({packet.five_tuple().canonical() for packet in packets})
            off = abs(flows / len(packets) - sizes["flows_per_packet"])
            if off >= distance:
                continue
            distance = off
        chosen = packets
    return chosen


def _write_tsh(path: Path, packets) -> int:
    from repro.trace.tsh import write_tsh_bytes

    data = write_tsh_bytes(packets)
    path.write_bytes(data)
    return len(data)


def _meta(sizes: dict, packets, tsh_bytes: int) -> dict:
    from repro.analysis.fidelity import temporal_complexity

    return {
        "scenario": sizes["scenario"],
        "packets": len(packets),
        "tsh_bytes": tsh_bytes,
        "temporal_complexity": round(temporal_complexity(packets), 4),
    }


def _warm_capture(workdir: Path, sizes: dict, seed: int) -> str:
    packets = _generate(sizes, seed, duration=WARM_CAPTURE_SECONDS)
    _write_tsh(workdir / "warm.tsh", packets)
    return "warm.tsh"


def _build_archive(workdir: Path, source: str, dest: str, options) -> None:
    import repro

    with repro.open(workdir / source, options=options) as store:
        store.compress(workdir / dest)


def prepare(workload: str, workdir: Path, seed: int, quick: bool) -> dict:
    sizes = (QUICK_SIZES if quick else SIZES)[workload]
    return _PREPARE[workload](workdir, seed, sizes)


def _prepare_build(workdir: Path, seed: int, sizes: dict) -> dict:
    from repro.archive.reader import ArchiveReader

    packets = _generate(sizes, seed)
    tsh_bytes = _write_tsh(workdir / "input.tsh", packets)
    # Every rep must write exactly the archive this reference build does;
    # the file stem names the segments, so it matches the reps' own.
    (workdir / "reference").mkdir()
    _build_archive(workdir, "input.tsh", "reference/out.fctca", production_options())
    reference = workdir / "reference" / "out.fctca"
    with ArchiveReader(reference) as reader:
        flows = reader.flow_count()
    meta = _meta(sizes, packets, tsh_bytes)
    meta["flows"] = flows
    return {
        "tsh": "input.tsh",
        "warm": _warm_capture(workdir, sizes, seed),
        "reference": digest_file(reference),
        "packets": len(packets),
        "tsh_bytes": tsh_bytes,
        "meta": meta,
    }


def _prepare_replay(workdir: Path, seed: int, sizes: dict) -> dict:
    from repro.archive.reader import ArchiveReader

    packets = _generate(sizes, seed)
    tsh_bytes = _write_tsh(workdir / "input.tsh", packets)
    options = production_options()
    _build_archive(workdir, "input.tsh", "input.fctca", options)
    _build_archive(workdir, _warm_capture(workdir, sizes, seed), "warm.fctca", options)
    with ArchiveReader(workdir / "input.fctca") as reader:
        archived, flows = reader.packet_count(), reader.flow_count()
        oracle = replay_oracle(reader, options.decompressor)
    meta = _meta(sizes, packets, tsh_bytes)
    meta["flows"] = flows
    return {
        "archive": "input.fctca",
        "warm_archive": "warm.fctca",
        "packets": archived,
        "tsh_bytes": tsh_bytes,
        "archive_bytes": (workdir / "input.fctca").stat().st_size,
        "oracle": oracle,
        "meta": meta,
    }


def replay_oracle(reader, config) -> str:
    """Digest of the batch replay: per-segment ``decompress_trace``, merged.

    The global order is the one :meth:`ArchiveReader.iter_packets`
    documents: the decompressor's sort key, ties broken by segment and
    then by position in the segment's own sorted packet list.
    """
    from repro.core.decompressor import decompress_trace, merge_sort_key
    from repro.trace.tsh import write_tsh_bytes

    keyed = []
    for segment in range(reader.segment_count):
        packets = decompress_trace(reader.load_segment(segment), config).packets
        keyed.extend(
            (merge_sort_key(packet), segment, position, packet)
            for position, packet in enumerate(packets)
        )
    keyed.sort(key=lambda item: item[:3])
    return digest(write_tsh_bytes(item[3] for item in keyed))


def _prepare_analyst(workdir: Path, seed: int, sizes: dict) -> dict:
    import repro
    from repro.archive.reader import ArchiveReader

    packets = _generate(sizes, seed)
    origin = packets[0].timestamp
    head = [p for p in packets if p.timestamp - origin < sizes["head"]]
    tsh_bytes = _write_tsh(workdir / "head.tsh", head)
    options = production_options(ANALYST_SEGMENT_SPAN)
    _build_archive(workdir, "head.tsh", "head.fctca", options)
    _build_archive(workdir, _warm_capture(workdir, sizes, seed), "warm.fctca", options)
    # The tail is cut into equal-span captures the loop appends in order.
    span = (sizes["duration"] - sizes["head"]) / sizes["captures"]
    captures = [[] for _ in range(sizes["captures"])]
    for packet in packets[len(head):]:
        slot = int((packet.timestamp - origin - sizes["head"]) // span)
        captures[min(slot, len(captures) - 1)].append(packet)
    names, capture_bytes = [], 0
    for index, capture in enumerate(captures):
        if capture:
            names.append(f"capture-{index:02d}.tsh")
            capture_bytes += _write_tsh(workdir / names[-1], capture)
    with repro.open(workdir / "head.fctca") as store:
        flows_to = Counter(flow.destination for flow in store.query().flows)
    # Fewest flows first, so stratified draws spread the destination
    # queries evenly from the lightest destinations to the heaviest.
    destinations = sorted(flows_to, key=lambda address: (flows_to[address], address))
    with ArchiveReader(workdir / "head.fctca") as reader:
        flows = reader.flow_count()
    meta = _meta(sizes, head, tsh_bytes)
    meta.update(
        flows=flows, captures=len(names), capture_packets=len(packets) - len(head)
    )
    return {
        "head": "head.fctca",
        "captures": names,
        "warm_archive": "warm.fctca",
        "destinations": destinations,
        "packets": len(head),
        # After a repetition the archive holds the head and every capture.
        "tsh_bytes": tsh_bytes + capture_bytes,
        "meta": meta,
    }


def _prepare_ingest(workdir: Path, seed: int, sizes: dict) -> dict:
    from repro.archive.reader import ArchiveReader
    from repro.archive.writer import ArchiveWriter
    from repro.trace.framing import END_OF_STREAM, frame
    from repro.trace.tsh import read_tsh_bytes, write_tsh_bytes

    packets = _generate(sizes, seed)
    data = write_tsh_bytes(packets)
    step = FRAME_RECORDS * TSH_RECORD
    frames = [frame(data[start:start + step]) for start in range(0, len(data), step)]
    (workdir / "stream.bin").write_bytes(b"".join(frames) + END_OF_STREAM)
    # Pin the epoch to the first record as TSH stores it, so the daemon
    # and the offline build anchor every segment to the same instant.
    records = read_tsh_bytes(data)
    epoch = records[0].timestamp
    options = replace(ingest_options(epoch), name=INGEST_LABEL)
    with ArchiveWriter.create(workdir / "reference.fctca", options=options) as writer:
        writer.feed(records)
    with ArchiveReader(workdir / "reference.fctca") as reader:
        reference = segment_digests(reader)
        flows = reader.flow_count()
    meta = _meta(sizes, packets, len(data))
    meta["flows"] = flows
    return {
        "stream": "stream.bin",
        "epoch": epoch,
        "reference": reference,
        "packets": len(packets),
        "tsh_bytes": len(data),
        "meta": meta,
    }


def segment_digests(reader) -> list[str]:
    return [
        digest(reader.read_segment_bytes(index))
        for index in range(reader.segment_count)
    ]


_PREPARE = {
    "build": _prepare_build,
    "replay": _prepare_replay,
    "analyst": _prepare_analyst,
    "ingest": _prepare_ingest,
}


# -- warm-up (probe and worker) -----------------------------------------------


def warm_up(spec: dict):
    """Import, open the input, run one op per kind on the warm capture.

    Returns the opened archive for ``replay``, whose loop reuses it, and
    ``None`` for the others.
    """
    import repro
    from repro.query.predicates import TimeRange

    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    workload = spec["workload"]
    if workload == "build":
        with repro.open(workdir / inputs["tsh"]):
            pass
        with repro.open(workdir / inputs["warm"], options=production_options()) as warm:
            warm.compress(workdir / "warm-out.fctca")
        return None
    if workload == "replay":
        store = repro.open(workdir / inputs["archive"], options=production_options())
        with repro.open(workdir / inputs["warm_archive"]) as warm:
            warm.export(workdir / "warm-out.tsh")
        return store
    if workload == "analyst":
        # Each pass opens its own copy of the head archive.
        with repro.open(workdir / inputs["head"]):
            pass
        with repro.open(workdir / inputs["warm_archive"]) as warm:
            warm.query(TimeRange(0.0, WINDOW_QUERY_SECONDS))
            warm.stats(window=STATS_WINDOW)
        return None
    # ingest: the replica's imports, exercised on the first frames.
    _replica_ingest(spec, workdir / "warm-replica.fctca", limit=2)
    return None


# -- worker loops ---------------------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed slice of interpreter work takes: the CPU's speed now.

    On a shared host, other tenants slow each virtual CPU by up to a
    half for seconds at a time, independently of the other CPU.  So the
    measured process is pinned to one CPU (:func:`cpu_split`), readings
    are taken on that CPU, and ops are scaled by the readings taken
    around them (:meth:`Loop.scale`).  The mean of three runs is kept:
    an op pays for the host's interruptions too, and across fresh
    processes the mean left half the spread in scaled op times that the
    best of three did.  The garbage collector is held off, so a
    collection of the process's own heap never lands in a reading.
    """
    total = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = clock()
            table, rows = {}, []
            for index in range(CALIBRATION_ITERATIONS):
                key = (index * 2654435761) & 0xFFF
                table[key] = table.get(key, 0) + index
                rows.append((key, index))
            rows.sort()
            total += clock() - start
    finally:
        if collecting:
            gc.enable()
    return total / 3


def speed_scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two readings into reference seconds."""
    return REFERENCE_CALIBRATION_SECONDS / ((before + after) / 2.0)


def cpu_split() -> tuple[set[int], set[int]]:
    """(the CPU measured processes run on, the CPUs left for the harness)."""
    if not hasattr(os, "sched_getaffinity"):
        return set(), set()
    available = sorted(os.sched_getaffinity(0))
    measured = {available[-1]}
    return measured, set(available[:-1]) or measured


@contextmanager
def on_cpus(cpus: set[int]):
    """Run the block, and every process it starts, on ``cpus`` only."""
    if not cpus:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def calibrate_on(cpus: set[int]) -> float:
    with on_cpus(cpus):
        return calibrate()


class Loop:
    """Closed-loop pacing and CPU-speed readings around the ops.

    ``more(done)`` says whether to start unit number ``done``: an op, or
    for the analyst one repetition of its schedule.  Quick runs stop
    after ``quick_units``; others run at least ``minimum`` units and
    start another only while it should end within the time budget.
    ``tick(ops)`` takes a calibration reading before op number ``ops``
    once ``CALIBRATE_EVERY`` seconds have passed since the last one;
    one more is taken after the last op.  ``reading`` takes one; the
    harness passes one that moves to the measured CPU first.
    """

    def __init__(
        self,
        seconds: float,
        quick: bool,
        quick_units: int = QUICK_OPS,
        minimum: int = MIN_OPS,
        reading=calibrate,
    ) -> None:
        self.seconds, self.quick = seconds, quick
        self.quick_units, self.minimum = quick_units, minimum
        self.reading = reading
        self.start = clock()
        self.readings: list[tuple[int, float]] = []  # (ops done, seconds)
        self._last_reading = float("-inf")

    def more(self, done: int, ops: int | None = None) -> bool:
        """``ops`` is the number of ops recorded so far, ``done`` by default."""
        ops = done if ops is None else ops
        elapsed = clock() - self.start
        if self.quick:
            going = done < self.quick_units
        else:
            going = done < self.minimum or elapsed * (done + 1) / done <= self.seconds
        if going:
            self.tick(ops)
        else:
            self._read(ops)
        return going

    def tick(self, ops: int) -> None:
        if clock() - self._last_reading >= CALIBRATE_EVERY:
            self._read(ops)

    def _read(self, ops: int) -> None:
        self.readings.append((ops, self.reading()))
        self._last_reading = clock()

    def scale(self, ops: list[dict]) -> list[dict]:
        """Give each op the scale of the readings just before and after it."""
        if self.readings[-1][0] < len(ops):
            self.readings.append((len(ops), self.reading()))
        for index, op in enumerate(ops):
            before = [seconds for done, seconds in self.readings if done <= index]
            after = [seconds for done, seconds in self.readings if done > index]
            op["scale"] = speed_scale(before[-1], after[0])
        return ops


def run_pass(spec: dict, store, plan: dict, tracer) -> dict:
    """One untraced or traced pass of the workload's loop."""
    return _RUNNERS[spec["workload"]](spec, store, plan, tracer)


def _timed(tracer, kind: str, call):
    """Run one op; returns (seconds, result, error)."""
    scope = tracer.op(kind) if tracer is not None else nullcontext()
    start = clock()
    try:
        with scope:
            result = call()
    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
        return clock() - start, None, f"{type(exc).__name__}: {exc}"
    return clock() - start, result, None


def _run_build(spec: dict, store, plan: dict, tracer) -> dict:
    import repro

    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    source, out = workdir / inputs["tsh"], workdir / "out.fctca"
    options = production_options()
    loop, ops = Loop(plan["seconds"], spec["quick"]), []

    def compress():
        with repro.open(source, options=options) as trace:
            trace.compress(out)

    while loop.more(len(ops)):
        seconds, _, error = _timed(tracer, "build", compress)
        op = {"kind": "build", "seconds": seconds, "error": error}
        if error is None:
            op["digest"] = digest_file(out)
            with repro.open(out) as archive:
                packets = archive.reader.packet_count()
            if packets != inputs["packets"]:
                op["error"] = f"archive holds {packets} packets, input {inputs['packets']}"
            elif op["digest"] != inputs["reference"]:
                op["error"] = "archive bytes differ from the reference build"
        ops.append(op)
    return {"ops": loop.scale(ops), "archive_bytes": _size(out)}


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _run_replay(spec: dict, store, plan: dict, tracer) -> dict:
    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    out = workdir / "out.tsh"
    loop, ops = Loop(plan["seconds"], spec["quick"]), []
    while loop.more(len(ops)):
        seconds, result, error = _timed(tracer, "replay", lambda: store.export(out))
        op = {"kind": "replay", "seconds": seconds, "error": error}
        if error is None:
            op["digest"] = digest_file(out)
            if op["digest"] != inputs["oracle"]:
                op["error"] = "export differs from the batch replay oracle"
            elif result.packets != inputs["packets"]:
                op["error"] = f"exported {result.packets} of {inputs['packets']} packets"
        ops.append(op)
    return {"ops": loop.scale(ops)}


def analyst_schedule(seed: int, cycles: int, quick: bool) -> list[list[tuple[str, float]]]:
    """The seeded cycles of calls: (kind, draw in [0, 1) placing the call).

    Each kind's draws are stratified over the schedule, one in each
    equal slice of [0, 1) in a seeded order, so every repetition covers
    the archive's span and its destinations evenly and its work differs
    little from seed to seed.
    """
    rng = random.Random(seed)
    if quick:
        kinds = ["append", "time_range", "destination", "stats"]
        return [[(kind, rng.random()) for kind in kinds]]
    draws = {}
    for kind, count in ANALYST_CYCLE:
        slices = list(range(count * cycles))
        rng.shuffle(slices)
        draws[kind] = [(index + rng.random()) / len(slices) for index in slices]
    schedule = []
    for _ in range(cycles):
        body = [kind for kind, count in ANALYST_CYCLE for _ in range(count)]
        rng.shuffle(body)
        schedule.append([("append", 0.0)] + [(kind, draws[kind].pop()) for kind in body])
    return schedule


def _run_analyst(spec: dict, store, plan: dict, tracer) -> dict:
    """Whole repetitions of one fixed schedule, each on a fresh head archive.

    The time budget only decides how many repetitions run, so every
    call sees the same archive whatever the program's speed.  Each call
    is one op and records its ``repetition``; the harness times a
    repetition as the sum of its calls.
    """
    import repro

    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    archive = workdir / f"analyst-{plan['name']}.fctca"
    options = production_options(ANALYST_SEGMENT_SPAN)
    captures = [workdir / name for name in inputs["captures"]]
    schedule = analyst_schedule(spec["seed"], len(captures), spec["quick"])
    every_query = 1 if spec["quick"] else QUERY_CHECK_EVERY
    every_stats = 1 if spec["quick"] else STATS_CHECK_EVERY
    loop, ops = Loop(plan["seconds"], spec["quick"], quick_units=1, minimum=1), []
    queries = stats_ops = repetition = 0
    while loop.more(repetition, len(ops)):
        shutil.copyfile(workdir / inputs["head"], archive)
        store = repro.open(archive, options=options)
        try:
            for cycle, calls in enumerate(schedule):
                for kind, draw in calls:
                    loop.tick(len(ops))
                    op = {
                        "kind": kind,
                        "repetition": repetition,
                        "segments": store.reader.segment_count,
                    }
                    op["args"], call = _analyst_call(
                        store, kind, draw, captures[cycle], inputs["destinations"], options
                    )
                    seconds, result, error = _timed(tracer, kind, call)
                    op.update(seconds=seconds, error=error)
                    if error is None and kind == "stats":
                        op["digest"] = windows_digest(result)
                        if stats_ops % every_stats == 0:
                            # The state this op saw, kept for the decode check.
                            op["check"] = f"check-{plan['name']}-{len(ops)}.fctca"
                            shutil.copyfile(archive, workdir / op["check"])
                        stats_ops += 1
                    elif error is None and kind != "append":
                        op["digest"] = flows_digest(result.flows)
                        op["check"] = queries % every_query == 0
                        queries += 1
                    ops.append(op)
        finally:
            store.close()
        repetition += 1
    return {
        "ops": loop.scale(ops),
        "archive": archive.name,
        "archive_bytes": _size(archive),
    }


def _analyst_call(store, kind, draw, capture, destinations, options):
    """(the arguments the checks replay, the call) for one scheduled op."""
    from repro.query.predicates import DestinationAddress, TimeRange

    if kind == "append":
        return None, lambda: store.append([capture], options=options)
    latest = store.reader.time_bounds()[1]
    if kind == "stats":
        since = draw * max(0.0, latest - STATS_SECONDS)
        args = [since, since + STATS_SECONDS]
        return args, lambda: store.stats(window=STATS_WINDOW, since=args[0], until=args[1])
    if kind == "time_range":
        start = draw * max(0.0, latest - WINDOW_QUERY_SECONDS)
        args = [start, start + WINDOW_QUERY_SECONDS]
        predicate = TimeRange(*args)
    else:
        args = [destinations[int(draw * len(destinations))]]
        predicate = DestinationAddress(args[0])
    return args, lambda: store.query(predicate)


def flows_digest(flows) -> str:
    rows = [
        (f.segment, f.timestamp, f.kind.name, f.template_index, f.packet_count,
         f.destination, f.rtt)
        for f in flows
    ]
    return digest(repr(rows).encode())


def windows_digest(report) -> str:
    windows = [window.to_dict() for window in report.windows]
    return digest(json.dumps(windows, sort_keys=True).encode())


def check_analyst(spec: dict, result: dict) -> None:
    """Verify the recorded checks of one analyst pass, outside its worker.

    Every 10th query must equal a brute-force scan with no pruning over
    the segments the archive held when it ran (appends only add
    segments, so those are a prefix of the final archive's).  Every 20th
    stats op must give the same windows through ``method="decode"`` on
    a copy of the archive taken right after the op.
    """
    import repro
    from repro.archive.reader import ArchiveReader
    from repro.query.engine import flow_summaries
    from repro.query.predicates import DestinationAddress, TimeRange

    workdir = Path(spec["workdir"])
    options = production_options(ANALYST_SEGMENT_SPAN)
    summaries: dict[int, list] = {}
    with ArchiveReader(workdir / result["archive"]) as reader:
        for op in result["ops"]:
            if op.get("error") or not op.get("check"):
                continue
            if op["kind"] == "stats":
                with repro.open(workdir / op["check"], options=options) as copy:
                    decoded = copy.stats(
                        window=STATS_WINDOW,
                        since=op["args"][0],
                        until=op["args"][1],
                        method="decode",
                    )
                if windows_digest(decoded) != op["digest"]:
                    op["error"] = "index windows differ from method='decode'"
                continue
            predicate = (
                TimeRange(*op["args"])
                if op["kind"] == "time_range"
                else DestinationAddress(op["args"][0])
            )
            expected = []
            for segment in range(op["segments"]):
                if segment not in summaries:
                    summaries[segment] = list(
                        flow_summaries(segment, reader.load_segment(segment))
                    )
                expected.extend(
                    flow for flow in summaries[segment] if predicate.match_flow(flow)
                )
            if flows_digest(expected) != op["digest"]:
                op["error"] = "query differs from a brute-force scan"


def _replica_ingest(spec: dict, out: Path, limit: int | None = None) -> int:
    """The daemon's data path for one connection, without the event loop.

    Mirrors ``repro serve``: socket-sized reads through one
    ``LengthFramer`` and TSH stream decoder, every read's packets fed as
    one record list into a ``SegmentFeeder`` that seals into the shared
    ``ArchiveWriter``, then the final flush and the fsync-backed seal.
    """
    from repro.archive.writer import ArchiveWriter, SegmentFeeder
    from repro.trace.framing import LengthFramer, stream_decoder

    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    stream = (workdir / inputs["stream"]).read_bytes()
    if limit is not None:
        stream = stream[: limit * DAEMON_READ_BYTES]
    options = ingest_options(inputs["epoch"])
    writer = ArchiveWriter.create(out, options=options)
    feeder = SegmentFeeder(
        writer.write_segment,
        epoch=writer.epoch_ref,
        segment_packets=options.archive.segment_packets,
        segment_span=options.archive.segment_span,
        config=options.compressor,
        name=INGEST_LABEL,
        engine=options.streaming.engine,
    )
    framer = LengthFramer(options.serve.max_frame_bytes)
    decoder = stream_decoder("tsh")
    fed = 0
    for start in range(0, len(stream), DAEMON_READ_BYTES):
        packets = []
        for payload in framer.feed(stream[start:start + DAEMON_READ_BYTES]):
            packets.extend(decoder.feed(payload))
        if packets:
            fed += feeder.feed(packets)
    if limit is None:
        framer.finish()
        decoder.finish()
    feeder.close()
    writer.close()
    return fed


def _run_ingest_replica(spec: dict, store, plan: dict, tracer) -> dict:
    from repro.archive.reader import ArchiveReader

    inputs = spec["inputs"]
    out = Path(spec["workdir"]) / f"replica-{plan['name']}.fctca"
    loop, ops = Loop(plan["seconds"], spec["quick"]), []
    while loop.more(len(ops)):
        seconds, fed, error = _timed(
            tracer, "ingest", lambda: _replica_ingest(spec, out)
        )
        op = {"kind": "ingest", "seconds": seconds, "error": error}
        if error is None:
            with ArchiveReader(out) as reader:
                if segment_digests(reader) != inputs["reference"]:
                    op["error"] = "replica segments differ from the offline build"
            if fed != inputs["packets"]:
                op["error"] = f"replica fed {fed} of {inputs['packets']} packets"
        ops.append(op)
    return {"ops": loop.scale(ops)}


_RUNNERS = {
    "build": _run_build,
    "replay": _run_replay,
    "analyst": _run_analyst,
    "ingest": _run_ingest_replica,
}


# -- ingest client (harness side) -----------------------------------------------


class Daemon:
    """One ``repro serve`` process on a unix socket in the work directory."""

    def __init__(self, spec: dict, tag: str, env: dict) -> None:
        self.workdir = Path(spec["workdir"])
        self.inputs = spec["inputs"]
        self.tag = tag
        for suffix in (".sock", ".fctca", ".json"):
            (self.workdir / f"{tag}{suffix}").unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "repro.cli", "serve", f"{tag}.fctca",
            "--source", f"unix:{tag}.sock",
            "--stop-after", str(self.inputs["packets"]),
            "--backend", "zlib",
            "--epoch", repr(self.inputs["epoch"]),
            "--metrics-out", f"{tag}.json",
        ]
        # The socket path is relative on both sides: an absolute path in
        # a deep checkout can pass the 107-byte unix socket limit.
        self.socket_path = os.path.relpath(self.workdir / f"{tag}.sock")
        with open(self.workdir / f"{tag}.out", "wb") as out, open(
            self.workdir / f"{tag}.err", "wb"
        ) as err, on_cpus(set(spec["cpus"])):
            self.started = clock()
            self.process = subprocess.Popen(
                command, cwd=self.workdir, env=env, stdout=out, stderr=err
            )
        self.returncode: int | None = None
        self.rss_mb = 0.0

    def connect(self) -> socket.socket:
        """Retry until the daemon's socket accepts (it may not listen yet)."""
        deadline = clock() + DAEMON_DEADLINE
        while True:
            client = socket.socket(socket.AF_UNIX)
            try:
                client.connect(self.socket_path)
                return client
            except (FileNotFoundError, ConnectionRefusedError):
                client.close()
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited early: {self.stderr()}")
                if clock() > deadline:
                    raise TimeoutError("daemon socket never accepted")
                time.sleep(0.001)

    def reap(self) -> float:
        """Wait for exit; returns the exit time, records code and RSS."""
        deadline = clock() + DAEMON_DEADLINE
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                ended = clock()
                self.returncode = self.process.returncode = (
                    os.waitstatus_to_exitcode(status)
                )
                self.rss_mb = usage.ru_maxrss / 1024.0
                return ended
            if clock() > deadline:
                self.kill()
                raise TimeoutError("daemon did not exit")
            time.sleep(0.0005)

    def kill(self) -> None:
        if self.returncode is None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def stop(self) -> None:
        self.process.send_signal(signal.SIGTERM)
        self.reap()

    def stdout(self) -> str:
        return (self.workdir / f"{self.tag}.out").read_text(errors="replace")

    def stderr(self) -> str:
        return (self.workdir / f"{self.tag}.err").read_text(errors="replace")[-500:]

    def metrics(self) -> dict:
        path = self.workdir / f"{self.tag}.json"
        return json.loads(path.read_text()) if path.exists() else {}


def daemon_setup_seconds(spec: dict, env: dict) -> float:
    """Spawn to first accepted connection; the daemon is then stopped."""
    daemon = Daemon(spec, "probe", env)
    try:
        daemon.connect().close()
        ready = clock() - daemon.started
        daemon.stop()
    finally:
        daemon.kill()
    return ready


def run_ingest_daemons(spec: dict, plan: dict, env: dict) -> dict:
    """The closed loop: one client, one connection, one daemon per op."""
    from repro.archive.reader import ArchiveReader

    workdir, inputs = Path(spec["workdir"]), spec["inputs"]
    stream = (workdir / inputs["stream"]).read_bytes()
    frame_bytes = FRAME_RECORDS * TSH_RECORD + 4
    cpus = set(spec["cpus"])
    loop = Loop(plan["seconds"], spec["quick"], reading=lambda: calibrate_on(cpus))
    ops = []
    while loop.more(len(ops)):
        op = {"kind": "ingest", "error": None}
        daemon = Daemon(spec, "daemon", env)
        try:
            client = daemon.connect()
            first_byte = clock()
            with client:
                for start in range(0, len(stream), frame_bytes):
                    client.sendall(stream[start:start + frame_bytes])
            op["seconds"] = daemon.reap() - first_byte
        except (OSError, RuntimeError) as exc:
            op.update(seconds=0.0, error=f"{type(exc).__name__}: {exc}")
        finally:
            daemon.kill()
        if op["error"] is None:
            op["rss_mb"] = daemon.rss_mb
            op["metrics"] = daemon.metrics()
            if daemon.returncode != 0:
                op["error"] = f"daemon exited {daemon.returncode}: {daemon.stderr()}"
            elif "drain: clean" not in daemon.stdout():
                op["error"] = "daemon drain was not clean"
            else:
                with ArchiveReader(workdir / "daemon.fctca") as reader:
                    if segment_digests(reader) != inputs["reference"]:
                        op["error"] = "daemon segments differ from the offline build"
                op["digest"] = digest_file(workdir / "daemon.fctca")
        ops.append(op)
    return {"ops": loop.scale(ops), "archive_bytes": _size(workdir / "daemon.fctca")}
