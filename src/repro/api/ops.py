"""One-shot façade operations that are not verbs of a single store.

These cover the workflow steps around the store sessions: synthesizing
input traffic, fitting and sampling the generative model, anonymizing,
comparing, and the compress→decompress ``roundtrip`` the evaluation
harness is built on.  Each is a thin composition of :func:`repro.open`
sessions and the engine primitives — the CLI and the examples call
these instead of wiring subsystems by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.api.errors import CapabilityError
from repro.api.options import Options
from repro.api.store import TraceFileStore, TraceStore, open_store
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.compressor import compress_trace
from repro.core.decompressor import decompress_trace
from repro.core.generator import TraceModel
from repro.core.pipeline import CompressionReport, report_for_stream
from repro.trace.export import ExportResult, export_packet_stream
from repro.trace.trace import Trace

__all__ = [
    "SynthesisReport",
    "anonymize",
    "compare",
    "container_sections",
    "fidelity",
    "generate",
    "model_for",
    "roundtrip",
    "synthesize",
]


def container_sections(path: str | Path):
    """Per-section framing of a ``.fctc`` file, without decoding it.

    A tuple of :class:`~repro.core.codec.SectionInfo` (section name,
    backend, stored/raw sizes) parsed from the container tags alone —
    the cheap way to report what an encode produced; opening a full
    :class:`~repro.api.store.ContainerStore` would decode every dataset.
    """
    from repro.api.errors import CorruptInputError
    from repro.core.codec import container_info
    from repro.core.errors import CodecError

    path = Path(path)
    try:
        return container_info(path.read_bytes()).sections
    except CodecError as exc:
        raise CorruptInputError(f"{path}: {exc}") from exc


def generate(
    dest: str | Path,
    *,
    duration: float = 100.0,
    flow_rate: float = 40.0,
    seed: int = 1,
    kind: str | None = None,
    scenario: str | None = None,
) -> ExportResult:
    """Write a calibrated synthetic capture to ``dest``.

    ``scenario`` names a registered workload from the scenario registry
    (:mod:`repro.synth.scenarios` — ``web``, ``p2p``, ``web-search``,
    ``data-mining``, ``mixed-protocol``, ``flood``, ``mptcp``, …);
    ``web`` is the default, byte-identical to what this function always
    produced.  ``kind`` is the historical spelling of the same knob and
    keeps working.  The output format follows the suffix (``.pcap`` →
    pcap-lite, anything else → TSH).
    """
    from repro.synth.scenarios import get_scenario

    if kind is not None and scenario is not None and kind != scenario:
        raise CapabilityError(
            f"kind={kind!r} and scenario={scenario!r} disagree; "
            "pass one of them (kind is the legacy alias)"
        )
    name = scenario if scenario is not None else (kind or "web")
    try:
        selected = get_scenario(name)
    except ValueError as exc:
        raise CapabilityError(str(exc)) from exc
    trace = selected.build(duration=duration, flow_rate=flow_rate, seed=seed)
    return export_packet_stream(iter(trace), dest)


def fidelity(
    scenarios=None,
    *,
    duration: float = 10.0,
    flow_rate: float = 40.0,
    seed: int | None = None,
    options: Options | None = None,
):
    """Run the differential fidelity harness; returns a ``FidelityReport``.

    Each named scenario (default: every registered one) is generated,
    compressed under ``options``, reconstructed from the serialized
    bytes, and scored on compression ratio plus the trace-complexity
    metrics — see :mod:`repro.analysis.fidelity`.
    """
    from repro.analysis.fidelity import evaluate_scenarios

    return evaluate_scenarios(
        scenarios,
        duration=duration,
        flow_rate=flow_rate,
        seed=seed,
        options=options,
    )


def roundtrip(
    trace: Trace, options: Options | None = None
) -> tuple[Trace, CompressionReport]:
    """Compress then decompress an in-memory trace; returns (trace', report).

    The output trace is *statistically* similar to the input (the
    paper's claim, validated in section 6), not byte-identical.
    """
    options = options or Options()
    compressed = compress_trace(trace, options.compressor)
    data = serialize_compressed(
        compressed, backend=options.codec.backend, level=options.codec.level
    )
    decompressed = decompress_trace(
        deserialize_compressed(data), options.decompressor
    )
    return decompressed, report_for_stream(compressed, data)


def model_for(
    source: Trace | TraceStore | str | Path, options: Options | None = None
) -> TraceModel:
    """Fit the generative :class:`TraceModel` from any model-capable source.

    Accepts an in-memory :class:`Trace`, an open store session, or a
    path (opened through the façade) — a compressed container *is* a
    fitted model, a raw trace is compressed first.
    """
    options = options or Options()
    if isinstance(source, Trace):
        return TraceModel.fit(compress_trace(source, options.compressor))
    store = source if isinstance(source, TraceStore) else open_store(
        source, options=options
    )
    return store.model()


@dataclass(frozen=True)
class SynthesisReport:
    """What :func:`synthesize` produced, for reporting."""

    templates: int
    flows: int
    packets: int
    size_bytes: int


def synthesize(
    source: str | Path,
    dest: str | Path,
    *,
    scale: float = 1.0,
    flows: int | None = None,
    seed: int = 1,
    options: Options | None = None,
) -> SynthesisReport:
    """Fit a model from ``source`` and write a scaled synthetic trace.

    ``flows`` pins the absolute flow count; otherwise the source's flow
    count is multiplied by ``scale``.  The paper's "synthetic packet
    trace generator based on the described methodology", one call.
    """
    options = options or Options()
    model = model_for(source, options)
    flow_count = flows if flows is not None else int(
        scale * (sum(model.short_usage) + sum(model.long_usage))
    )
    synthetic = model.synthesize(
        flow_count=flow_count, seed=seed, config=options.decompressor
    )
    result = export_packet_stream(iter(synthetic), dest)
    return SynthesisReport(
        templates=model.template_count(),
        flows=flow_count,
        packets=result.packets,
        size_bytes=result.size_bytes,
    )


def anonymize(
    source: str | Path, dest: str | Path, *, key: str = "repro-anonymizer"
) -> ExportResult:
    """Prefix-preservingly anonymize a raw trace file into ``dest``."""
    from repro.trace.anonymize import anonymize_prefix_preserving

    store = open_store(source)
    if not isinstance(store, TraceFileStore):
        raise CapabilityError(
            f"{source}: anonymize takes raw trace files, not {store.kind.value}"
        )
    anonymized = anonymize_prefix_preserving(store.load_trace(), key=key)
    return export_packet_stream(iter(anonymized), dest)


def compare(first: str | Path, second: str | Path):
    """Semantic comparison of two raw traces (section 6's validation).

    Returns the :class:`~repro.analysis.summary.TraceComparison`; render
    with ``.render()`` and judge with ``.statistically_similar()``.
    """
    from repro.analysis.summary import compare_traces

    stores = []
    for path in (first, second):
        store = open_store(path)
        if not isinstance(store, TraceFileStore):
            raise CapabilityError(
                f"{path}: compare takes raw trace files, not {store.kind.value}"
            )
        stores.append(store)
    return compare_traces(stores[0].load_trace(), stores[1].load_trace())
