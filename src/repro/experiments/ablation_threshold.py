"""Ablation A2 — the similarity threshold (equation 4's 2%).

The paper fixes the similarity bound at 2% of the maximum inter-flow
distance.  Sweeping it exposes the compression/fidelity trade-off: a 0%
threshold stores only exact-duplicate vectors (more templates, larger
file, zero clustering loss); large thresholds merge dissimilar flows
(fewer templates, smaller file, higher intra-cluster distance).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.codec import serialize_compressed
from repro.core.compressor import CompressorConfig
from repro.core.streaming import StreamingCompressor
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.flows.assembler import assemble_flows
from repro.flows.characterize import characterize_flow
from repro.flows.distance import vector_distance
from repro.synth.webgen import WebTrafficConfig, WebTrafficGenerator
from repro.trace.trace import merge_traces

THRESHOLD_PERCENTS = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0]


def mixed_workload(config: ExperimentConfig):
    """Two session populations with different ACK cadences.

    The standard generator's same-length flows are identical, so the
    similarity threshold never has anything to merge; mixing ack_every=2
    and ack_every=3 clients produces same-length flows whose vectors
    differ in a few dependence/payload positions — exactly the
    near-duplicates the 2% rule exists to absorb.
    """
    delayed_ack = WebTrafficGenerator(
        WebTrafficConfig(
            duration=config.duration, flow_rate=config.flow_rate / 2,
            seed=config.seed, ack_every=2,
        )
    ).generate()
    eager_ack = WebTrafficGenerator(
        WebTrafficConfig(
            duration=config.duration, flow_rate=config.flow_rate / 2,
            seed=config.seed ^ 0xA5A5, ack_every=3,
        )
    ).generate()
    return merge_traces([delayed_ack, eager_ack], name="mixed-ack")


def _mean_cluster_distance(trace, compressed, config: CompressorConfig) -> float:
    """Mean distance between each short flow's vector and its template.

    Reruns the template assignment offline to measure the lossiness the
    chosen threshold introduced.
    """
    flows = assemble_flows(trace.packets)
    short_refs = compressed.time_seq.short_refs()
    flows_by_start = sorted(flows, key=lambda f: f.start_time())
    short_flows = [
        flow for flow in flows_by_start if len(flow) <= config.short_flow_max
    ]
    total = 0.0
    counted = 0
    for flow, template_index in zip(short_flows, short_refs):
        template = compressed.short_templates[template_index]
        vector = characterize_flow(flow, config.characterization)
        if len(vector) == template.n:
            total += vector_distance(vector, template.values)
            counted += 1
    return total / counted if counted else 0.0


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Sweep the similarity threshold over a mixed-population trace."""
    config = config or ExperimentConfig()
    trace = mixed_workload(config)
    original = trace.stored_size_bytes()

    headers = [
        "threshold_%",
        "short_templates",
        "hit_ratio",
        "ratio",
        "mean_cluster_dist",
    ]
    rows: list[list[object]] = []
    template_counts: dict[float, int] = {}
    distances: dict[float, float] = {}

    for percent in THRESHOLD_PERCENTS:
        compressor_config = CompressorConfig(similarity_percent=percent)
        compressor = StreamingCompressor(compressor_config)
        compressor.feed(trace.packets)
        compressed = compressor.finish()
        size = len(serialize_compressed(compressed))
        mean_distance = _mean_cluster_distance(trace, compressed, compressor_config)
        template_counts[percent] = len(compressed.short_templates)
        distances[percent] = mean_distance
        rows.append(
            [
                f"{percent:.0f}",
                len(compressed.short_templates),
                f"{compressor.stats.hit_ratio():.1%}",
                f"{size / original:.2%}",
                f"{mean_distance:.2f}",
            ]
        )

    monotone_templates = all(
        template_counts[a] >= template_counts[b]
        for a, b in zip(THRESHOLD_PERCENTS, THRESHOLD_PERCENTS[1:])
    )
    loss_grows = distances[THRESHOLD_PERCENTS[-1]] >= distances[0.0]
    notes = [
        f"template count monotonically non-increasing with threshold: "
        f"{monotone_templates}",
        f"cluster lossiness grows with threshold: {loss_grows}",
        "0% threshold = exact-match clustering (zero template loss)",
    ]
    text = "\n".join(
        [
            "Ablation A2 — similarity threshold sweep (paper: 2%)",
            "",
            format_table(headers, rows),
            "",
            *notes,
        ]
    )
    return ExperimentResult(
        name="ablation_threshold",
        headers=headers,
        rows=rows,
        text=text,
        passed=monotone_templates and loss_grows,
        notes=notes,
    )
