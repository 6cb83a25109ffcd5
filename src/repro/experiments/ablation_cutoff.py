"""Ablation A3 — the short/long flow cutoff (the paper's 50 packets).

Short flows are clustered; long flows are stored verbatim with their
inter-packet times.  Lowering the cutoff pushes more flows into the
expensive verbatim path; raising it clusters longer flows whose vectors
rarely match ("the probability of find two identical V_f vectors is
really very low"), inflating the short-template dataset instead.  The
sweep shows where the paper's 50 sits on that curve.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.codec import dataset_sizes, serialize_compressed
from repro.core.compressor import CompressorConfig
from repro.core.streaming import StreamingCompressor
from repro.experiments.common import ExperimentConfig, ExperimentResult, standard_trace

CUTOFFS = [10, 25, 50, 100, 200]


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Sweep the short/long cutoff over the standard trace."""
    config = config or ExperimentConfig()
    trace = standard_trace(config)
    original = trace.stored_size_bytes()

    headers = [
        "cutoff",
        "short_flows",
        "long_flows",
        "short_templates",
        "short_tmpl_B",
        "long_tmpl_B",
        "ratio",
    ]
    rows: list[list[object]] = []
    ratios: dict[int, float] = {}

    for cutoff in CUTOFFS:
        compressor = StreamingCompressor(CompressorConfig(short_flow_max=cutoff))
        compressor.feed(trace.packets)
        compressed = compressor.finish()
        size = len(serialize_compressed(compressed))
        sizes = dataset_sizes(compressed)
        ratios[cutoff] = size / original
        rows.append(
            [
                cutoff,
                compressor.stats.short_flows,
                compressor.stats.long_flows,
                len(compressed.short_templates),
                sizes["short_flows_template"],
                sizes["long_flows_template"],
                f"{size / original:.2%}",
            ]
        )

    all_in_band = all(ratio < 0.10 for ratio in ratios.values())
    notes = [
        "paper's cutoff (50) ratio: " f"{ratios[50]:.2%}",
        f"every cutoff stays below 10% of the original size: {all_in_band}",
    ]
    text = "\n".join(
        [
            "Ablation A3 — short/long cutoff sweep (paper: 50 packets)",
            "",
            format_table(headers, rows),
            "",
            *notes,
        ]
    )
    return ExperimentResult(
        name="ablation_cutoff",
        headers=headers,
        rows=rows,
        text=text,
        passed=all_in_band,
        notes=notes,
    )
