"""Ratio accounting for one compression run.

Produces the size/ratio report used throughout the evaluation (Figure 1
compares compressed file sizes against the original TSH file size).
The :mod:`repro.api` façade returns these reports from its compress
verbs and from :func:`repro.api.roundtrip`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.codec import dataset_sizes
from repro.core.datasets import CompressedTrace
from repro.trace.tsh import tsh_file_size


@dataclass(frozen=True)
class CompressionReport:
    """Sizes and derived ratios for one compression run."""

    original_bytes: int
    compressed_bytes: int
    packet_count: int
    flow_count: int
    short_templates: int
    long_templates: int
    dataset_bytes: dict[str, int]

    @property
    def ratio(self) -> float:
        """compressed/original — the paper's 'compression ratio' (~0.03)."""
        if self.original_bytes == 0:
            return 0.0
        return self.compressed_bytes / self.original_bytes

    @property
    def ratio_percent(self) -> float:
        """The ratio as a percentage (paper: 'around 3%')."""
        return 100.0 * self.ratio

    def summary_lines(self) -> list[str]:
        """Human-readable report."""
        lines = [
            f"original size   : {self.original_bytes} B",
            f"compressed size : {self.compressed_bytes} B",
            f"ratio           : {self.ratio_percent:.2f}% (paper: ~3%)",
            f"packets         : {self.packet_count}",
            f"flows           : {self.flow_count}",
            f"short templates : {self.short_templates}",
            f"long templates  : {self.long_templates}",
        ]
        for dataset, size in self.dataset_bytes.items():
            if dataset != "total":
                lines.append(f"  {dataset:<22}: {size} B")
        return lines


def report_for_stream(compressed: CompressedTrace, data: bytes) -> CompressionReport:
    """Build the size report for a finished compression.

    Every sizing input survives in the datasets, so no input trace is
    needed: the original TSH size is 44 bytes per packet and
    ``original_packet_count`` counts every packet routed into a flow.
    """
    return CompressionReport(
        original_bytes=tsh_file_size(compressed.original_packet_count),
        compressed_bytes=len(data),
        packet_count=compressed.original_packet_count,
        flow_count=compressed.flow_count(),
        short_templates=len(compressed.short_templates),
        long_templates=len(compressed.long_templates),
        dataset_bytes=dataset_sizes(compressed),
    )
