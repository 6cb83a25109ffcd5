"""End-to-end compression pipeline and ratio accounting.

Ties the compressor, codec and decompressor together and produces the
size/ratio report used throughout the evaluation (Figure 1 compares
compressed file sizes against the original TSH file size).

.. deprecated:: 1.1
    The one-shot entry points of this module (:func:`compress_to_bytes`,
    :func:`compress_stream_to_bytes`, :func:`decompress_from_bytes`,
    :func:`roundtrip`) are superseded by the :mod:`repro.api` façade —
    ``repro.open(path)`` sessions and :func:`repro.api.roundtrip`.  They
    remain as thin shims for one release: each emits a
    :class:`DeprecationWarning` and produces byte-identical output to
    the façade (pinned by ``tests/api/test_shim_compat.py``).  The
    report types (:class:`CompressionReport`, :func:`report_for`,
    :func:`report_for_stream`) are *not* deprecated — the façade returns
    them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.codec import dataset_sizes, deserialize_compressed, serialize_compressed
from repro.core.errors import warn_deprecated
from repro.core.compressor import CompressorConfig, compress_trace
from repro.core.datasets import CompressedTrace
from repro.core.decompressor import DecompressorConfig, decompress_trace
from repro.core.streaming import compress_stream
from repro.net.packet import PacketRecord
from repro.trace.trace import Trace
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


def compress_to_bytes(
    trace: Trace,
    config: CompressorConfig | None = None,
    *,
    backend: str | None = None,
    level: int | None = None,
) -> tuple[bytes, CompressedTrace]:
    """Compress a trace and serialize the result.

    .. deprecated:: 1.1  Use a ``repro.open(path).compress(dest)``
       session or the engine primitives directly.

    ``backend``/``level`` select the section backend codec for the
    container (``None`` = ``raw``, the paper's format; ``"auto"`` trials
    each registered backend per section) — see
    :mod:`repro.core.backends`.
    """
    warn_deprecated("compress_to_bytes", "repro.open(...).compress(...)")
    compressed = compress_trace(trace, config)
    return serialize_compressed(compressed, backend=backend, level=level), compressed


def compress_stream_to_bytes(
    packets: Iterable[PacketRecord],
    config: CompressorConfig | None = None,
    name: str = "compressed",
    *,
    backend: str | None = None,
    level: int | None = None,
) -> tuple[bytes, CompressedTrace]:
    """Compress a packet iterable and serialize, without materializing it.

    .. deprecated:: 1.1  Use a ``repro.open(path).compress(dest)``
       session or :func:`repro.core.streaming.compress_stream`.

    Byte-identical to :func:`compress_to_bytes` on the same packet
    sequence, name and backend — both paths run the same compressor and
    the same serializer.
    """
    warn_deprecated(
        "compress_stream_to_bytes", "repro.open(...).compress(...)"
    )
    compressed = compress_stream(packets, config, name=name)
    return serialize_compressed(compressed, backend=backend, level=level), compressed


def decompress_from_bytes(
    data: bytes, config: DecompressorConfig | None = None
) -> Trace:
    """Deserialize and decompress a container into a synthetic trace.

    .. deprecated:: 1.1  Use ``repro.open(path).export(dest)`` /
       ``.packets()`` or the engine primitives directly.
    """
    warn_deprecated("decompress_from_bytes", "repro.open(...).export/.packets")
    return decompress_trace(deserialize_compressed(data), config)


def report_for(trace: Trace, compressed: CompressedTrace, data: bytes) -> CompressionReport:
    """Build the size report for a finished compression."""
    return CompressionReport(
        original_bytes=trace.stored_size_bytes(),
        compressed_bytes=len(data),
        packet_count=len(trace),
        flow_count=compressed.flow_count(),
        short_templates=len(compressed.short_templates),
        long_templates=len(compressed.long_templates),
        dataset_bytes=dataset_sizes(compressed),
    )


def report_for_stream(compressed: CompressedTrace, data: bytes) -> CompressionReport:
    """The size report when no in-memory :class:`Trace` exists.

    Streaming and parallel compression never hold the input trace, but
    every sizing input survives in the datasets: the original TSH size is
    44 bytes per packet and ``original_packet_count`` counts every packet
    routed into a flow.  Matches :func:`report_for` field for field.
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


def roundtrip(
    trace: Trace,
    compressor_config: CompressorConfig | None = None,
    decompressor_config: DecompressorConfig | None = None,
) -> tuple[Trace, CompressionReport]:
    """Compress then decompress a trace; returns (trace', report).

    .. deprecated:: 1.1  Use :func:`repro.api.roundtrip`, which takes
       one layered :class:`repro.api.Options` instead of two configs.

    The output trace is *statistically* similar to the input (that is the
    paper's claim, validated in section 6), not byte-identical.
    """
    warn_deprecated("roundtrip", "repro.api.roundtrip")
    # Delegate to the canonical façade implementation (same primitives,
    # same output) — import deferred because repro.api imports us.
    from repro.api.options import Options
    from repro.api.ops import roundtrip as api_roundtrip

    return api_roundtrip(
        trace,
        Options(
            compressor=compressor_config or CompressorConfig(),
            decompressor=decompressor_config or DecompressorConfig(),
        ),
    )
