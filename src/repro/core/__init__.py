"""The paper's primary contribution: the flow-clustering trace compressor.

Section 3's compressor produces four datasets (``short-flows-template``,
``long-flows-template``, ``address``, ``time-seq``); section 4's
decompressor replays them into a synthetic trace that preserves the
semantic properties (flag sequences, dependence structure, payload
classes, destination locality, timing) the paper validates in section 6.

Like :mod:`repro` and :mod:`repro.api`, this package is PEP 562-lazy:
``import repro.core`` resolves nothing until an attribute is touched,
so light leaf modules (``repro.core.backends``, ``repro.core.errors``)
can be imported without dragging in the compressor.
"""

from __future__ import annotations

import importlib

_LAZY_EXPORTS = {
    "repro.core.datasets": (
        "AddressTable",
        "CompressedTrace",
        "DatasetId",
        "LongFlowTemplate",
        "ShortFlowTemplate",
        "TimeSeqRecord",
    ),
    "repro.core.compressor": (
        "CompressorConfig",
        "TemplateMatcher",
        "compress_trace",
    ),
    "repro.core.decompressor": (
        "DecompressorConfig",
        "FlowSpec",
        "decompress_trace",
        "flow_seed",
        "flow_specs",
        "synthesize_flow",
    ),
    "repro.core.replay": (
        "ReplayStats",
        "StreamingDecompressor",
        "iter_decompressed",
        "merge_packet_stream",
    ),
    "repro.core.codec": (
        "ContainerInfo",
        "ContainerWriteResult",
        "SectionInfo",
        "container_info",
        "deserialize_compressed",
        "read_compressed",
        "serialize_compressed",
        "serialize_compressed_v1",
        "write_compressed",
        "write_compressed_v1",
        "write_container",
    ),
    "repro.core.backends": (
        "AUTO",
        "BackendCodec",
        "available_backends",
        "backend_for_tag",
        "backend_names",
        "choose_backend",
        "get_backend",
        "register_backend",
    ),
    "repro.core.streaming": (
        "StreamingCompressor",
        "StreamingStats",
        "compress_stream",
        "compress_tsh_file",
    ),
    "repro.core.pipeline": (
        "CompressionReport",
        "compress_stream_to_bytes",
        "compress_to_bytes",
        "decompress_from_bytes",
        "report_for_stream",
        "roundtrip",
    ),
    "repro.core.generator": ("TraceModel",),
    "repro.core.errors": ("ArchiveError", "CodecError", "CompressionError"),
}

_NAME_TO_MODULE = {
    name: module for module, names in _LAZY_EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str):
    try:
        module_name = _NAME_TO_MODULE[name]
    except KeyError:
        from repro import _submodule_or_raise

        return _submodule_or_raise(__name__, name)
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAME_TO_MODULE})
