"""Baseline compressors and analytic models (section 5).

Figure 1 compares the proposed method against GZIP, the (modified) Van
Jacobson RFC 1144 header compressor and Peuhkuri's flow-based lossy
method.  All three baselines are implemented here as working codecs —
GZIP as stdlib ``zlib``, the DEFLATE codebase the gzip tool links — plus
the closed-form ratio models of equations 5–8.
"""

from repro.baselines.gzip_like import GzipCodec, gzip_compressed_size
from repro.baselines.vanjacobson import VanJacobsonCodec, VJConfig
from repro.baselines.peuhkuri import PeuhkuriCodec, PeuhkuriConfig
from repro.baselines.models import (
    GZIP_RATIO_ESTIMATE,
    PEUHKURI_RATIO_BOUND,
    CompressionModel,
    proposed_model,
    proposed_ratio_for_length,
    vj_model,
    vj_ratio_for_length,
    weighted_ratio,
)

__all__ = [
    "GzipCodec",
    "gzip_compressed_size",
    "VanJacobsonCodec",
    "VJConfig",
    "PeuhkuriCodec",
    "PeuhkuriConfig",
    "GZIP_RATIO_ESTIMATE",
    "PEUHKURI_RATIO_BOUND",
    "CompressionModel",
    "proposed_model",
    "proposed_ratio_for_length",
    "vj_model",
    "vj_ratio_for_length",
    "weighted_ratio",
]
