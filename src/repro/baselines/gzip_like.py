"""The GZIP baseline.

The paper measures "the compressed file size obtained using the GZIP
application is 50% of the original TSH file size".  GZIP's payload is the
DEFLATE algorithm; Python's stdlib ``zlib`` is the very same codebase the
gzip tool links, so this wrapper *is* the paper's baseline.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.trace.trace import Trace


@dataclass(frozen=True)
class GzipCodec:
    """Lossless DEFLATE compression of a TSH-serialized trace."""

    level: int = 6  # the gzip default

    def __post_init__(self) -> None:
        if not 0 <= self.level <= 9:
            raise ValueError(f"zlib level must be 0..9: {self.level}")

    def compress(self, trace: Trace) -> bytes:
        """TSH-serialize then DEFLATE the trace."""
        return zlib.compress(trace.to_tsh_bytes(), self.level)

    def decompress(self, data: bytes) -> Trace:
        """Invert :meth:`compress` (lossless)."""
        return Trace.from_tsh_bytes(zlib.decompress(data))

    def ratio(self, trace: Trace) -> float:
        """compressed/original size on the TSH byte form."""
        original = trace.stored_size_bytes()
        if original == 0:
            return 0.0
        return len(self.compress(trace)) / original


def gzip_compressed_size(trace: Trace, level: int = 6) -> int:
    """Size in bytes of the DEFLATE-compressed TSH trace."""
    return len(GzipCodec(level).compress(trace))
