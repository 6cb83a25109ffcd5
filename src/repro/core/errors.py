"""Exception types of the core compressor."""


class CompressionError(Exception):
    """Raised when the compressor cannot process its input."""


class CodecError(Exception):
    """Raised when serialized compressed data is malformed."""


class ArchiveError(CodecError):
    """Raised when a segmented archive container is malformed or misused."""
