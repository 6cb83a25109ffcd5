"""Typed exceptions of the :mod:`repro.api` façade.

Every failure a :func:`repro.open` session can raise derives from
:class:`ReproError`, so ``except repro.api.errors.ReproError`` is the
one catch a caller (including the CLI) needs.  Each subclass also
inherits the stdlib exception users would historically have seen —
:class:`MissingInputError` *is a* :class:`FileNotFoundError`, the
malformed-input errors *are* :class:`ValueError` — so pre-façade code
that caught the bare stdlib types keeps working through the
deprecation window.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error the façade raises."""


class MissingInputError(ReproError, FileNotFoundError):
    """An input path does not exist (or is not a regular file)."""


class UnknownFormatError(ReproError, ValueError):
    """A file's content matches none of the formats the façade opens.

    Also raised when content and suffix disagree — a ``.fctc`` path
    without the container magic is reported as a mismatch rather than
    guessed at, because misreading a trace as a container (or vice
    versa) produces garbage much later.
    """


class CorruptInputError(ReproError, ValueError):
    """A recognized input (container, archive, pcap) is truncated or malformed."""


class EmptyTraceError(ReproError, ValueError):
    """The input holds no packets (for example a zero-byte trace file)."""


class CapabilityError(ReproError, TypeError):
    """The requested verb is not supported by this store's source kind.

    The message names the verb, the kind, and the kinds that do support
    it — ``repro.open`` is capability-driven, not one class per format.
    """


class OptionsError(ReproError, ValueError):
    """An :class:`repro.api.Options` value or combination is invalid."""
