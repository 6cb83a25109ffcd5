"""repro — reproduction of the ISPASS 2005 flow-clustering trace compressor.

Public API highlights
---------------------

* :func:`repro.open` — the one way in: open any supported input (TSH,
  pcap, ``.fctc`` container, ``.fctca`` archive) as a
  :class:`~repro.api.store.TraceStore` session with a uniform surface
  (``compress`` / ``packets`` / ``flows`` / ``query`` / ``append`` /
  ``export`` / ``info``).  See :mod:`repro.api` and ``docs/API.md``.
* :mod:`repro.core` — the paper's compressor/decompressor engine.
* :mod:`repro.synth` — synthetic Web traffic (RedIRIS-like substitute).
* :mod:`repro.baselines` — GZIP/deflate, Van Jacobson, Peuhkuri codecs
  and the analytic ratio models of section 5.
* :mod:`repro.routing` / :mod:`repro.memsim` — the Radix-Tree benchmark
  applications and the memory/cache instrumentation of section 6.
* :mod:`repro.experiments` — one module per paper figure/table.

This module is PEP 562-lazy: ``import repro`` loads no subsystem (not
even :class:`Trace`); the first attribute access does.  ``import
repro`` must stay cheap enough for CLI startup — a regression test pins
that no heavy module (``lzma``, ``bz2``, ...) is pulled in
eagerly.
"""

from __future__ import annotations

import importlib
import logging

__version__ = "1.4.0"

# Library-standard logging posture: the package logger stays silent
# unless the application (or the CLI's -v/-q flags) attaches a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())

# name → (module, attribute) resolved on first access.
_LAZY_EXPORTS = {
    "open": ("repro.api.store", "open_store"),
    "Options": ("repro.api.options", "Options"),
    "PacketRecord": ("repro.net.packet", "PacketRecord"),
    "Trace": ("repro.trace.trace", "Trace"),
}

__all__ = ["__version__", "api", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        return _submodule_or_raise(__name__, name)
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def _submodule_or_raise(package: str, name: str):
    """Resolve ``package.name`` as a submodule, as eager imports once did.

    Pre-1.1 the package imported its submodules eagerly, so
    ``import repro; repro.net`` worked without a dedicated import.  The
    lazy layout keeps that contract by importing the submodule on first
    attribute access; a name that is neither raises AttributeError.
    """
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            # Only swallow "no such submodule"; a ModuleNotFoundError
            # raised *inside* the submodule's own imports is a real
            # failure and must surface, not masquerade as a bad name.
            if exc.name != f"{package}.{name}":
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_EXPORTS, "api"})
