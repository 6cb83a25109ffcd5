"""Deterministic per-host header properties.

Real traces carry per-host diversity that synthetic traces easily miss —
and that diversity is load-bearing for the GZIP baseline: a trace whose
TTL is always 64, window always 65535 and checksum always 0 deflates far
better than anything captured on a real link, which would invert the
paper's GZIP-vs-VJ ordering.

TTL and window are derived *deterministically from the IP address* so
that (a) a host looks like itself every time it appears, exactly like
reality, and (b) the decompressor can re-derive the same values for the
addresses it preserves.
"""

from __future__ import annotations

_FNV_PRIME = 0x01000193
_FNV_BASIS = 0x811C9A5

COMMON_WINDOWS = (5840, 8760, 16384, 17520, 32120, 64240, 65535)
"""Advertised windows seen in the wild (MSS multiples and OS defaults)."""

INITIAL_TTLS = (64, 128, 255)
"""Common initial TTL values by OS family."""


def _host_hash(address: int) -> int:
    """A stable 32-bit hash of an IPv4 address."""
    value = _FNV_BASIS
    for shift in (0, 8, 16, 24):
        value ^= (address >> shift) & 0xFF
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value

def plausible_ttl(address: int) -> int:
    """The TTL packets from this host show at the capture point.

    An OS-typical initial TTL minus a stable 1..24 hop distance.
    """
    return _ttl(_host_hash(address))


def plausible_window(address: int) -> int:
    """The advertised TCP window this host uses."""
    return _window(_host_hash(address))


def host_properties(address: int) -> tuple[int, int]:
    """``(plausible_ttl(address), plausible_window(address))``, hashed once."""
    digest = _host_hash(address)
    return _ttl(digest), _window(digest)


def _ttl(digest: int) -> int:
    initial = INITIAL_TTLS[digest % len(INITIAL_TTLS)]
    hops = 1 + (digest >> 8) % 24
    return initial - hops


def _window(digest: int) -> int:
    return COMMON_WINDOWS[(digest >> 16) % len(COMMON_WINDOWS)]
