"""Memory-performance instrumentation (section 6).

The paper instruments the Radix-Tree benchmarks with ATOM, placing
"checkpoints ... at the beginning and at the end of the packet
processing" and recording "the number of memory accesses performed by
each packet", then measures cache miss rates.  This subpackage provides
the equivalent simulation substrate:

* :mod:`repro.memsim.memory` — a simulated heap that gives every data
  structure node a stable address;
* :mod:`repro.memsim.access` — the checkpointed access recorder;
* :mod:`repro.memsim.cache` — a set-associative LRU cache replaying
  recorded address traces;
* :mod:`repro.memsim.metrics` — per-packet access/miss statistics and
  the Figure 2/3 aggregations.
"""

from repro.memsim.memory import SimulatedHeap
from repro.memsim.access import AccessRecorder, PacketAccessTrace
from repro.memsim.cache import CacheConfig, CacheStatistics, SetAssociativeCache
from repro.memsim.metrics import (
    MISS_RATE_BUCKETS,
    PacketMemoryMetrics,
    TraceMemoryProfile,
    bucket_miss_rates,
    profile_from_recorder,
)

__all__ = [
    "SimulatedHeap",
    "AccessRecorder",
    "PacketAccessTrace",
    "CacheConfig",
    "CacheStatistics",
    "SetAssociativeCache",
    "MISS_RATE_BUCKETS",
    "PacketMemoryMetrics",
    "TraceMemoryProfile",
    "bucket_miss_rates",
    "profile_from_recorder",
]
