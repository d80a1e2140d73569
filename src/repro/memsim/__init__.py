"""Trace-driven memory-hierarchy simulator.

The paper's cache-footprint experiments (Table I, Figure 3) run on real
Nehalem-EX hardware; this package is the software stand-in.  It provides:

* :mod:`~repro.memsim.address_space` -- a simulated virtual address
  space with an allocator, so every variable in the reproduction has a
  concrete address range and the cache simulator sees realistic layouts.
* :mod:`~repro.memsim.cache` -- a set-associative LRU cache.
* :mod:`~repro.memsim.hierarchy` -- per-machine cache hierarchy with
  private L1/L2, shared LLC per socket, and MESI-style write-invalidate
  coherence tracked through a line directory.
* :mod:`~repro.memsim.timing` -- a latency + bandwidth-contention cost
  model turning per-PU access profiles into cycle counts and parallel
  efficiency, and :func:`run_phase`, the one driver that feeds a phase's
  per-PU traces through the hierarchy and costs it.
* :mod:`~repro.memsim.traces` -- access-trace generators (uniform random
  table lookups, streaming sweeps, blocked matrix multiply).

The simulator works at cache-line granularity, so workload and cache
sizes can be scaled down together without changing which working sets
fit where -- the property all the paper's shapes rest on.
"""

from repro.memsim.address_space import AddressSpace, AddressSpaceExhausted, Allocation
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.hierarchy import CacheHierarchy, AccessStats, MEMORY_LEVEL, REMOTE_LEVEL
from repro.memsim.timing import TimingModel, RunTiming, run_phase
from repro.memsim.traces import (
    interleave_round_robin,
    random_table_trace,
    stream_trace,
    stream_lines,
    blocked_matmul_trace,
)

__all__ = [
    "AddressSpace",
    "AddressSpaceExhausted",
    "Allocation",
    "SetAssociativeCache",
    "CacheHierarchy",
    "AccessStats",
    "MEMORY_LEVEL",
    "REMOTE_LEVEL",
    "TimingModel",
    "RunTiming",
    "run_phase",
    "interleave_round_robin",
    "random_table_trace",
    "stream_trace",
    "stream_lines",
    "blocked_matmul_trace",
]
