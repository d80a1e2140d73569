"""Central base-address registry: provably disjoint arena regions.

Before this layer existed, simulated base addresses were magic
constants scattered across the runtime: the thread backend placed node
spaces at ``(node + 1) << 40``, the process backend placed per-task
spaces at ``(rank + 1) << 36`` and the shared-segment baseline hard
coded ``1 << 45``.  The first two genuinely collide: rank 15's space
starts at ``16 << 36 == 1 << 40``, exactly node 0's base, so cache-sim
traces drawn from two *different* simulated spaces could alias.

The registry replaces all of them.  The address space above ``floor``
is carved into fixed-size regions; every arena reserves one region
under a unique name and receives ``(base, limit)``.  Reservations made
with :meth:`BaseAddressRegistry.reserve` are pairwise disjoint by
construction (a property the arena test suite checks).

:meth:`BaseAddressRegistry.reserve_shared` is the one sanctioned
exception: the isomalloc-style HLS segments of section IV-C must start
at the *same* virtual address on every node, so all callers of one
shared key receive the same region -- aliased on purpose, and only
across arenas that never exchange raw pointers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

#: default first region base; far above the legacy per-space bases so a
#: half-migrated call site would fault loudly in ``find`` rather than
#: silently alias
DEFAULT_FLOOR = 1 << 44
#: default region size (1 TiB of simulated addresses per arena)
DEFAULT_REGION_BYTES = 1 << 40


class BaseAddressRegistry:
    """Hands out disjoint ``(base, limit)`` regions to arenas."""

    def __init__(
        self,
        *,
        floor: int = DEFAULT_FLOOR,
        region_bytes: int = DEFAULT_REGION_BYTES,
    ) -> None:
        if floor <= 0 or region_bytes <= 0:
            raise ValueError("floor and region_bytes must be positive")
        if region_bytes & (region_bytes - 1):
            raise ValueError(
                f"region_bytes must be a power of two, got {region_bytes}"
            )
        self.region_bytes = region_bytes
        self._next = ((floor + region_bytes - 1) // region_bytes) * region_bytes
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._shared: Dict[str, Tuple[int, int]] = {}
        self._namespaces = 0
        self._lock = threading.Lock()

    def make_namespace(self, prefix: str = "rt") -> str:
        """A fresh namespace string (``rt0``, ``rt1``, ...).

        A registry shared between runtimes (the multi-tenant job
        service) hands each runtime a unique namespace; the memory
        manager prefixes every reservation name with it, so two
        runtimes' ``scope:...`` names can never collide in
        :meth:`reserve` -- and the per-namespace shared keys keep each
        runtime's isomalloc segments aliased only with *its own*
        nodes' segments, never a sibling job's."""
        with self._lock:
            ns = f"{prefix}{self._namespaces}"
            self._namespaces += 1
            return ns

    def _carve(self) -> Tuple[int, int]:
        base = self._next
        self._next = base + self.region_bytes
        return base, self._next

    def reserve(self, name: str) -> Tuple[int, int]:
        """Reserve a fresh region under ``name``; returns (base, limit).

        Names are unique: reserving the same name twice raises, so no
        two arenas can ever share a ``reserve``d range."""
        with self._lock:
            if name in self._regions:
                raise ValueError(f"region {name!r} already reserved")
            region = self._carve()
            self._regions[name] = region
            return region

    def reserve_shared(self, key: str) -> Tuple[int, int]:
        """The region for ``key``, carved on first use and returned
        verbatim to every later caller -- the isomalloc property (same
        virtual base on every node) for HLS shared segments."""
        with self._lock:
            got = self._shared.get(key)
            if got is None:
                got = self._carve()
                self._shared[key] = got
            return got

    def regions(self) -> List[Tuple[str, int, int]]:
        """All unique (non-shared) reservations as (name, base, limit),
        for the pairwise-disjointness property tests."""
        with self._lock:
            return [(n, b, l) for n, (b, l) in sorted(self._regions.items())]


__all__ = ["BaseAddressRegistry", "DEFAULT_FLOOR", "DEFAULT_REGION_BYTES"]
