"""Set-associative LRU cache model.

Works on *line numbers* (byte address // line size); the hierarchy does
the division once.  Sets are kept as small recency-ordered lists (MRU
first), which beats numpy for the associativities real caches have
(<= 32 ways) and keeps the hot path allocation-free.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.topology import CacheSpec


class SetAssociativeCache:
    """One cache instance with LRU replacement.

    Statistics are monotone counters; :attr:`hits` + :attr:`misses`
    equals the number of :meth:`access` calls (an invariant the property
    tests check).  ``CacheHierarchy``'s generated access kernel inlines
    :meth:`access` and :meth:`fill` on ``_sets`` and the counters; a
    change of policy here must be made there too
    (``tests/test_memsim_kernel_equivalence.py`` compares the two).
    """

    __slots__ = (
        "spec", "name", "_sets", "_n_sets", "_ways",
        "hits", "misses", "evictions", "invalidations",
    )

    def __init__(self, spec: CacheSpec, *, name: str = "") -> None:
        self.spec = spec
        self.name = name or f"L{spec.level}"
        self._n_sets = spec.n_sets
        self._ways = spec.associativity
        # _sets[s] is a list of line numbers, most recently used first.
        self._sets: List[List[int]] = [[] for _ in range(self._n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ hot path
    def access(self, line: int) -> Optional[int]:
        """Touch ``line``; returns None on hit, else the evicted line
        (or -1 when the fill evicted nothing)."""
        s = self._sets[line % self._n_sets]
        try:
            s.remove(line)
        except ValueError:
            self.misses += 1
            s.insert(0, line)
            if len(s) > self._ways:
                self.evictions += 1
                return s.pop()
            return -1
        self.hits += 1
        s.insert(0, line)
        return None

    def probe(self, line: int) -> bool:
        """Does the cache currently hold ``line``?  (No LRU update.)"""
        return line in self._sets[line % self._n_sets]

    def fill(self, line: int) -> Optional[int]:
        """Insert ``line`` as MRU without counting a hit or miss;
        returns the evicted line if any."""
        s = self._sets[line % self._n_sets]
        if line in s:
            s.remove(line)
            s.insert(0, line)
            return None
        s.insert(0, line)
        if len(s) > self._ways:
            self.evictions += 1
            return s.pop()
        return None

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns True if it was held."""
        s = self._sets[line % self._n_sets]
        try:
            s.remove(line)
        except ValueError:
            return False
        self.invalidations += 1
        return True

    # ---------------------------------------------------------------- utility
    def flush(self) -> int:
        """Empty the cache; returns how many lines were dropped."""
        n = sum(len(s) for s in self._sets)
        for s in self._sets:
            s.clear()
        return n

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name}, {self.spec.size_bytes}B, "
            f"{self._ways}-way, hits={self.hits}, misses={self.misses})"
        )


__all__ = ["SetAssociativeCache"]
