"""Multi-core cache hierarchy with write-invalidate coherence.

One :class:`CacheHierarchy` instantiates a
:class:`~repro.memsim.cache.SetAssociativeCache` per cache instance of a
:class:`~repro.machine.topology.Machine` (private L1/L2 per core, shared
LLC per socket, ...) plus a per-level *line directory* mapping each
cached line to the set of instances holding it.  The directory drives a
MESI-style protocol reduced to what the paper's experiments exercise:

* a **write** by one PU invalidates the line in every *other* cache
  instance at every level (cores sharing the writer's LLC keep their LLC
  copy, because it is the same instance -- exactly why the paper's
  ``numa`` scope survives table updates while ``node`` scope does not);
* a **read miss** that finds the line in another socket's cache is
  served remotely (cache-to-cache transfer), cheaper than DRAM but far
  costlier than a local LLC hit.

Service levels: ``1..llc`` = own cache hit at that level,
:data:`REMOTE_LEVEL` = another instance's cache, :data:`MEMORY_LEVEL` =
DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.machine.topology import Machine
from repro.memsim.cache import SetAssociativeCache

MEMORY_LEVEL = 0
REMOTE_LEVEL = -1


@dataclass
class AccessStats:
    """Per-PU access profile produced by a simulation run.

    ``hits[pu, level-1]`` counts own-hierarchy hits at ``level``;
    ``remote``/``mem`` count remote-cache and DRAM services; ``writes``
    counts write accesses (a subset of the total); ``invalidations_sent``
    counts coherence invalidations triggered by this PU's writes.
    """

    n_pus: int
    llc_level: int
    hits: np.ndarray               # (n_pus, llc_level) int64
    remote: np.ndarray             # (n_pus,) int64
    mem: np.ndarray                # (n_pus,) int64
    writes: np.ndarray             # (n_pus,) int64
    invalidations_sent: np.ndarray  # (n_pus,) int64

    def __sub__(self, other: "AccessStats") -> "AccessStats":
        """Stats delta (e.g. one phase of a phased simulation)."""
        return AccessStats(
            n_pus=self.n_pus,
            llc_level=self.llc_level,
            hits=self.hits - other.hits,
            remote=self.remote - other.remote,
            mem=self.mem - other.mem,
            writes=self.writes - other.writes,
            invalidations_sent=self.invalidations_sent - other.invalidations_sent,
        )

    @property
    def accesses(self) -> np.ndarray:
        return self.hits.sum(axis=1) + self.remote + self.mem

    def total_accesses(self) -> int:
        return int(self.accesses.sum())

    def miss_ratio(self, pu: int) -> float:
        """Fraction of PU's accesses not served by its own hierarchy."""
        total = int(self.accesses[pu])
        if total == 0:
            return 0.0
        return float(self.remote[pu] + self.mem[pu]) / total


class CacheHierarchy:
    """Simulated caches + coherence for one machine (or one node of it).

    ``prefetch_depth`` enables a next-line prefetcher: a demand miss
    that goes to memory also fills the following ``prefetch_depth``
    lines (not counted as accesses), converting subsequent misses of a
    streaming sweep into hits -- the hardware feature that makes real
    streaming kernels latency-tolerant.
    """

    def __init__(self, machine: Machine, *, prefetch_depth: int = 0) -> None:
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.prefetch_depth = prefetch_depth
        self.prefetches = 0
        self.machine = machine
        self.levels: Tuple[int, ...] = tuple(sorted(machine.caches))
        self.llc_level = machine.llc_level
        line = {machine.caches[lvl].line_bytes for lvl in self.levels}
        if len(line) != 1:
            raise ValueError(f"heterogeneous line sizes unsupported: {line}")
        self.line_bytes = line.pop() if line else 64
        # caches[level][instance id] -> cache object
        self.caches: Dict[int, List[SetAssociativeCache]] = {}
        for lvl in self.levels:
            n = machine.cache_instances(lvl)
            self.caches[lvl] = [
                SetAssociativeCache(machine.caches[lvl], name=f"L{lvl}#{i}")
                for i in range(n)
            ]
        # directory[level][line] = set of instance ids holding the line
        self._dir: Dict[int, Dict[int, Set[int]]] = {lvl: {} for lvl in self.levels}
        # Per-PU path through the hierarchy, precomputed for the hot loop;
        # _kpath is the same walk with everything the kernel touches
        # already looked up (set lists and directories are only ever
        # mutated in place, so the references stay good across flushes).
        self._path: List[Tuple[Tuple[int, int, SetAssociativeCache], ...]] = []
        self._kpath: List[Tuple[tuple, ...]] = []
        for pu in machine.pus:
            path = []
            for lvl in self.levels:
                cid = pu.cache_id(lvl)
                path.append((lvl, cid, self.caches[lvl][cid]))
            self._path.append(tuple(path))
            self._kpath.append(tuple(
                (lvl, cid, c, c._sets, c._n_sets, c._ways, self._dir[lvl])
                for lvl, cid, c in path
            ))
        n = machine.n_pus
        nl = len(self.levels)
        self._hits = np.zeros((n, nl), dtype=np.int64)
        self._remote = np.zeros(n, dtype=np.int64)
        self._mem = np.zeros(n, dtype=np.int64)
        self._writes = np.zeros(n, dtype=np.int64)
        self._inval_sent = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ core
    def access(self, pu: int, addr: int, *, write: bool = False) -> int:
        """Simulate one access to byte address ``addr``; returns the
        service level (1..llc, REMOTE_LEVEL or MEMORY_LEVEL)."""
        return self._access_line(pu, addr // self.line_bytes, write)

    def access_run(
        self, pu: int, lines: Iterable[int], *, write: bool = False
    ) -> None:
        """Simulate a run of accesses given as *line numbers* (hot path)."""
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()    # Python ints only: see _run
        self._run(pu, lines, write)

    def _access_line(self, pu: int, line: int, write: bool) -> int:
        return self._run(pu, (int(line),), write)

    def _run(
        self, pu: int, lines: Iterable[int], write: bool, demand: bool = True
    ) -> int:
        """The access kernel: every entry point ends here.

        Walks ``lines`` for one PU with the LRU hit/fill/evict and the
        directory update inlined, and returns the last service level.
        It leans on three invariants (DESIGN.md section 7): the
        directory mirrors the cache contents exactly, so ``cid in
        holders`` *is* the hit test and an evicted line always has a
        directory entry; ``lines`` are Python ints, so no NumPy scalar
        ever reaches a set list or a directory key; and the per-PU
        counters live in locals until the run ends.  ``demand=False`` is
        the prefetch fill, which the kernel issues to itself on a DRAM
        miss: same walk, but a held line is left alone (no LRU move, no
        stop at the first hit) and only evictions and ``prefetches``
        are counted.
        """
        path = self._kpath[pu]
        caches = self.caches
        depth = self.prefetch_depth if demand else 0
        served = dict.fromkeys((MEMORY_LEVEL, REMOTE_LEVEL) + self.levels, 0)
        sent = 0
        service = MEMORY_LEVEL
        for line in lines:
            service = MEMORY_LEVEL
            for lvl, cid, cache, sets, n_sets, ways, d in path:
                s = sets[line % n_sets]
                holders = d.get(line)
                if holders is None:
                    d[line] = {cid}
                elif cid in holders:
                    if not demand:
                        continue
                    if s[0] != line:
                        s.remove(line)
                        s.insert(0, line)
                    cache.hits += 1
                    service = lvl
                    break
                else:
                    holders.add(cid)
                    service = REMOTE_LEVEL    # some other instance has it
                cache.misses += demand
                s.insert(0, line)
                if len(s) > ways:
                    cache.evictions += 1
                    evicted = s.pop()
                    holders = d[evicted]
                    if len(holders) == 1:
                        del d[evicted]
                    else:
                        holders.remove(cid)
            served[service] += 1
            if depth and service == MEMORY_LEVEL:
                self._run(pu, range(line + 1, line + 1 + depth), False, False)
            if write:
                for lvl, cid, _c, _s, _n, _w, d in path:
                    holders = d.get(line)
                    if holders is None or (len(holders) == 1 and cid in holders):
                        continue
                    for other in tuple(holders):
                        if other != cid:
                            caches[lvl][other].invalidate(line)
                            holders.remove(other)
                            sent += 1
                    if not holders:
                        del d[line]
        n = sum(served.values())
        if not demand:
            self.prefetches += n
            return service
        for idx, lvl in enumerate(self.levels):
            self._hits[pu, idx] += served[lvl]
        self._remote[pu] += served[REMOTE_LEVEL]
        self._mem[pu] += served[MEMORY_LEVEL]
        if write:
            self._writes[pu] += n
            self._inval_sent[pu] += sent
        return service

    # ---------------------------------------------------------------- helpers
    def touch_range(self, pu: int, addr: int, nbytes: int, *, write: bool = False) -> None:
        """Access every line of ``[addr, addr+nbytes)`` once, in order."""
        if nbytes <= 0:
            return
        first = addr // self.line_bytes
        last = (addr + nbytes - 1) // self.line_bytes
        self.access_run(pu, range(first, last + 1), write=write)

    def flush_all(self) -> None:
        for lvl in self.levels:
            for c in self.caches[lvl]:
                c.flush()
        for lvl in self.levels:
            self._dir[lvl].clear()

    def reset_stats(self) -> None:
        self.prefetches = 0
        self._hits[:] = 0
        self._remote[:] = 0
        self._mem[:] = 0
        self._writes[:] = 0
        self._inval_sent[:] = 0
        for lvl in self.levels:
            for c in self.caches[lvl]:
                c.reset_stats()

    def stats(self) -> AccessStats:
        return AccessStats(
            n_pus=self.machine.n_pus,
            llc_level=self.llc_level,
            hits=self._hits.copy(),
            remote=self._remote.copy(),
            mem=self._mem.copy(),
            writes=self._writes.copy(),
            invalidations_sent=self._inval_sent.copy(),
        )

    def directory_holders(self, level: int, addr: int) -> Set[int]:
        """Instance ids holding the line of ``addr`` at ``level`` (for tests)."""
        return set(self._dir[level].get(addr // self.line_bytes, set()))


__all__ = ["CacheHierarchy", "AccessStats", "MEMORY_LEVEL", "REMOTE_LEVEL"]
