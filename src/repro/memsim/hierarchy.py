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

import linecache
import textwrap
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple

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


# ------------------------------------------------------------ access kernel
# ``CacheHierarchy``'s one access kernel, generated per path depth (the
# way ``collections.namedtuple`` builds its class): the walk through the
# levels is straight-line code, one copy of a per-level block each, with
# the level's set lists, directory and counters in locals ``S0, D0,
# hit0, ...``.  Nothing machine-specific is in the source -- the locals
# are unpacked from ``_kpath[pu]`` when a run starts -- so every
# hierarchy of one depth shares one function.  ``_k`` in a block is the
# level index.

#: Evict the LRU line of set ``s`` if the fill overflowed it.
_EVICT = """\
if len(s) > W_k:
    ev_k += 1
    old = s.pop()
    h = D_k[old]
    if len(h) == 1:
        del D_k[old]
    else:
        h.remove(I_k)
"""

#: Demand access to ``line`` at one level: a hit leaves the walk (the
#: ``while`` around it), a miss fills and falls through to the next level.
_DEMAND = """\
s = S_k[line % N_k]
h = D_k.get(line)
if h is None:
    D_k[line] = {I_k}
elif I_k in h:
    if s[0] != line:
        s.remove(line)
        s.insert(0, line)
    hit_k += 1
    sv = L_k
    break
else:
    h.add(I_k)
    sv = REMOTE_LEVEL
s.insert(0, line)
""" + _EVICT

#: Prefetch fill of ``q`` at one level: a held line is left alone.
_PREFETCH = """\
h = D_k.get(q)
if h is None or I_k not in h:
    if h is None:
        D_k[q] = {I_k}
    else:
        h.add(I_k)
    s = S_k[q % N_k]
    s.insert(0, q)
""" + textwrap.indent(_EVICT, "    ")

#: Write-invalidate of ``line`` in every other instance at one level.
_INVALIDATE = """\
h = D_k.get(line)
if h is not None and (len(h) > 1 or I_k not in h):
    sent += _invalidate(caches[L_k], h, I_k, line, D_k)
"""

#: Counters of one level, flushed once per run: ``reached`` is how many
#: lines of the run got as far as this level.
_FLUSH = """\
self._hits[pu, _k] += hit_k
C_k.hits += hit_k
C_k.misses += reached - hit_k
C_k.evictions += ev_k
reached -= hit_k
"""

_KERNEL = """\
def _run(self, pu, lines, write):
    [{levels}] = self._kpath[pu]
    caches = self.caches
    P = self.prefetch_depth
    {zero} = remote = mem = sent = 0
    sv = MEMORY_LEVEL
    for line in lines:
        sv = MEMORY_LEVEL
        while True:    # the walk: a hit breaks out of it
{demand}\
            if sv == REMOTE_LEVEL:
                remote += 1
            else:
                mem += 1
                if P:
                    for q in range(line + 1, line + 1 + P):
{prefetch}\
            break
        if write:
{invalidate}\
    n = reached = {n}
{flush}\
    self._remote[pu] += remote
    self._mem[pu] += mem
    self.prefetches += P * mem
    if write:
        self._writes[pu] += n
        self._inval_sent[pu] += sent
    return sv
"""

_KERNELS: Dict[int, Callable[..., int]] = {}


def _invalidate(
    instances: List[SetAssociativeCache], holders: Set[int], cid: int,
    line: int, d: Dict[int, Set[int]],
) -> int:
    """Drop ``line`` from every instance in ``holders`` but ``cid``;
    returns how many were invalidated."""
    sent = 0
    for other in tuple(holders):
        if other != cid:
            instances[other].invalidate(line)
            holders.remove(other)
            sent += 1
    if not holders:
        del d[line]
    return sent


def _kernel(depth: int) -> Callable[..., int]:
    """The access kernel for hierarchies ``depth`` levels deep (built
    once, then shared); see :meth:`CacheHierarchy.access_run`."""
    fn = _KERNELS.get(depth)
    if fn is not None:
        return fn

    def blocks(template: str, indent: int) -> str:
        return "".join(
            textwrap.indent(template.replace("_k", str(k)), " " * indent)
            for k in range(depth)
        )

    src = _KERNEL.format(
        levels=", ".join(f"(L{k}, I{k}, C{k}, S{k}, N{k}, W{k}, D{k})"
                         for k in range(depth)),
        zero=" = ".join(f"hit{k} = ev{k}" for k in range(depth)),
        demand=blocks(_DEMAND, 12),
        prefetch=blocks(_PREFETCH, 24),
        invalidate=blocks(_INVALIDATE, 12),
        n=" + ".join([f"hit{k}" for k in range(depth)] + ["remote", "mem"]),
        flush=blocks(_FLUSH, 4),
    )
    filename = f"<memsim kernel, depth {depth}>"
    namespace = {
        "MEMORY_LEVEL": MEMORY_LEVEL,
        "REMOTE_LEVEL": REMOTE_LEVEL,
        "_invalidate": _invalidate,
    }
    exec(compile(src, filename, "exec"), namespace)
    # mtime None: linecache.checkcache keeps the entry, so tracebacks
    # and profilers can show the generated lines
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    # setdefault: of two threads building one depth, both keep the first
    return _KERNELS.setdefault(depth, namespace["_run"])


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
        if not self.levels:
            raise ValueError(
                f"machine {machine.name!r} has no caches: a CacheHierarchy "
                "needs at least one cache level")
        line = {machine.caches[lvl].line_bytes for lvl in self.levels}
        if len(line) != 1:
            raise ValueError(f"heterogeneous line sizes unsupported: {line}")
        self.line_bytes = line.pop()
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
        # mutated in place, so the references stay good across flushes),
        # and _kernel the generated walk for a path this deep.
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
        self._kernel = _kernel(len(self.levels))
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
        """Simulate a run of accesses given as *line numbers* (hot path).

        Every entry point ends in the access kernel (``_kernel``, the
        generated ``_run`` for this hierarchy's depth), which walks
        ``lines`` for one PU with the LRU hit/fill/evict and the
        directory update inlined, and returns the last service level.
        It leans on three invariants (DESIGN.md section 7): the
        directory mirrors the cache contents exactly, so ``cid in
        holders`` *is* the hit test and an evicted line always has a
        directory entry; ``lines`` are Python ints, so no NumPy scalar
        ever reaches a set list or a directory key; and every counter of
        this PU and of its own cache instances lives in locals until the
        run ends (only the invalidations a write sends are counted in
        place, by the other instances).  A DRAM miss issues the prefetch fill
        (``prefetch_depth`` lines) inside the same walk: a held line is
        left alone, and only evictions and ``prefetches`` are counted.
        """
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()    # Python ints only: see above
        self._kernel(self, pu, lines, write)

    def _access_line(self, pu: int, line: int, write: bool) -> int:
        return self._kernel(self, pu, (int(line),), write)

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
