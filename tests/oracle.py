"""Reference implementations the suites compare ``src/`` against.

**Collectives.**

Blocking and nonblocking collectives are the same code (deposit + wait
on :class:`repro.runtime.icoll.IcollState`), so comparing one with the
other proves nothing.  The independent implementation is the flat
:class:`repro.runtime.collectives.CollectiveState`, driven here by plain
threads through a ``Comm``-shaped handle so a test's ``main(ctx)`` runs
unchanged against either.

**Cache simulator.**  :class:`ReferenceHierarchy` is the per-access
implementation ``CacheHierarchy`` shipped with before the fused kernel:
one method call per level on plain ``SetAssociativeCache.access`` /
``fill`` / ``invalidate``, hit test by scanning the set, remote test by
scanning the holders.  Slow and obviously right.
"""

import threading
from types import SimpleNamespace

from repro.memsim.hierarchy import MEMORY_LEVEL, REMOTE_LEVEL, CacheHierarchy
from repro.runtime import SUM
from repro.runtime.collectives import CollectiveState
from repro.runtime.payload import clone


class RefComm:
    """One task's handle on the flat reference (blocking calls only)."""

    def __init__(self, state, rank):
        self._st = state
        self.rank = rank
        self.size = state.size

    def barrier(self):
        self._st.barrier(self.rank)

    def bcast(self, obj=None, root=0):
        return self._st.bcast(self.rank, obj, root)

    def gather(self, obj, root=0):
        return self._st.gather(self.rank, obj, root)

    def allgather(self, obj):
        return self._st.allgather(self.rank, obj)

    def scatter(self, objs=None, root=0):
        return self._st.scatter(self.rank, objs, root)

    def reduce(self, obj, op=SUM, root=0):
        return self._st.reduce(self.rank, obj, op, root)

    def allreduce(self, obj, op=SUM):
        return self._st.allreduce(self.rank, obj, op)

    def scan(self, obj, op=SUM):
        return self._st.scan(self.rank, obj, op)

    def alltoall(self, objs):
        return self._st.alltoall(self.rank, objs)


def run_reference(n, main, *args, timeout=20.0):
    """``Runtime(n_tasks=n).run(main, *args)`` on the flat reference:
    returns the per-rank results, re-raises the lowest rank's error."""
    abort = threading.Event()
    state = CollectiveState(n, abort, timeout=timeout, clone=clone)
    results = [None] * n
    errors = {}

    def body(rank):
        ctx = SimpleNamespace(rank=rank, size=n, comm_world=RefComm(state, rank))
        try:
            results[rank] = main(ctx, *args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[rank] = exc
            abort.set()

    threads = [threading.Thread(target=body, args=(r,)) for r in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=4 * timeout)
    assert not any(t.is_alive() for t in threads), "reference run hung"
    if errors:
        raise errors[min(errors)]
    return results


class ReferenceHierarchy(CacheHierarchy):
    """``CacheHierarchy`` with the kernel swapped for the per-access walk."""

    def access_run(self, pu, lines, *, write=False):
        for ln in lines:
            self._access_line(pu, ln, write)

    def _access_line(self, pu, line, write):
        path = self._path[pu]
        dirs = self._dir
        service = MEMORY_LEVEL
        for idx, (lvl, cid, cache) in enumerate(path):
            evicted = cache.access(line)
            if evicted is None:
                service = lvl
                self._hits[pu, idx] += 1
                break
            # miss: the access() call already filled the line
            d = dirs[lvl]
            holders = d.get(line)
            if holders is None:
                d[line] = {cid}
            else:
                holders.add(cid)
            if evicted != -1:
                ev_holders = d.get(evicted)
                if ev_holders is not None:
                    ev_holders.discard(cid)
                    if not ev_holders:
                        del d[evicted]
        else:
            # Missed everywhere in own hierarchy: remote cache or DRAM?
            # Own instances were just filled above, so exclude them.
            own_ids = {lvl: cid for lvl, cid, _ in path}
            for lvl in reversed(self.levels):
                holders = dirs[lvl].get(line)
                if holders and any(c != own_ids[lvl] for c in holders):
                    service = REMOTE_LEVEL
                    break
            if service == REMOTE_LEVEL:
                self._remote[pu] += 1
            else:
                self._mem[pu] += 1
                for d in range(1, self.prefetch_depth + 1):
                    self._prefetch_line(pu, line + d)
        if write:
            self._writes[pu] += 1
            own = {lvl: cid for lvl, cid, _ in path}
            sent = 0
            for lvl in self.levels:
                holders = dirs[lvl].get(line)
                if not holders:
                    continue
                mine = own[lvl]
                others = [c for c in holders if c != mine]
                for cid in others:
                    self.caches[lvl][cid].invalidate(line)
                    holders.discard(cid)
                    sent += 1
                if not holders:
                    del dirs[lvl][line]
            self._inval_sent[pu] += sent
        return service

    def _prefetch_line(self, pu, line):
        """Fill ``line`` into the PU's hierarchy without access stats."""
        dirs = self._dir
        for lvl, cid, cache in self._path[pu]:
            if cache.probe(line):
                continue
            evicted = cache.fill(line)
            d = dirs[lvl]
            holders = d.get(line)
            if holders is None:
                d[line] = {cid}
            else:
                holders.add(cid)
            if evicted is not None:
                ev = d.get(evicted)
                if ev is not None:
                    ev.discard(cid)
                    if not ev:
                        del d[evicted]
        self.prefetches += 1
