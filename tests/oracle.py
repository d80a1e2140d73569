"""Reference implementations the suites compare ``src/`` against.

**Collectives.**

Blocking and nonblocking collectives are the same code (deposit + wait
on :class:`repro.runtime.icoll.IcollState`), so comparing one with the
other proves nothing.  The independent implementation is the flat
:class:`CollectiveState`: a blackboard guarded by a condition variable
and a generation-counting barrier.  The protocol for every data
collective is *write -> barrier -> read -> barrier*: the second barrier
guarantees the blackboard is not overwritten by a subsequent collective
before every task has read it.  Value semantics come from cloning on the
read side; reductions fold in ascending rank order and clone every
contribution at the fold boundary, which is the order and discipline the
engine must reproduce bit for bit.  It is driven here by plain threads
through a ``Comm``-shaped handle so a test's ``main(ctx)`` runs
unchanged against either.

**Matcher.**  :class:`LinearMatcher` is the seed-era pending-message
store: one arrival-order list, O(pending) scan per receive.  The
property suite assigns it to a mailbox (``mbox.matcher =
LinearMatcher()``) and requires :class:`IndexedMatcher` to deliver the
same messages in the same order.

**Cache simulator.**  :class:`ReferenceHierarchy` is the per-access
implementation ``CacheHierarchy`` shipped with before the fused kernel:
one method call per level on plain ``SetAssociativeCache.access`` /
``fill`` / ``invalidate``, hit test by scanning the set, remote test by
scanning the holders.  Slow and obviously right.
"""

import threading
import time
from types import SimpleNamespace
from typing import Any, Callable, List, Optional

from repro.memsim.hierarchy import MEMORY_LEVEL, REMOTE_LEVEL, CacheHierarchy
from repro.runtime import SUM
from repro.runtime.abort import Watchdog, subscribe_abort
from repro.runtime.errors import CountMismatchError
from repro.runtime.message import Envelope
from repro.runtime.ops import Op
from repro.runtime.payload import clone


class CollectiveState:
    """Flat blackboard + barrier shared by the tasks of one communicator."""

    def __init__(
        self,
        size: int,
        abort_flag: threading.Event,
        *,
        timeout: float = 30.0,
        clone: Callable[[Any], Any] = lambda x: x,
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self._abort = abort_flag
        self._timeout = timeout
        self._clone = clone
        self._cond = threading.Condition()
        self._count = 0
        self._generation = 0
        self.board: List[Any] = [None] * size
        # Abort is announced, not discovered: wake parked waiters.
        subscribe_abort(abort_flag, self._abort_wake)

    # ------------------------------------------------------------------ utils
    def _abort_wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} outside communicator of size {self.size}")

    def _fold(self, op: Op, upto: int) -> Any:
        # Clone each contribution at the fold boundary: a mutating op --
        # or one returning a view of its second argument -- must never
        # touch the board entry another rank contributed.
        out = self._clone(self.board[0])
        for r in range(1, upto + 1):
            out = op(out, self._clone(self.board[r]))
        return out

    # ----------------------------------------------------------------- barrier
    def barrier(self, rank: Optional[int] = None) -> None:
        with self._cond:
            gen = self._generation
            self._count += 1
            if self._count == self.size:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
            # progress token: arrivals at this barrier
            dog = Watchdog(self._abort, time.monotonic, self._timeout, lambda: (
                "job aborted during barrier",
                f"barrier timed out with {self._count}/{self.size} arrived -- "
                f"collective mismatch?",
            ))
            while self._generation == gen:
                self._cond.wait(timeout=dog.tick(self._count))

    # ------------------------------------------------------------ collectives
    def bcast(self, rank: int, obj: Any, root: int) -> Any:
        self._check_root(root)
        if rank == root:
            self.board[root] = obj
        self.barrier()
        val = obj if rank == root else self._clone(self.board[root])
        self.barrier()
        return val

    def gather(self, rank: int, obj: Any, root: int) -> Optional[List[Any]]:
        self._check_root(root)
        self.board[rank] = obj
        self.barrier()
        out = (
            [self._clone(self.board[r]) for r in range(self.size)]
            if rank == root
            else None
        )
        self.barrier()
        return out

    def allgather(self, rank: int, obj: Any) -> List[Any]:
        self.board[rank] = obj
        self.barrier()
        out = [self._clone(self.board[r]) for r in range(self.size)]
        self.barrier()
        return out

    def scatter(self, rank: int, objs: Optional[List[Any]], root: int) -> Any:
        self._check_root(root)
        if rank == root:
            if objs is None or len(objs) != self.size:
                raise CountMismatchError(
                    f"scatter at root needs a list of {self.size} items"
                )
            self.board[root] = objs
        self.barrier()
        item = self.board[root][rank]
        val = item if rank == root else self._clone(item)
        self.barrier()
        return val

    def reduce(self, rank: int, obj: Any, op: Op, root: int) -> Optional[Any]:
        self._check_root(root)
        self.board[rank] = obj
        self.barrier()
        out = self._fold(op, self.size - 1) if rank == root else None
        self.barrier()
        return out

    def allreduce(self, rank: int, obj: Any, op: Op) -> Any:
        self.board[rank] = obj
        self.barrier()
        # every rank folds concurrently, so an uncloned contribution
        # would be corrupted under every other rank's fold at once
        out = self._fold(op, self.size - 1)
        self.barrier()
        return out

    def scan(self, rank: int, obj: Any, op: Op) -> Any:
        """Inclusive prefix reduction."""
        self.board[rank] = obj
        self.barrier()
        out = self._fold(op, rank)
        self.barrier()
        return out

    def alltoall(self, rank: int, objs: List[Any]) -> List[Any]:
        if len(objs) != self.size:
            raise CountMismatchError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )
        self.board[rank] = objs
        self.barrier()
        out = [self._clone(self.board[r][rank]) for r in range(self.size)]
        self.barrier()
        return out

    def exchange(self, rank: int, obj: Any) -> List[Any]:
        """allgather without cloning."""
        self.board[rank] = obj
        self.barrier()
        out = list(self.board)
        self.barrier()
        return out



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


class LinearMatcher:
    """Arrival-order list with O(pending) scans (the seed matcher).

    ``comparisons`` counts envelopes examined -- the cost metric the
    indexed matcher is benchmarked against.
    """

    algorithm = "linear"

    def __init__(self) -> None:
        self._pending: List[Envelope] = []
        self._stamp = 0
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, env: Envelope) -> None:
        env.arrival = self._stamp
        self._stamp += 1
        self._pending.append(env)

    def take(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        for i, env in enumerate(self._pending):
            self.comparisons += 1
            if env.matches(source, tag, context):
                return self._pending.pop(i)
        return None

    def peek(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        for env in self._pending:
            self.comparisons += 1
            if env.matches(source, tag, context):
                return env
        return None


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
