"""The oracle the collective suites compare the engine against.

Blocking and nonblocking collectives are the same code (deposit + wait
on :class:`repro.runtime.icoll.IcollState`), so comparing one with the
other proves nothing.  The independent implementation is the flat
:class:`repro.runtime.collectives.CollectiveState`, driven here by plain
threads through a ``Comm``-shaped handle so a test's ``main(ctx)`` runs
unchanged against either.
"""

import threading
from types import SimpleNamespace

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
