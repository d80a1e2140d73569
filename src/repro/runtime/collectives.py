"""The flat reference collectives: one blackboard and one barrier.

No runtime code path uses this module.  Every ``Comm`` collective runs
on the cell engine of :mod:`repro.runtime.icoll`; what is kept here is
the simplest correct implementation of the same nine operations, driven
directly (plain threads, no ``Comm``) by the property suites as the
oracle that is *not* the engine -- the role ``LinearMatcher`` plays for
the indexed matcher.

:class:`CollectiveState` is a blackboard guarded by a condition variable
and a generation-counting barrier.  The protocol for every data
collective is *write -> barrier -> read -> barrier*: the second barrier
guarantees the blackboard is not overwritten by a subsequent collective
before every task has read it.  Value semantics come from cloning on the
read side; reductions fold in ascending rank order and clone every
contribution at the fold boundary, which is the order and discipline the
engine must reproduce bit for bit.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional

from repro.runtime.abort import Watchdog, subscribe_abort
from repro.runtime.errors import CountMismatchError
from repro.runtime.ops import Op


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


__all__ = ["CollectiveState"]
