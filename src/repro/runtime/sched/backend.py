"""Execution backends: how a runtime turns ranks into running code.

The seed runtime hard-wired one OS thread per task into
``Runtime.run``.  That policy now lives behind
:class:`ExecutionBackend`, with two implementations:

* :class:`ThreadsBackend` -- the historical engine: one
  ``threading.Thread`` per task, real conditions, real monotonic
  clock.  The oracle the coop backend is tested against.
* :class:`CoopBackend` -- the cooperative scheduler
  (:mod:`repro.runtime.sched.coop`): carrier threads with a single
  runner token, :class:`CoopWaker` conditions, a virtual clock, and a
  recorded :class:`ScheduleTrace` per run.

``ProcessRuntime`` (the Open MPI baseline) is a *policy* subclass of
``Runtime`` -- memory and copy behaviour -- so it composes freely with
either execution backend.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Union

from repro.runtime.errors import MPIError
from repro.runtime.sched.coop import CoopScheduler
from repro.runtime.sched.policy import (
    SchedulePolicy,
    ScheduleTrace,
    make_policy,
)
from repro.runtime.sched.waker import CoopWaker

ScheduleSpec = Union[None, str, SchedulePolicy, ScheduleTrace]


class ExecutionBackend:
    """How tasks execute, block, and tell time."""

    name = "backend"

    def condition(self):
        """A condition variable for a blocking primitive to park on."""
        raise NotImplementedError

    def now(self) -> float:
        """The clock blocking primitives compute deadlines against."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Task-level sleep (fault delays, backoff loops)."""
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Optional preemption point on the hot path (no-op unless the
        backend runs a preemptive schedule policy)."""

    def launch(self, worker: Callable[[int], None], n_tasks: int) -> None:
        """Run ``worker(rank)`` for every rank; return when all done."""
        raise NotImplementedError

    def schedule_trace(self) -> Optional[ScheduleTrace]:
        """The recorded schedule of the last launch (None when the OS
        owns the interleaving)."""
        return None


class ThreadsBackend(ExecutionBackend):
    """One preemptive OS thread per task (the seed behaviour)."""

    name = "threads"

    def condition(self):
        return threading.Condition()

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def launch(self, worker: Callable[[int], None], n_tasks: int) -> None:
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"mpi-task-{r}")
            for r in range(n_tasks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


class CoopBackend(ExecutionBackend):
    """Cooperative user-level scheduling with deterministic schedule
    exploration (see :mod:`repro.runtime.sched.coop`)."""

    name = "coop"

    def __init__(self, n_tasks: int, schedule: ScheduleSpec = None,
                 on_drain: Optional[Callable[[], None]] = None) -> None:
        self.policy = make_policy(schedule)
        self.sched = CoopScheduler(n_tasks, self.policy, on_drain=on_drain)

    def condition(self):
        return CoopWaker(self.sched)

    def now(self) -> float:
        return self.sched.now()

    def sleep(self, seconds: float) -> None:
        self.sched.sleep(seconds)

    def checkpoint(self) -> None:
        self.sched.checkpoint()

    def launch(self, worker: Callable[[int], None], n_tasks: int) -> None:
        if n_tasks != self.sched.n_tasks:  # pragma: no cover - invariant
            raise MPIError("coop scheduler bound to a different task count")
        self.sched.launch(worker)

    def schedule_trace(self) -> Optional[ScheduleTrace]:
        return self.sched.trace


_BACKENDS = {"threads": ThreadsBackend, "coop": CoopBackend}


def make_execution_backend(
    name: str, n_tasks: int, *, schedule: ScheduleSpec = None,
    on_drain: Optional[Callable[[], None]] = None,
) -> ExecutionBackend:
    """Build the execution backend ``Runtime(backend=...)`` asked for."""
    if name == "coop":
        return CoopBackend(n_tasks, schedule, on_drain=on_drain)
    check_backend(name, schedule)
    return ThreadsBackend()


def check_backend(name: str, schedule: ScheduleSpec = None) -> None:
    """Raise :class:`MPIError` unless :func:`make_execution_backend`
    accepts backend ``name`` with ``schedule`` (a coop schedule is
    checked by building its policy, :func:`make_policy`)."""
    if name == "coop":
        make_policy(schedule)
    elif name != "threads":
        raise MPIError(
            f"unknown execution backend {name!r} (use 'threads' or 'coop')"
        )
    elif schedule is not None:
        raise MPIError(
            "schedule policies need backend='coop' -- the OS owns "
            "the interleaving under the threads backend"
        )


__all__ = [
    "CoopBackend",
    "ExecutionBackend",
    "ThreadsBackend",
    "check_backend",
    "make_execution_backend",
]
