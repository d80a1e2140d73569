"""MPI runtimes: the thread-based MPC analog and the process baseline.

Quick use::

    from repro.machine import core2_cluster
    from repro.runtime import Runtime

    def main(ctx):
        token = ctx.comm_world.bcast("hello" if ctx.rank == 0 else None)
        return ctx.comm_world.allreduce(ctx.rank)

    rt = Runtime(core2_cluster(2), n_tasks=16)
    results = rt.run(main)

See :class:`~repro.runtime.runtime.Runtime` (MPC analog: MPI tasks are
threads, same-node tasks share an address space) and its
:class:`~repro.runtime.config.RuntimeConfig`, where ``mpi="openmpi"``
is the process baseline (private address spaces, sender-side copies,
eager buffers; ``ProcessRuntime`` defaults to it).
"""

from repro.runtime.abort import AbortSignal
from repro.runtime.errors import (
    AbortError,
    CountMismatchError,
    DeadlockError,
    InjectedCrash,
    MigrationError,
    MPIError,
    PayloadCloneError,
    RMAEpochError,
    ScheduleReplayError,
    TransientCommError,
)
from repro.runtime.message import (
    ANY_SOURCE,
    ANY_TAG,
    IndexedMatcher,
    Mailbox,
    Status,
)
from repro.runtime.ops import LAND, LOR, MAX, MIN, PROD, SUM
from repro.runtime.request import Request
from repro.runtime.icoll import DEFAULT_CHUNK_BYTES, CollectiveRequest, IcollState
from repro.runtime.communicator import Comm
from repro.runtime.task import TaskContext
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import CommStats, Runtime
from repro.runtime.process_mpi import ProcessRuntime
from repro.runtime.rma import LOCK_EXCLUSIVE, LOCK_SHARED, Win
from repro.runtime.sched import (
    CoopBackend,
    ExecutionBackend,
    FifoPolicy,
    RandomPolicy,
    ReplayPolicy,
    SchedulePolicy,
    ScheduleTrace,
    ThreadsBackend,
    make_execution_backend,
    make_policy,
)

__all__ = [
    "MPIError",
    "AbortError",
    "DeadlockError",
    "CountMismatchError",
    "MigrationError",
    "InjectedCrash",
    "PayloadCloneError",
    "RMAEpochError",
    "TransientCommError",
    "AbortSignal",
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "Mailbox",
    "IndexedMatcher",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "Request",
    "CollectiveRequest",
    "IcollState",
    "DEFAULT_CHUNK_BYTES",
    "Comm",
    "TaskContext",
    "Runtime",
    "RuntimeConfig",
    "CommStats",
    "ProcessRuntime",
    "Win",
    "LOCK_SHARED",
    "LOCK_EXCLUSIVE",
    "ScheduleReplayError",
    "ScheduleTrace",
    "SchedulePolicy",
    "FifoPolicy",
    "RandomPolicy",
    "ReplayPolicy",
    "make_policy",
    "ExecutionBackend",
    "ThreadsBackend",
    "CoopBackend",
    "make_execution_backend",
]
