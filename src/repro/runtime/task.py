"""Per-task execution context.

A :class:`TaskContext` is what the user's ``main(ctx)`` receives: its
world rank, its ``COMM_WORLD`` handle, the processing unit it is pinned
to, allocation helpers bound to the right simulated address space, and
:meth:`move`, the ``MPC_Move`` migration call of section IV-A.  Task-
local storage (the TLS that privatizes globals in thread-based MPIs,
paper section VI) is HLS storage's per-task slots, reached through
``ctx.hls``.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.memsim.address_space import Allocation
from repro.runtime.errors import MigrationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.communicator import Comm
    from repro.runtime.runtime import Runtime


class TaskContext:
    """Execution context of one MPI task."""

    def __init__(self, runtime: "Runtime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.comm_world: "Comm" = runtime.make_world_comm(rank)
        # HLS state is attached lazily by repro.hls when the program
        # declares HLS variables.
        self.hls: Optional[Any] = None

    # ----------------------------------------------------------------- place
    @property
    def size(self) -> int:
        return self.runtime.n_tasks

    @property
    def pu(self) -> int:
        """Processing unit this task is currently pinned to."""
        return self.runtime.task_pu(self.rank)

    @property
    def node(self) -> int:
        return self.runtime.node_of(self.rank)

    @property
    def numa(self) -> int:
        return self.runtime.machine.pus[self.pu].numa

    # ------------------------------------------------------------------ time
    def sleep(self, seconds: float) -> None:
        """Task-level sleep: real under the threads backend, a
        virtual-clock park under ``backend="coop"`` (the scheduler runs
        someone else and only advances time when everyone is parked)."""
        self.runtime.task_sleep(seconds)

    # ---------------------------------------------------------------- memory
    def alloc(self, nbytes: int, *, label: str = "", kind: str = "app") -> Allocation:
        """Allocate in this task's simulated address space (the node's
        space for the thread-based runtime; a private per-task space for
        the process-based baseline)."""
        return self.runtime.space_for(self.rank).alloc(
            nbytes, label=label, kind=kind, owner=self.rank
        )

    def free(self, alloc: Allocation) -> None:
        self.runtime.space_for(self.rank).free(alloc)

    # ------------------------------------------------------------- migration
    def move(self, new_pu: int) -> None:
        """MPC_Move analog: re-pin this task to another processing unit.

        Every registered migration check (the HLS runtime registers one
        verifying single/barrier counters match, section IV-A) may veto
        by raising :class:`~repro.runtime.errors.MigrationError`.
        """
        if not 0 <= new_pu < self.runtime.machine.n_pus:
            raise MigrationError(f"no processing unit {new_pu}")
        for check in self.runtime.migration_checks:
            check(self, new_pu)
        self.runtime.set_task_pu(self.rank, new_pu)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskContext(rank={self.rank}/{self.size}, pu={self.pu})"


__all__ = ["TaskContext"]
