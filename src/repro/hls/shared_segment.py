"""HLS on process-based MPIs: the interposed heap (section IV-C).

"To be able to share variables and use shared-memory synchronization
algorithms, all HLS variables and the corresponding structures must be
allocated in a memory segment shared by all processes of the same node.
Additionally this shared memory segment should start with the same
virtual address for all processes on the node" -- the isomalloc
technique of PM2.

On the process backend every scope-shared buffer lands in that segment
(:meth:`~repro.runtime.process_mpi.ProcessRuntime.scope_space`), and the
base-address registry hands every node's segment the *same* region
(``reserve_shared``), so cross-process pointers into HLS data are valid.
Distinct nodes never exchange raw pointers, so aliasing their ranges is
safe -- the one sanctioned exception to the registry's disjointness.

:class:`InterposedHeap` is the ``LD_PRELOAD`` malloc interposer:
allocations made while a task is inside a ``single`` block land in the
node's scope space, others in the task's private space.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.machine.scopes import ScopeInstance, ScopeKind, ScopeSpec
from repro.memsim.address_space import AddressSpace, Allocation
from repro.runtime.runtime import Runtime


class InterposedHeap:
    """LD_PRELOAD-style allocator interposition.

    While :meth:`inside_single` is active for a task, its dynamic
    allocations are redirected to the node's scope space (so an HLS
    pointer assigned inside a ``single`` block references memory every
    task of the node can address); otherwise they go to the task's
    private space.
    """

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self._depth: Dict[int, int] = {}
        self._lock = threading.Lock()

    def enter_single(self, rank: int) -> None:
        with self._lock:
            self._depth[rank] = self._depth.get(rank, 0) + 1

    def exit_single(self, rank: int) -> None:
        with self._lock:
            d = self._depth.get(rank, 0)
            if d <= 0:
                raise RuntimeError(f"task {rank}: exit_single without enter")
            self._depth[rank] = d - 1

    def inside_single(self, rank: int) -> bool:
        with self._lock:
            return self._depth.get(rank, 0) > 0

    def _shared(self, rank: int) -> AddressSpace:
        rt = self.runtime
        return rt.scope_space(
            ScopeInstance(ScopeSpec(ScopeKind.NODE), rt.node_of(rank)))

    def malloc(self, rank: int, nbytes: int, *, label: str = "") -> Allocation:
        if self.inside_single(rank):
            return self._shared(rank).alloc(
                nbytes, label=label or "heap(shared)", kind="hls"
            )
        return self.runtime.space_for(rank).alloc(
            nbytes, label=label or "heap", kind="app", owner=rank
        )

    def free(self, rank: int, alloc: Allocation) -> None:
        # The allocation's address range identifies which space owns it.
        shared = self._shared(rank)
        if shared.find(alloc.addr) is alloc:
            shared.free(alloc)
        else:
            self.runtime.space_for(rank).free(alloc)


__all__ = ["InterposedHeap"]
