"""Process-based MPI baseline (Open MPI analog).

"In process-based MPI implementations, MPI tasks are UNIX processes and
have different address spaces."  (paper, section IV-C)

This runtime keeps the same thread-based execution engine (a faithful
simulation: what matters to the paper's measurements is the *memory and
copy policy*, not the OS mechanism) but flips the policies:

* every task gets its **own private address space**, so globals -- and
  in particular every would-be-HLS variable -- are fully duplicated;
* every message is **copied at the sender** (serialisation into a comm
  buffer) in addition to the receiver-side delivery copy, the
  same-buffer elision can never trigger, and the zero-copy fast paths
  (collective *and* point-to-point, ``sharing="shared"``) are rejected
  outright -- there is no shared address space to hand references
  across;
* the communication-buffer pool is **eager and per-peer**, following
  Open MPI's defaults -- the source of the "MPC consumes between 100
  and 300MB less memory than Open MPI and this gap grows with the
  number of cores" observation in Tables II-IV.

Scope-shared buffers (HLS images, ``Win.allocate_shared`` windows) live
in the node's isomalloc segment (section IV-C): :meth:`scope_space`.
"""

from __future__ import annotations

from repro.machine.scopes import ScopeInstance
from repro.memsim.address_space import AddressSpace
from repro.runtime.runtime import Runtime


class ProcessRuntime(Runtime):
    """Open MPI-like process-per-task baseline."""

    backend_name = "openmpi-process"
    copy_at_send_intra_node = True
    shared_node_address_space = False
    #: no shared address space -> direct copying cells, no chunking
    collective_algorithm = "flat"
    #: RMA windows are emulated with per-origin mirror copies of the
    #: target segment (lazily allocated, like the eager buffers) --
    #: the one-sided extension of the Tables I-IV memory contrast
    rma_mirror_copies = True

    # Aggressive eager-buffer policy, *per process*: base pool, a
    # per-total-rank table, and lazily allocated per-connection eager
    # buffers (see Runtime.post_message).
    COMM_BASE = 20 << 20
    COMM_PER_LOCAL_TASK = 0
    COMM_PER_PAIR = 16 << 10
    EAGER_PER_CONNECTION = 256 << 10

    # The per-connection eager pool is this backend's contended
    # resource: all-to-all connection storms (Gadget-2, Table III) can
    # transiently exhaust it, so retry harder than the thread backend
    # before surfacing TransientCommError (see Runtime._comm_alloc).
    ALLOC_RETRIES = 6
    ALLOC_BACKOFF = 0.002

    def __init__(self, *args, **kwargs) -> None:
        if kwargs.get("sharing") == "shared":
            from repro.runtime.errors import MPIError

            raise MPIError(
                "the process backend has no shared address space: "
                "zero-copy sharing (collective or point-to-point) is "
                "unavailable"
            )
        super().__init__(*args, **kwargs)

    def task_space(self, rank: int) -> AddressSpace:
        """The private address space of one task (one per process): its
        per-task arena.  The base-address registry keeps it disjoint
        from every node arena -- the legacy ``(rank + 1) << 36`` bases
        collided with node 0's space at rank 15."""
        return self.memory.task_arena(rank)

    def space_for(self, rank: int) -> AddressSpace:
        return self.task_space(rank)

    def scope_space(self, inst: ScopeInstance) -> AddressSpace:
        """Processes share only what the isomalloc segment maps, so a
        scope-shared buffer lives in its node's segment whatever the
        instance's level (section IV-C)."""
        return self.memory.segment_arena(self.machine.scope_instance_node(inst))

    # node_live_bytes needs no override: the memory manager attributes
    # each task arena to its owner's current node, so a node's total is
    # its node-level pools, its segment and its ranks' private spaces.

    def _alloc_runtime_memory(self) -> None:
        # Per-process pools: allocate in each task's own space so the
        # node total scales with local ranks * job size.
        for rank in range(self.n_tasks):
            space = self.task_space(rank)
            alloc = space.alloc(
                self.comm_buffer_bytes(1, self.n_tasks),
                label=f"{self.backend_name}-comm-buffers",
                kind="runtime",
                owner=rank,
            )
            self._pool_allocs.append((space, alloc))


__all__ = ["ProcessRuntime"]
