"""The MPI runtime: the thread-based MPC analog and its Open MPI baseline.

"An interesting feature of MPC is that MPI tasks are executed inside
user-level threads instead of processes [...] Thus, in MPC, MPI tasks on
the same node share by default the same address space."  (paper,
section IV)

:class:`Runtime` reproduces exactly that: every MPI task is a Python
thread; tasks pinned to PUs of the same simulated node share one
simulated :class:`~repro.memsim.address_space.AddressSpace`.  Same-node
messages carry a reference and are copied once at the receiver --
or not at all when source and destination buffers coincide (the Tachyon
optimisation).  Inter-node messages are copied at the sender, modelling
NIC injection.

``Runtime(mpi="openmpi")`` runs the same engine under the process
baseline's address-space and copy policy
(:data:`~repro.runtime.config.OPENMPI`).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.machine.scopes import ScopeInstance
from repro.machine.topology import Machine, build_machine
from repro.memory import LeakReport, MemoryManager
from repro.memsim.address_space import AddressSpace, Allocation
from repro.metrics.collectives import CollectiveMetrics
from repro.runtime.abort import AbortSignal
from repro.runtime.communicator import Comm
from repro.runtime.config import RuntimeConfig
from repro.runtime.errors import AbortError, MPIError, TransientCommError
from repro.runtime.icoll import IcollState
from repro.runtime.message import Envelope, Mailbox
from repro.runtime.payload import clone, payload_nbytes
from repro.runtime.sched import make_execution_backend
from repro.runtime.task import TaskContext


@dataclass
class CommStats:
    """Message-traffic counters for one job."""

    messages: int = 0
    bytes: int = 0
    intra_node: int = 0
    inter_node: int = 0
    send_copies: int = 0
    recv_copies: int = 0
    elided: int = 0
    elided_bytes: int = 0

    def merge(self, other: "CommStats") -> None:
        """Fold ``other``'s counters into this one (shard aggregation)."""
        for f in fields(CommStats):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class Runtime:
    """Thread-based MPI runtime; see module docstring.

    Parameters
    ----------
    machine:
        Simulated machine; defaults to a flat single-node machine with
        one core per task.
    n_tasks:
        Number of MPI tasks (default: one per PU).
    pinning:
        Optional explicit task -> PU map (default round-robin).
    faults:
        A ``repro.faults`` plan or injector to install (``None`` =
        chaos off); same as calling :meth:`install_faults`.
    registry:
        A shared ``BaseAddressRegistry`` to draw arena regions from, so
        several runtimes (the job service's tenants) get disjoint
        regions; default is a registry of this runtime's own.
    name:
        Namespace prefixed to this runtime's arena names; generated
        from ``registry`` when one is given and ``name`` is not.
    options:
        The :class:`~repro.runtime.config.RuntimeConfig` fields --
        ``mpi``, ``backend``, ``schedule``, ``sharing``, ``algorithm``,
        ``timeout`` -- built into :attr:`config`, which refuses a bad
        value or combination with ``MPIError``.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        n_tasks: Optional[int] = None,
        *,
        pinning: Optional[Sequence[int]] = None,
        faults: Optional[Any] = None,
        registry: Optional[Any] = None,
        name: Optional[str] = None,
        **options: Any,
    ) -> None:
        #: every runtime policy, checked once and frozen
        self.config = config = RuntimeConfig(**options)
        #: the memory and copy policy ``config.mpi`` picks; its
        #: constants also read as runtime attributes (``rt.COMM_BASE``)
        self.policy = config.policy
        vars(self).update(vars(self.policy))
        self.collective_algorithm = (
            config.algorithm or self.policy.collective_algorithm
        )
        #: HLS sharing policy: governs the zero-copy fast path of both
        #: collectives and point-to-point deliveries
        self.sharing = config.sharing
        self.timeout = config.timeout
        if machine is None:
            if n_tasks is None:
                raise MPIError("provide a machine, n_tasks, or both")
            machine = build_machine(
                n_nodes=1, sockets_per_node=1, cores_per_socket=n_tasks,
                caches=(), name="flat",
            )
        self.machine = machine
        self.n_tasks = n_tasks if n_tasks is not None else machine.n_pus
        if self.n_tasks < 1:
            raise MPIError("need at least one task")
        if pinning is not None:
            if len(pinning) != self.n_tasks:
                raise MPIError("pinning must list one PU per task")
            if any(not 0 <= p < machine.n_pus for p in pinning):
                raise MPIError("pinning references unknown PU")
            self._pin = list(pinning)
        else:
            self._pin = [i % machine.n_pus for i in range(self.n_tasks)]
        # Subscribable abort: every blocking primitive registers a waker,
        # so one set() wakes tasks parked anywhere (mailboxes, collective
        # engines, HLS scopes) -- abort is announced, never discovered.
        self.abort_flag = AbortSignal()
        # Execution backend: how ranks become running code and how
        # blocking primitives park ("threads" = one OS thread per task,
        # "coop" = the cooperative scheduler of repro.runtime.sched).
        # Built before any blocking primitive so they all draw their
        # conditions and clock from it.
        self.execution_backend = config.backend
        self._backend = make_execution_backend(
            config.backend, self.n_tasks, schedule=config.schedule,
            on_drain=self.signal_abort,
        )
        #: fault injector (None = chaos off; see repro.faults)
        self.faults = None
        self.tracer = None      # sets ``probe`` to None (see the setter)
        self._retry_lock = threading.Lock()
        #: comm-buffer allocation retries performed (transient exhaustion)
        self.comm_alloc_retries = 0
        #: seconds from abort_flag.set() to the last task terminating
        #: (measured by run(); None when the job never aborted)
        self.abort_recovery_s: Optional[float] = None
        self._mailboxes = [Mailbox(r, self) for r in range(self.n_tasks)]
        # Per-sender sequence cells: rank r's cell is only ever touched
        # by r's own thread (sends execute on the sender), so no lock.
        self._seq: List[Dict[int, int]] = [dict() for _ in range(self.n_tasks)]
        self._contexts = 0
        self._ctx_lock = threading.Lock()
        # One shared world-group tuple: every task's COMM_WORLD handle
        # references this object instead of materialising its own
        # n_tasks-element tuple (O(n^2) memory across the job at 4k+).
        self._world_group = tuple(range(self.n_tasks))
        #: the collective engine of each communicator, keyed by context
        #: (see repro.runtime.icoll)
        self._icoll_states: Dict[int, IcollState] = {}
        self._coll_lock = threading.Lock()
        #: modeled per-cell link time (seconds per MiB moved) for the
        #: collective engine; 0.0 = no modeled time.  The scaling
        #: benchmarks set this and run under backend="coop", so the
        #: pipelined-vs-store-and-forward comparison is virtual-clock
        #: deterministic.
        self.icoll_link_time_per_mib = 0.0
        self._world_context = self.alloc_context()
        # Per-task stat shards, aggregated on read by the ``stats``
        # property: send-side counters land in the sender's shard, the
        # delivery counters in the receiver's -- each shard is owned by
        # exactly one task thread, so the hot path takes no lock.
        self._stat_shards = [CommStats() for _ in range(self.n_tasks)]
        self.collective_metrics = CollectiveMetrics()
        #: bumped by every set_task_pu (ctx.move); whoever caches a
        #: placement-derived answer (HLS handles) stamps it with this
        self.pin_version = 0
        self.migration_checks: List[Callable[[TaskContext, int], None]] = []
        self.post_move_hooks: List[Callable[[int, int], None]] = []
        #: numbers the HLS programs built on this runtime (their trace
        #: keys ``hls{n}:...``); monotone, so no number is reused
        self.hls_ordinals = itertools.count()
        #: scope-aware arena layer: every simulated allocation in this
        #: runtime (HLS images, comm pools, RMA windows, app data) comes
        #: from one of its arenas -- see repro.memory.
        #:
        #: When ``registry`` is given, this runtime draws its arena
        #: regions from a *shared* BaseAddressRegistry (the multi-tenant
        #: job service runs many runtimes against one registry, so every
        #: job's regions are provably disjoint from every other job's).
        #: Each runtime then gets a unique namespace so its arena names
        #: cannot collide with a sibling runtime's.
        if registry is not None and name is None:
            name = registry.make_namespace("rt")
        self.name = name
        self.memory = MemoryManager(self, registry=registry, namespace=name)
        #: RMA windows ever created on this runtime (repro.runtime.rma);
        #: aggregated by metrics("rma")
        self._windows: List[Any] = []
        self._win_lock = threading.Lock()
        #: chunk-residency LRU + spill policy (repro.storage): arenas
        #: consult it when an allocation overruns their live-bytes
        #: capacity, paging cold storage chunks out instead of raising
        from repro.storage.residency import SpillManager

        self.storage_spill = SpillManager()
        self.memory.set_spiller(self.storage_spill)
        #: ChunkStores bound to this runtime (repro.storage); aggregated
        #: by metrics("storage")
        self._stores: List[Any] = []
        self._stores_lock = threading.Lock()
        #: per-loop reports registered by repro.scheduler.dynamic_for;
        #: aggregated by metrics("loadbalance")
        self._loop_reports: List[Any] = []
        self._loop_lock = threading.Lock()
        #: the runtime's own pool allocations, released by finalize();
        #: the lock makes finalize safe under concurrent callers (two
        #: racing finalizers must not double-release) and closes the
        #: window where an eager-buffer allocation lands after the pool
        #: list was drained
        self._pool_allocs: List[tuple] = []
        self._final_lock = threading.Lock()
        self._finalized = False
        self._alloc_runtime_memory()
        self.contexts: List[Optional[TaskContext]] = [None] * self.n_tasks
        if faults is not None:
            self.install_faults(faults)

    # --------------------------------------------------------- execution
    def condition(self):
        """A condition variable drawn from the execution backend: a
        real ``threading.Condition`` (threads) or a scheduler-parking
        :class:`~repro.runtime.sched.waker.CoopWaker` (coop).  Every
        blocking primitive of this runtime parks on one of these."""
        return self._backend.condition()

    def now(self) -> float:
        """The clock blocking primitives compute deadlines against:
        ``time.monotonic`` (threads) or the scheduler's virtual clock
        (coop -- advances only when every task is parked)."""
        return self._backend.now()

    def task_sleep(self, seconds: float) -> None:
        """Task-level sleep (fault delays, backoff loops): real sleep
        under threads, a virtual-clock park under coop -- so injected
        delays perturb the schedule deterministically, not the wall
        clock."""
        self._backend.sleep(seconds)

    def checkpoint(self) -> None:
        """A cooperative scheduling point (no-op under the threads
        backend): preemptive coop schedules may switch tasks here, so
        lock-free protocols (e.g. the scheduler's chunk claims) expose
        their interleavings to deterministic schedule exploration."""
        self._backend.checkpoint()

    def register_loop_report(self, report: Any) -> None:
        """Record one ``dynamic_for`` loop report (called by rank 0 of
        the loop's communicator after gathering per-task rows)."""
        with self._loop_lock:
            self._loop_reports.append(report)

    def loop_reports(self) -> List[Any]:
        with self._loop_lock:
            return list(self._loop_reports)

    # ----------------------------------------------------------- metrics
    def metrics(self, subsystem: Optional[str] = None):
        """The unified metrics entry point (repro.metrics.registry).

        With no argument, returns one
        :class:`~repro.metrics.registry.MetricsSnapshot` covering every
        registered subsystem (p2p, collectives, rma, sched, faults,
        memory, storage, loadbalance) -- the JSON-ready unit the job
        service streams per job.  With a subsystem name, returns that
        subsystem's metrics object."""
        from repro.metrics.registry import build_snapshot, build_subsystem

        if subsystem is None:
            return build_snapshot(self)
        return build_subsystem(subsystem, self)

    def schedule_trace(self):
        """The canonical schedule trace recorded by the last coop run
        (None under the threads backend).  Feed it back via
        ``Runtime(backend="coop", schedule=trace)`` for a bit-for-bit
        replay."""
        return self._backend.schedule_trace()

    # ------------------------------------------------------------- chaos
    def install_faults(self, plan: Any) -> Any:
        """Install a fault plan (or a prebuilt injector) and rebuild the
        probe; every site reads the probe live, so a plan installed
        between runs reaches states built by earlier runs.  Returns the
        injector."""
        from repro.faults import FaultInjector

        injector = plan
        if not isinstance(plan, FaultInjector):
            injector = FaultInjector(plan, runtime=self)
        elif plan.runtime not in (None, self):
            # hit counters are per-runtime state: an injector executing
            # against another runtime is not shared, its plan is copied
            injector = FaultInjector(plan.plan, runtime=self)
        injector.runtime = self
        self.faults = injector
        self.tracer = self._tracer      # rebuilds the probe
        return injector

    @property
    def tracer(self) -> Optional[Any]:
        """The installed ``Tracer`` (None = tracing off)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional[Any]) -> None:
        """Rebuild :attr:`probe`: None with no plan and no tracer; else
        every site calls ``probe(site, task, wake=..., **fields)``, the
        fault half first (it may sleep, raise or return a reorder), then
        the trace half (DESIGN.md section 10)."""
        self._tracer = tracer
        hit = self.faults and self.faults.hit
        record = tracer and tracer.record
        if not (hit and record):
            self.probe = hit or record
            return

        def probe(site: str, task: int, wake: Any = None, **fields: Any) -> Any:
            act = hit(site, task, wake)
            record(site, task, **fields)
            return act

        self.probe = probe

    # ------------------------------------------------------------- placement
    def task_pu(self, rank: int) -> int:
        return self._pin[rank]

    def set_task_pu(self, rank: int, pu: int) -> None:
        self._pin[rank] = pu
        self.pin_version += 1
        for hook in self.post_move_hooks:
            hook(rank, pu)

    def node_of(self, rank: int) -> int:
        return self.machine.pus[self._pin[rank]].node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def shares_address_space(self, a: int, b: int) -> bool:
        return self.shared_node_address_space and self.same_node(a, b)

    def tasks_on_node(self, node: int) -> List[int]:
        return [r for r in range(self.n_tasks) if self.node_of(r) == node]

    # ---------------------------------------------------------------- memory
    def node_space(self, node: int) -> AddressSpace:
        """The shared address space of a node (MPC): its node-scope
        arena, lazily materialised by the memory manager."""
        return self.memory.node_arena(node)

    def task_space(self, rank: int) -> AddressSpace:
        """The private address space of one task (one per process under
        ``mpi="openmpi"``): its per-task arena.  The base-address
        registry keeps it disjoint from every node arena."""
        return self.memory.task_arena(rank)

    def space_for(self, rank: int) -> AddressSpace:
        if self.shared_node_address_space:
            return self.node_space(self.node_of(rank))
        return self.task_space(rank)

    def scope_space(self, inst: ScopeInstance) -> AddressSpace:
        """Where a buffer every task of scope instance ``inst``
        addresses lives (an HLS image, an ``allocate_shared`` window, an
        interposed ``single`` allocation): the instance's own arena when
        a node's tasks share one address space; otherwise its node's
        isomalloc segment whatever the instance's level, since processes
        share only what the segment maps (section IV-C)."""
        if self.shared_node_address_space:
            return self.memory.scope_arena(inst)
        return self.memory.segment_arena(self.machine.scope_instance_node(inst))

    def node_live_bytes(self, node: int) -> int:
        """Live simulated bytes attributed to a node, over every arena
        resident there (application + runtime + HLS at any scope)."""
        return self.memory.node_live_bytes(node)

    def finalize(self) -> LeakReport:
        """Shut the runtime's memory accounting down: release the comm
        pools the runtime itself allocated, then report everything of
        kind ``runtime``/``hls``/``rma`` still live -- each record names
        its arena, hierarchy level, owner task and label.  Idempotent,
        and safe under concurrent callers: the pool list is swapped out
        under a lock, so two threads racing finalize release disjoint
        (one full, one empty) sets of allocations."""
        with self._final_lock:
            pools, self._pool_allocs = self._pool_allocs, []
            self._finalized = True
        for space, alloc in pools:
            space.free(alloc)
        return self.memory.leak_report()

    @property
    def finalized(self) -> bool:
        return self._finalized

    def comm_buffer_bytes(self, local_tasks: int, total_tasks: int) -> int:
        return (
            self.COMM_BASE
            + local_tasks * self.COMM_PER_LOCAL_TASK
            + local_tasks * total_tasks * self.COMM_PER_PAIR
        )

    def _alloc_runtime_memory(self) -> None:
        """The static comm pools: one per node in its shared space, or
        one per process in its own space -- so the process node total
        scales with local ranks * job size.  (A node's total needs no
        more: the memory manager attributes each task arena to its
        owner's current node.)"""
        if self.shared_node_address_space:
            nodes = {self.node_of(r) for r in range(self.n_tasks)}
            pools = [(self.node_space(n), len(self.tasks_on_node(n)), None)
                     for n in nodes]
        else:
            pools = [(self.task_space(r), 1, r) for r in range(self.n_tasks)]
        for space, local, owner in pools:
            alloc = space.alloc(
                self.comm_buffer_bytes(local, self.n_tasks),
                label=f"{self.backend_name}-comm-buffers", kind="runtime",
                owner=owner,
            )
            self._pool_allocs.append((space, alloc))

    # ------------------------------------------------------------ contexts
    def alloc_context(self) -> int:
        with self._ctx_lock:
            self._contexts += 1
            return self._contexts

    def by_reference(self, src: int, dst: int) -> bool:
        """May a payload owned by world rank ``src`` be handed to world
        rank ``dst`` by reference instead of as a clone?  The one rule
        behind both the P2P envelope's ``shareable`` and the collective
        engine's deliveries: the sharing policy must allow it and the
        two ranks must share an address space (never true for the
        process backend)."""
        return self.sharing == "shared" and self.shares_address_space(src, dst)

    def icoll_state(self, context: int, group) -> IcollState:
        """The collective engine shared by the handles of one
        communicator.  ``group`` is the comm-rank -> world-rank tuple (a
        bare int is accepted as a size for contiguous world-rank
        groups)."""
        if isinstance(group, int):
            group = tuple(range(group))
        with self._coll_lock:
            st = self._icoll_states.get(context)
            if st is None:
                st = self._icoll_states[context] = IcollState(self, group)
            elif st.size != len(group):
                raise MPIError(
                    f"context {context} already bound to size {st.size}"
                )
            return st

    def make_world_comm(self, rank: int) -> Comm:
        return Comm(self, self._world_context, self._world_group, rank)

    # ----------------------------------------------------------------- p2p
    def mailbox(self, world_rank: int) -> Mailbox:
        return self._mailboxes[world_rank]

    @property
    def stats(self) -> CommStats:
        """Message-traffic counters, merged over the per-task shards on
        read.  The returned object is a snapshot."""
        total = CommStats()
        for shard in self._stat_shards:
            total.merge(shard)
        return total

    # ------------------------------------------------------------------- rma
    def register_window(self, shared: Any) -> int:
        """Reserve a slot in the window registry and return its id (the
        creating rank stores the shared window state there)."""
        with self._win_lock:
            self._windows.append(shared)
            return len(self._windows) - 1

    # --------------------------------------------------------------- storage
    def attach_store(self, store: Any) -> None:
        """Register a bound :class:`~repro.storage.chunkstore.ChunkStore`
        (called by ``ChunkStore.bind``; idempotent).  Attached stores
        call this runtime's probe at their sites and are aggregated by
        ``metrics("storage")``."""
        with self._stores_lock:
            if store not in self._stores:
                self._stores.append(store)

    def stores(self) -> List[Any]:
        with self._stores_lock:
            return list(self._stores)

    def restore_storage(self, root: Any) -> Any:
        """Reopen a chunk store from its manifest -- the state as of the
        last completed fence checkpoint -- and bind it to this runtime.
        ``Win.allocate_storage`` against the returned store attaches to
        the persisted arrays, so a crashed run resumes from
        ``store.epoch`` completed fences (bit-for-bit, as the chaos
        restart battery asserts)."""
        from repro.storage.chunkstore import ChunkStore

        return ChunkStore.open(root).bind(self)

    def _comm_alloc(
        self, space: AddressSpace, nbytes: int, *, label: str, owner: int,
        task: int,
    ) -> Allocation:
        """Allocate communication-buffer memory, retrying transient
        exhaustion with bounded exponential backoff (see ALLOC_RETRIES).
        The injection site fires once per *attempt*, so a plan can make
        the first k attempts fail and let the retry succeed."""
        attempt = 0
        while True:
            try:
                p = self.probe
                if p is not None:
                    p("p2p.alloc", task)
                alloc = space.alloc(nbytes, label=label, kind="runtime",
                                    owner=owner)
                # eager buffers live for the whole run; finalize()
                # releases them with the static pools.  If a racing
                # finalize already drained the pool list, release the
                # buffer immediately so it cannot leak past teardown.
                with self._final_lock:
                    if not self._finalized:
                        self._pool_allocs.append((space, alloc))
                        return alloc
                space.free(alloc)
                return alloc
            except TransientCommError:
                if attempt >= self.ALLOC_RETRIES:
                    raise
                with self._retry_lock:
                    self.comm_alloc_retries += 1
                self.task_sleep(self.ALLOC_BACKOFF * (2 ** attempt))
                attempt += 1

    def post_message(
        self, src: int, dst: int, tag: int, context: int, obj: Any
    ) -> None:
        if not 0 <= dst < self.n_tasks:
            raise MPIError(f"send to unknown rank {dst}")
        # Preemption point: under a preemptive schedule policy the coop
        # scheduler may run someone else before this send lands -- the
        # interleaving-exploration analog of a chaos delay (no-op under
        # threads and non-preemptive policies).
        self._backend.checkpoint()
        hold: Optional[float] = None
        p = self.probe
        if p is not None:
            # delivery injection site: delay/crash/clone_fail fire
            # inside the probe; a reorder is returned for the mailbox to
            # hold the envelope back
            act = p("p2p.post", src)
            if act is not None and act[0] == "reorder":
                hold = act[1]
        intra = self.same_node(src, dst)
        copy_now = not (intra and self.shared_node_address_space)
        nbytes = payload_nbytes(obj)   # measured once, before any clone
        payload = clone(obj) if copy_now else obj
        cell = self._seq[src]          # sender-owned: rank src's thread only
        seq = cell.get(dst, 0)
        cell[dst] = seq + 1
        if seq == 0 and self.EAGER_PER_CONNECTION:
            # first message on this (src, dst) connection: eager buffers
            # appear at both endpoints (Open MPI's lazy connection setup;
            # this is why all-to-all applications like Gadget-2 blow up
            # the process-based runtime's memory in Table III)
            self._comm_alloc(
                self.space_for(src), self.EAGER_PER_CONNECTION,
                label=f"eager-send({src}->{dst})", owner=src, task=src,
            )
            self._comm_alloc(
                self.space_for(dst), self.EAGER_PER_CONNECTION,
                label=f"eager-recv({src}->{dst})", owner=dst, task=src,
            )
        env = Envelope(
            src=src, dst=dst, tag=tag, context=context,
            payload=payload, nbytes=nbytes, seq=seq, owned=copy_now,
            shareable=not copy_now and self.by_reference(src, dst),
        )
        shard = self._stat_shards[src]
        shard.messages += 1
        shard.bytes += nbytes
        if intra:
            shard.intra_node += 1
        else:
            shard.inter_node += 1
        if copy_now:
            shard.send_copies += 1
        if p is not None:
            p("p2p.send", src, dst=dst, tag=tag, seq=seq)
        if hold is not None:
            self._mailboxes[dst].post(env, hold=hold)
        else:
            self._mailboxes[dst].post(env)

    def note_delivery(self, env: Envelope, *, copied: bool) -> None:
        shard = self._stat_shards[env.dst]
        if copied:
            shard.recv_copies += 1
        elif not env.owned:
            shard.elided += 1
            shard.elided_bytes += env.nbytes
        p = self.probe
        if p is not None:
            p("p2p.deliver", env.dst, src=env.src, tag=env.tag, seq=env.seq)

    # ------------------------------------------------------------------ abort
    def signal_abort(self) -> None:
        """Set the abort flag, waking every parked task.  Blocking
        operations are event-driven (no fixed-rate poll), so an abort
        must be announced, not discovered: each mailbox, collective
        engine and HLS scope state subscribed a waker to the
        :class:`AbortSignal` at construction, and ``set()`` runs them
        all."""
        self.abort_flag.set()

    # ------------------------------------------------------------------ run
    def run(self, main: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Launch ``main(ctx, *args, **kwargs)`` on every task; returns
        the per-rank results.  Any task's exception aborts the job and
        is re-raised."""
        if self.abort_flag.is_set():
            # every blocking primitive would fail at once with a
            # misleading secondary AbortError
            raise AbortError("runtime aborted by an earlier run; build a new Runtime")
        results: List[Any] = [None] * self.n_tasks
        errors: List[tuple] = []
        err_lock = threading.Lock()

        def worker(rank: int) -> None:
            ctx = TaskContext(self, rank)
            self.contexts[rank] = ctx
            try:
                results[rank] = main(ctx, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must propagate
                with err_lock:
                    errors.append((rank, exc))
                self.signal_abort()

        # The execution backend owns spawning and joining: one OS
        # thread per task (threads) or the cooperative scheduler (coop).
        # A scheduler-level error (schedule replay divergence) aborts
        # and drains the job first, then surfaces here.
        sched_exc: Optional[BaseException] = None
        try:
            self._backend.launch(worker, self.n_tasks)
        except MPIError as exc:
            sched_exc = exc
        if self.abort_flag.set_at is not None:
            # chaos accounting: how long between the abort being raised
            # and the last surviving task terminating
            self.abort_recovery_s = time.monotonic() - self.abort_flag.set_at
        if sched_exc is not None:
            # the scheduler error caused the abort; the per-task
            # AbortErrors in ``errors`` are its propagation
            raise sched_exc
        if errors:
            errors.sort(key=lambda e: e[0])
            rank, exc = errors[0]
            if isinstance(exc, AbortError) and len(errors) > 1:
                # prefer the root cause over secondary aborts
                for r, e in errors:
                    if not isinstance(e, AbortError):
                        rank, exc = r, e
                        break
            try:
                wrapped = type(exc)(f"[rank {rank}] {exc}")
            except Exception:
                wrapped = MPIError(f"[rank {rank}] {exc!r}")
            raise wrapped from exc
        return results


__all__ = ["Runtime", "CommStats"]
