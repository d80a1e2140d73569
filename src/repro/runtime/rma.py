"""One-sided RMA windows (MPI-3 analog).

The paper positions HLS against the MPI Forum's one-sided proposal:
windows of exposed memory that peers access with ``put``/``get``/
``accumulate`` instead of matched send/receive pairs.  This module
builds that full surface on every backend:

* **window creation** -- :meth:`Win.create` (expose an existing buffer),
  :meth:`Win.allocate` (window-allocated per-rank buffers) and
  :meth:`Win.allocate_shared` (one contiguous node-shared buffer,
  ``MPI_Win_allocate_shared``);
* **communication** -- :meth:`Win.put`, :meth:`Win.get`,
  :meth:`Win.accumulate` (reusing the reduction ops of
  :mod:`repro.runtime.ops`);
* **active-target synchronisation** -- :meth:`Win.fence` and the
  post/start/complete/wait (PSCW) epoch calls;
* **passive-target synchronisation** -- :meth:`Win.lock` /
  :meth:`Win.unlock` with shared/exclusive semantics, plus
  :meth:`Win.lock_all` / :meth:`Win.unlock_all`.

Every verb is one walk step -- ``step(region, pos)`` applied to each
piece of the target range -- run by one access path
(:meth:`Win._access`); a window's kind picks only the walk: an
in-memory segment is walked as one slice, a storage segment chunk by
chunk through its cache.  Payloads are flattened once (row-major), and
a ``get`` destination the walk cannot fill in place is staged and
copied back.

Copy policy mirrors the rest of the runtime.  When the window was
allocated shared (node-shared on every backend), or the runtime runs
``sharing="shared"`` and origin and target share an address space, an
access is *direct*: the one semantic transfer touches the exposed
segment with plain loads/stores and no staging copy is charged
(``zero_copy_hits`` in ``Runtime.metrics("rma")``).  Otherwise the access is charged one
origin-side staging copy, and the process backend
(:mod:`repro.runtime.process_mpi`) charges a second and emulates the
window with lazily allocated **per-origin mirror copies** of the target
segment -- extending the Tables I-IV memory-footprint contrast to
one-sided traffic.

Every access is checked against the origin's open epochs; an access
outside any epoch raises :class:`~repro.runtime.errors.RMAEpochError`
immediately and, when a tracer is installed, leaves an RMA event in the
trace so :func:`repro.analysis.happens_before.rma_epoch_violations`
reports it offline as well.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.machine.scopes import ScopeInstance, ScopeKind, ScopeSpec
from repro.metrics.rma import WIN_COUNTERS
from repro.runtime.abort import Watchdog, subscribe_abort
from repro.runtime.errors import MPIError, RMAEpochError
from repro.runtime.ops import Op, SUM
from repro.storage.array import ChunkedArray, copy_in, copy_out
from repro.storage.chunkstore import DEFAULT_CHUNK_ELEMS
from repro.storage.sync import ChunkSynchronizer

#: lock modes (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE)
LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


def validate_layout(
    total: int, offsets: Dict[int, int], sizes: Dict[int, int]
) -> None:
    """Reject out-of-range or overlapping per-rank window segments.

    ``offsets``/``sizes`` are element-granular; every rank's segment
    must lie inside ``[0, total)`` and no two segments may overlap --
    a corrupted layout would silently alias peers' data.
    """
    if set(offsets) != set(sizes):
        raise MPIError("window layout: offsets and sizes disagree on ranks")
    spans = []
    for rank in sorted(offsets):
        off, size = int(offsets[rank]), int(sizes[rank])
        if off < 0 or size < 0:
            raise MPIError(
                f"window layout: rank {rank} has negative offset/size"
            )
        if off + size > total:
            raise MPIError(
                f"window layout: rank {rank} segment [{off}, {off + size}) "
                f"exceeds the window of {total} elements"
            )
        spans.append((off, off + size, rank))
    spans.sort()
    for (_, end_a, rank_a), (start_b, _, rank_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise MPIError(
                f"window layout: rank {rank_a} and rank {rank_b} segments "
                f"overlap"
            )


class _WinCounters:
    """Per-window RMA counters (guarded by the window's stats lock)."""

    __slots__ = WIN_COUNTERS

    def __init__(self) -> None:
        for name in WIN_COUNTERS:
            setattr(self, name, 0)


class _WinShared:
    """Cross-rank shared state of one window (one per allocation)."""

    def __init__(self, win_id: int, size: int, runtime: Any, kind: str) -> None:
        self.id = win_id
        self.size = size
        self.runtime = runtime
        self.kind = kind          # "create" | "allocate" | "shared" | "storage"
        self.buffers: List[Optional[Any]] = [None] * size
        self.allocs: List[Optional[Tuple[Any, Any]]] = [None] * size
        self.base: Optional[np.ndarray] = None   # contiguous ("shared" kind)
        self.offsets: Dict[int, int] = {}
        self.sizes: Dict[int, int] = {}
        self.freed = False
        # Epoch waiters park on a backend-supplied condition (a
        # CoopWaker under backend="coop"); the data/stats locks are
        # never held across a park, so they stay plain OS locks.
        make_cond = getattr(runtime, "condition", None)
        self.cond = make_cond() if make_cond is not None else threading.Condition()
        # Data atomicity is per *chunk*, not per window: every put /
        # staged get / RMW spans the ``(target, chunk)`` keys it touches
        # through this synchronizer (sorted acquisition, deadlock-free),
        # so operations on disjoint chunks proceed concurrently where
        # the old whole-window data_lock serialised them.  Storage
        # windows use their ChunkedArray's own per-chunk table instead.
        self.sync = ChunkSynchronizer()
        self.chunk_elems = DEFAULT_CHUNK_ELEMS
        self.store: Optional[Any] = None      # ChunkStore ("storage" kind)
        self.stats_lock = threading.Lock()
        self.counters = _WinCounters()
        # PSCW: target comm-rank ->
        #   {"gen": int, "origins": frozenset, "completed": set}
        # ``gen`` is a per-target generation counter so an origin's
        # start() never matches an exposure epoch it already completed
        # against (repeated post/start/complete/wait loops).
        self.exposure: Dict[int, Dict[str, Any]] = {}
        self.exposure_gen: Dict[int, int] = {}
        # passive target: target comm-rank -> {holder comm-rank: mode}
        # for *targeted* locks only; lock_all holders (a shared lock on
        # every target at once) live in their own set, and exclusive
        # holds keep running counts, so grant checks are O(1) per rank
        # instead of scanning every target's holder dict
        self.lock_holders: Dict[int, Dict[int, str]] = {}
        self.lockall_holders: set = set()
        self.excl_count: Dict[int, int] = {}
        self.excl_total = 0
        #: epoch transitions (post / complete / unlock / unlock_all): the
        #: progress token of :meth:`wait_for`, so a lock queue that keeps
        #: advancing never trips the watchdog
        self.progress = 0
        # per-(origin world-rank, target comm-rank) mirror allocations of
        # the process backend's window emulation
        self.mirrors: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        subscribe_abort(runtime.abort_flag, self._wake)

    def _wake(self) -> None:
        with self.cond:
            self.cond.notify_all()

    # ------------------------------------------------------------- waiting
    def advance(self) -> None:
        """Record an epoch transition and wake the epoch waiters
        (``self.cond`` held)."""
        self.progress += 1
        self.cond.notify_all()

    def wait_for(self, pred: Callable[[], bool], what: str) -> None:
        """Block (``self.cond`` held) until ``pred()``; abort-aware with
        the runtime's deadlock watchdog.  Counts one ``epoch_waits``
        when the call actually parked."""
        if pred():
            return
        rt = self.runtime
        dog = Watchdog(rt.abort_flag, rt.now, rt.timeout, lambda: (
            f"job aborted during {what}",
            f"{what} timed out after {rt.timeout}s -- "
            f"RMA synchronisation mismatch?",
        ))
        while not pred():
            self.cond.wait(timeout=dog.tick(self.progress))
        self.note(epoch_waits=1)

    def note(self, **deltas: int) -> None:
        with self.stats_lock:
            for name, delta in deltas.items():
                setattr(self.counters, name, getattr(self.counters, name) + delta)


class Win:
    """One rank's handle on an RMA window (MPI_Win analog)."""

    def __init__(self, shared: _WinShared, comm: Any) -> None:
        self._shared = shared
        self.comm = comm
        self.rank = comm.rank
        # origin-side epoch state (only ever touched by this task)
        self._fence_open = False
        self._started: Optional[FrozenSet[int]] = None
        # exposure generation matched by the open access epoch, and the
        # last generation this origin completed against, per target
        self._started_gens: Dict[int, int] = {}
        self._completed_gen: Dict[int, int] = {}
        self._held_locks: Dict[int, str] = {}
        self._lock_all = False

    # ------------------------------------------------------------ creation
    @classmethod
    def create(
        cls, comm: Any, local: np.ndarray, *, chunk_elems: Optional[int] = None
    ) -> "Win":
        """Collective: expose an existing 1-D numpy buffer
        (MPI_Win_create analog)."""
        local = np.asarray(local)
        if local.ndim != 1:
            raise MPIError("Win.create exposes 1-D buffers")
        return cls._build(comm, local, kind="create", chunk_elems=chunk_elems)

    @classmethod
    def allocate(
        cls,
        comm: Any,
        count: int,
        dtype: Any = np.float64,
        *,
        chunk_elems: Optional[int] = None,
    ) -> "Win":
        """Collective: allocate ``count`` elements per rank and expose
        them (MPI_Win_allocate analog).  ``chunk_elems`` sets the data
        lock granularity (elements per chunk lock)."""
        if count < 0:
            raise MPIError("Win.allocate needs a non-negative count")
        local = np.zeros(int(count), dtype=np.dtype(dtype))
        return cls._build(comm, local, kind="allocate", chunk_elems=chunk_elems)

    @classmethod
    def _build(
        cls,
        comm: Any,
        local: np.ndarray,
        *,
        kind: str,
        chunk_elems: Optional[int] = None,
    ) -> "Win":
        rt = comm.runtime
        world = comm.world_rank
        space = rt.space_for(world)
        alloc = space.alloc(
            max(int(local.nbytes), 1), label="rma-window", kind="rma",
            owner=world,
        )
        if comm.rank == 0:
            st: Optional[_WinShared] = _WinShared(
                rt.register_window(None), comm.size, rt, kind
            )
            if chunk_elems is not None:
                st.chunk_elems = max(1, int(chunk_elems))
            rt._windows[st.id] = st
        else:
            st = None
        # Publish by reference (exchange does not clone), then each rank
        # fills its own slot; the trailing barrier orders the fills
        # before any peer's first access.
        st = comm._exchange(st)[0]
        st.buffers[comm.rank] = local
        st.allocs[comm.rank] = (space, alloc)
        st.sizes[comm.rank] = int(local.size)
        comm.barrier()
        return cls(st, comm)

    @classmethod
    def allocate_storage(
        cls,
        comm: Any,
        count: int,
        dtype: Any = np.float64,
        *,
        store: Any,
        name: str = "win",
        chunk_elems: Optional[int] = None,
    ) -> "Win":
        """Collective: a persistent window of ``count`` elements per
        rank, backed by a :class:`~repro.storage.chunkstore.ChunkStore`
        (the *MPI Windows on Storage* shape).

        Each rank's segment is a
        :class:`~repro.storage.array.ChunkedArray` named
        ``"<name>.r<rank>"``; resident chunks are charged to the rank's
        arena (so they spill under capacity pressure) and every
        :meth:`fence` flushes dirty chunks and commits the store's
        manifest -- a durable checkpoint.  Opening against a store that
        already holds the arrays (``Runtime.restore_storage``) resumes
        from their last committed contents.
        """
        if count < 0:
            raise MPIError("Win.allocate_storage needs a non-negative count")
        rt = comm.runtime
        store.bind(rt)
        world = comm.world_rank
        local = ChunkedArray(
            store,
            f"{name}.r{comm.rank}",
            int(count),
            dtype,
            chunk_elems,
            arena=rt.space_for(world),
            spill=getattr(rt, "storage_spill", None),
            owner=world,
        )
        if comm.rank == 0:
            st: Optional[_WinShared] = _WinShared(
                rt.register_window(None), comm.size, rt, "storage"
            )
            st.store = store
            st.chunk_elems = local.chunk_elems
            rt._windows[st.id] = st
        else:
            st = None
        st = comm._exchange(st)[0]
        st.buffers[comm.rank] = local
        st.allocs[comm.rank] = None
        st.sizes[comm.rank] = int(count)
        comm.barrier()
        return cls(st, comm)

    @classmethod
    def allocate_shared(
        cls,
        comm: Any,
        count: int,
        dtype: Any = np.float64,
        *,
        offsets: Optional[Dict[int, int]] = None,
    ) -> "Win":
        """Collective: one contiguous node-shared buffer, ``count``
        elements per rank (MPI_Win_allocate_shared analog).

        The buffer lives where the backend puts memory every task of
        the node addresses (:meth:`Runtime.scope_space`): the node's
        arena on threads, its isomalloc segment on processes -- so
        every access is direct on both.  ``offsets`` optionally
        overrides the contiguous per-rank layout and is validated
        against out-of-range and overlapping segments.
        """
        rt = comm.runtime
        world = [comm.to_world(r) for r in range(comm.size)]
        node0 = rt.node_of(world[0])
        if any(rt.node_of(w) != node0 for w in world):
            raise MPIError(
                "shared windows require all ranks of the communicator to "
                "share a node (use comm.split_by_node() first)"
            )
        counts = comm.allgather(int(count))
        sizes = {r: int(c) for r, c in enumerate(counts)}
        if any(c < 0 for c in sizes.values()):
            raise MPIError("Win.allocate_shared needs non-negative counts")
        total = sum(sizes.values())
        if offsets is None:
            offs: Dict[int, int] = {}
            off = 0
            for r in sorted(sizes):
                offs[r] = off
                off += sizes[r]
        else:
            offs = {r: int(o) for r, o in offsets.items()}
        validate_layout(total, offs, sizes)
        if comm.rank == 0:
            st: Optional[_WinShared] = _WinShared(
                rt.register_window(None), comm.size, rt, "shared"
            )
            rt._windows[st.id] = st
            base = np.zeros(total, dtype=np.dtype(dtype))
            st.base = base
            st.offsets = offs
            st.sizes = sizes
            space = rt.scope_space(ScopeInstance(ScopeSpec(ScopeKind.NODE), node0))
            alloc = space.alloc(
                max(int(base.nbytes), 1), label="rma-shared-window",
                kind="rma",
            )
            st.allocs[0] = (space, alloc)
            for r in range(comm.size):
                st.buffers[r] = base[offs[r]:offs[r] + sizes[r]]
        else:
            st = None
        st = comm._exchange(st)[0]
        comm.barrier()
        return cls(st, comm)

    # ------------------------------------------------------------- queries
    @property
    def size(self) -> int:
        return self._shared.size

    def local(self) -> np.ndarray:
        """This rank's exposed segment (plain loads/stores)."""
        return self.shared_query(self.rank)

    def shared_query(self, rank: int) -> np.ndarray:
        """A peer's segment by reference (MPI_Win_shared_query analog;
        any window kind on the thread backend, since all segments live
        in one process -- but only ``allocate_shared`` guarantees the
        contiguous layout MPI promises, and is shared on every backend)."""
        st = self._shared
        self._check_live()
        if not 0 <= rank < st.size:
            raise MPIError(f"rank {rank} not in window")
        buf = st.buffers[rank]
        if buf is None:
            raise MPIError(f"rank {rank} has not attached its segment")
        if st.kind == "shared":
            # defensive re-validation: the layout tables are shared
            # mutable state, so re-check bounds before handing out a view
            off, size = st.offsets[rank], st.sizes[rank]
            assert st.base is not None
            if off < 0 or off + size > st.base.size:
                raise MPIError(
                    f"window layout corrupted: rank {rank} segment "
                    f"[{off}, {off + size}) outside the window"
                )
        return buf

    # ------------------------------------------------------------- helpers
    def _check_live(self) -> None:
        if self._shared.freed:
            raise MPIError("operation on a freed window")

    def _epoch(
        self,
        op: str,
        target: Optional[int] = None,
        group: Optional[Iterable[int]] = None,
    ) -> _WinShared:
        """The prologue of every synchronisation call: the ``rma.epoch``
        probe (fault site and epoch event), then the live check."""
        st = self._shared
        p = st.runtime.probe
        if p is not None:
            p("rma.epoch", self.comm.world_rank, wake=st._wake, win=st.id,
              op=op, target=target, group=group)
        self._check_live()
        return st

    def _check_epoch(self, target: int, op: str) -> None:
        if self._fence_open:
            return
        if self._started is not None and target in self._started:
            return
        if self._lock_all or target in self._held_locks:
            return
        raise RMAEpochError(
            f"{op} to target {target} outside any access epoch -- open one "
            f"with fence(), start(), lock() or lock_all() first"
        )

    def _mirror(self, target: int, nbytes: int) -> None:
        """Process-backend emulation: the first access from this origin
        to ``target`` allocates a private mirror copy of the target
        segment in the origin's address space."""
        st = self._shared
        rt = st.runtime
        origin_w = self.comm.world_rank
        key = (origin_w, target)
        with st.stats_lock:
            if key in st.mirrors:
                return
            st.mirrors[key] = (None, None)  # reserve under the lock
        seg_bytes = max(
            st.sizes.get(target, 0) * np.dtype(
                self.shared_query(target).dtype
            ).itemsize,
            nbytes,
            1,
        )
        try:
            space = rt.space_for(origin_w)
            alloc = space.alloc(
                seg_bytes, label=f"rma-mirror(w{st.id}:{origin_w}->{target})",
                kind="rma", owner=origin_w,
            )
        except BaseException:
            # drop the reservation so a later access retries the mirror
            # allocation instead of silently skipping it forever
            with st.stats_lock:
                st.mirrors.pop(key, None)
            raise
        with st.stats_lock:
            st.mirrors[key] = (space, alloc)
            st.counters.mirror_bytes += seg_bytes

    # -------------------------------------------------------- access path
    def _access(
        self,
        op: str,
        counter: str,
        target: int,
        disp: int,
        count: int,
        nbytes: int,
        step: Callable[[np.ndarray, int], None],
        *,
        write: bool = False,
        view: bool = False,
    ) -> None:
        """The one path every one-sided verb runs: the probe (``rma.put``
        for a write, ``rma.get`` for a read: fault site and RMA event),
        the live check, the epoch check, the bounds check,
        the window's walk of ``[disp, disp+count)`` of ``target``'s
        segment -- which runs ``step(region, pos)`` on each piece,
        ``pos`` being the piece's offset in the access -- and one
        stats-lock section for every counter the access moves.

        ``write`` marks the access as modifying the segment; ``view``
        asks for a zero-copy read, which only a direct walk grants."""
        st = self._shared
        p = st.runtime.probe
        if p is not None:
            p("rma.put" if write else "rma.get", self.comm.world_rank,
              wake=st._wake, win=st.id, op=op, target=target, nbytes=nbytes)
        self._check_live()
        self._check_epoch(target, op)
        buf = self.shared_query(target)
        if disp < 0 or count < 0 or disp + count > buf.size:
            raise MPIError(
                f"RMA access [{disp}, {disp + count}) outside target "
                f"{target}'s segment of {buf.size} elements"
            )
        # the one thing a window's kind decides about an access
        walk = (self._walk_storage if st.kind == "storage"
                else self._walk_memory)
        copies = walk(buf, target, disp, count, nbytes, step, write, view)
        c = st.counters
        with st.stats_lock:
            c.bytes += nbytes
            setattr(c, counter, getattr(c, counter) + 1)
            if copies:
                c.staged_copies += copies
                c.staged_bytes += copies * nbytes
            else:
                c.zero_copy_hits += 1
                c.zero_copy_bytes += nbytes

    def _walk_memory(
        self, buf: np.ndarray, target: int, disp: int, count: int,
        nbytes: int, step: Callable[[np.ndarray, int], None],
        write: bool, view: bool,
    ) -> int:
        """In-memory walk: ``step`` runs once, on the segment slice
        itself.  The access is *direct* when the window was allocated
        shared (its buffer is node-shared on every backend) or, under
        ``sharing="shared"``, when origin and target share an address
        space, as every pair of a one-node shared window does.  A direct
        read takes no lock; every other access holds the ``(target,
        chunk)`` locks it spans -- one ``acquire`` for one chunk -- so
        puts and read-modify-writes on a chunk serialise.  Returns the
        staged copies charged: none when direct, else one origin-side
        copy, or two plus a mirror of the target segment on the process
        backend."""
        st = self._shared
        rt = st.runtime
        comm = self.comm
        seg = buf[disp:disp + count]
        direct = (rt.shares_address_space(comm.world_rank, comm.to_world(target))
                  if rt.sharing == "shared" else st.kind == "shared")
        if direct and not write:
            step(seg, 0)
            return 0
        if not direct:
            if view:
                raise MPIError(
                    "zero-copy get (copy=False) needs a shared address "
                    "space between origin and target"
                )
            if rt.rma_mirror_copies:
                self._mirror(target, nbytes)
        ce = st.chunk_elems
        first = disp // ce
        last = (disp + count - 1) // ce if count else first - 1
        if last == first:
            lock = st.sync.acquire((target, first))
            try:
                step(seg, 0)
            finally:
                lock.release()
        else:
            with st.sync.span([(target, c) for c in range(first, last + 1)]):
                step(seg, 0)
        if direct:
            return 0
        return 2 if rt.rma_mirror_copies else 1

    def _walk_storage(
        self, buf: ChunkedArray, target: int, disp: int, count: int,
        nbytes: int, step: Callable[[np.ndarray, int], None],
        write: bool, view: bool,
    ) -> int:
        """Storage walk: ``step`` runs on each resident chunk slice under
        that chunk's own lock (:meth:`ChunkedArray.chunkwise`).  Never
        direct -- the chunk cache is the stage -- so every access is
        charged one staged copy, on every backend."""
        if view:
            raise MPIError(
                "zero-copy get (copy=False) is unavailable on "
                "storage-backed windows: chunks are cached, not mapped"
            )
        buf.chunkwise(disp, count, step, task=self.comm.world_rank,
                      dirty=write)
        return 1

    # ------------------------------------------------------------ transfer
    def put(self, src: Any, target: int, target_disp: int = 0) -> None:
        """One-sided store of ``src`` into ``target``'s segment at
        element displacement ``target_disp`` (MPI_Put analog).  A
        multi-dimensional ``src`` is stored in row-major order."""
        values = np.asarray(src).reshape(-1)
        self._access("put", "puts", target, target_disp,
                     values.size, values.nbytes, copy_in(values), write=True)

    def get(
        self,
        target: int,
        count: Optional[int] = None,
        target_disp: int = 0,
        *,
        buf: Optional[np.ndarray] = None,
        copy: bool = True,
    ) -> np.ndarray:
        """One-sided load from ``target``'s segment (MPI_Get analog).

        Returns a private copy by default (into ``buf`` when given, in
        row-major order whatever its shape, strides or dtype).
        ``copy=False`` asks for a read-only zero-copy *view* -- legal
        only when the access is direct (shared address space), else
        ``MPIError``."""
        full = self.shared_query(target)
        if count is None:
            count = int(full.size) - target_disp
        count = int(count)
        nbytes = count * full.dtype.itemsize
        if not copy:
            views: List[np.ndarray] = []

            def look(region: np.ndarray, pos: int) -> None:
                region = region.view()
                region.flags.writeable = False
                views.append(region)

            self._access("get", "gets", target, target_disp, count, nbytes,
                         look, view=True)
            return views[0]
        # the walk fills a contiguous ``buf`` of the segment's dtype in
        # place; any other destination is staged and copied back (a
        # negative count is left for the bounds check to reject)
        staged = buf is None or not (
            buf.dtype == full.dtype and buf.flags.c_contiguous
            and buf.size == count
        )
        dest = (np.empty(max(count, 0), dtype=full.dtype) if staged
                else buf.reshape(-1))
        self._access("get", "gets", target, target_disp, count, nbytes,
                     copy_out(dest))
        if buf is None:
            return dest
        if staged:
            np.copyto(buf, dest.reshape(buf.shape))
        return buf

    def accumulate(
        self,
        src: Any,
        target: int,
        op: Op = SUM,
        target_disp: int = 0,
    ) -> None:
        """Atomic read-modify-write into ``target``'s segment with a
        reduction op from :mod:`repro.runtime.ops` (MPI_Accumulate
        analog).  Serialised per chunk, so concurrent accumulates from
        different origins never lose updates."""
        contrib = np.asarray(src).reshape(-1)

        def fold(region: np.ndarray, pos: int) -> None:
            region[...] = op(region, contrib[pos:pos + region.size])

        self._access("accumulate", "accumulates", target, target_disp,
                     contrib.size, contrib.nbytes, fold, write=True)

    def fetch_and_op(
        self,
        value: Any,
        target: int,
        op: Op = SUM,
        target_disp: int = 0,
    ) -> Any:
        """Atomic single-element fetch-and-op (MPI_Fetch_and_op analog):
        reads the target element, stores ``op(old, value)``, and returns
        the *old* value.  With the default ``SUM`` this is fetch-and-add
        -- the claim primitive of ``repro.scheduler``'s chunk queues."""
        contrib = np.asarray(value)
        if contrib.size != 1:
            raise MPIError("fetch_and_op operates on exactly one element")
        contrib = contrib.reshape(1)
        old: List[Any] = []

        def fetch(region: np.ndarray, pos: int) -> None:
            old.append(region[0])           # scalar indexing copies
            region[...] = op(region, contrib)

        self._access("fetch_and_op", "fetch_and_ops", target, target_disp,
                     1, contrib.nbytes, fetch, write=True)
        return old[0]

    def compare_and_swap(
        self,
        compare: Any,
        new: Any,
        target: int,
        target_disp: int = 0,
    ) -> Any:
        """Atomic single-element compare-and-swap (MPI_Compare_and_swap
        analog): stores ``new`` iff the target element equals
        ``compare``; always returns the *old* value, so the caller
        detects success with ``old == compare``."""
        contrib = np.asarray(new)
        if contrib.size != 1:
            raise MPIError("compare_and_swap operates on exactly one element")
        contrib = contrib.reshape(1)
        old: List[Any] = []

        def swap(region: np.ndarray, pos: int) -> None:
            old.append(region[0])
            if old[0] == np.asarray(compare, dtype=region.dtype).reshape(-1)[0]:
                region[0] = contrib[0]

        self._access("compare_and_swap", "compare_and_swaps", target,
                     target_disp, 1, contrib.nbytes, swap, write=True)
        return old[0]

    def flush(self, target: Optional[int] = None) -> None:
        """MPI_Win_flush analog.  Transfers complete eagerly in this
        runtime, so flush is a local no-op kept for API fidelity."""
        del target
        self._check_live()

    # ------------------------------------------------------ active target
    def fence(self) -> None:
        """Collective epoch separator (MPI_Win_fence analog): closes the
        previous fence epoch and opens a new one on every rank.

        On a storage-backed window every fence is additionally a
        **durable checkpoint**: after the closing barrier each rank
        flushes its segment's dirty chunks and, if anything was written
        anywhere, rank 0 commits the store's manifest -- so the store's
        epoch counts completed fences with writes, and
        ``Runtime.restore_storage`` resumes from exactly here."""
        self._fence("fence", reopen=True)

    def fence_end(self) -> None:
        """Final fence: closes the fence epoch without opening a new
        one (the MPI_MODE_NOSUCCEED assertion).  Checkpoints a storage
        window just like :meth:`fence`."""
        self._fence("fence_end", reopen=False)

    def _fence(self, op: str, *, reopen: bool) -> None:
        st = self._epoch(op)
        self.comm.barrier()
        self._checkpoint_if_storage()
        self._fence_open = reopen
        st.note(fences=1)

    def _checkpoint_if_storage(self) -> None:
        """Flush + commit step of a storage-window fence.  Runs after
        the fence barrier, so every rank's epoch-closing accesses are
        already applied to the chunk caches.  The commit is skipped when
        no rank wrote anything (the allreduce is itself the barrier
        separating flush from commit), keeping the store epoch equal to
        the number of *dirtying* fences -- what restart arithmetic
        needs."""
        st = self._shared
        if st.kind != "storage":
            return
        wrote = st.buffers[self.rank].flush(task=self.comm.world_rank)
        total = int(self.comm.allreduce(int(wrote)))
        if total > 0:
            if self.rank == 0:
                st.store.commit(task=self.comm.world_rank)
            self.comm.barrier()

    def post(self, group: Iterable[int]) -> None:
        """Open an exposure epoch to the origins in ``group``
        (MPI_Win_post analog; non-blocking)."""
        origins = frozenset(int(g) for g in group)
        st = self._epoch("post", group=sorted(origins))
        with st.cond:
            if self.rank in st.exposure:
                raise MPIError(
                    f"rank {self.rank} already has an exposure epoch open"
                )
            gen = st.exposure_gen.get(self.rank, 0) + 1
            st.exposure_gen[self.rank] = gen
            st.exposure[self.rank] = {
                "gen": gen, "origins": origins, "completed": set(),
            }
            st.advance()

    def start(self, group: Iterable[int]) -> None:
        """Open an access epoch to the targets in ``group``; blocks
        until each has posted a matching exposure epoch
        (MPI_Win_start analog)."""
        targets = frozenset(int(g) for g in group)
        st = self._epoch("start", group=sorted(targets))
        if self._started is not None:
            raise MPIError("access epoch already started")

        def fresh(t: int) -> bool:
            # match only an exposure epoch newer than the last one this
            # origin completed against -- a stale entry (still present
            # until the target's wait() deletes it) must not satisfy the
            # *next* start() of a repeated post/start/complete/wait loop
            exp = st.exposure.get(t)
            return (
                exp is not None
                and self.rank in exp["origins"]
                and self.rank not in exp["completed"]
                and exp["gen"] > self._completed_gen.get(t, 0)
            )

        def posted() -> bool:
            return all(fresh(t) for t in targets)

        with st.cond:
            st.wait_for(posted, f"start({sorted(targets)})")
            self._started_gens = {
                t: st.exposure[t]["gen"] for t in targets
            }
        self._started = targets

    def complete(self) -> None:
        """Close this origin's access epoch and notify its targets
        (MPI_Win_complete analog)."""
        st = self._epoch("complete")
        if self._started is None:
            raise MPIError("complete() without a started access epoch")
        with st.cond:
            for t in self._started:
                exp = st.exposure.get(t)
                if (
                    exp is not None
                    and exp["gen"] == self._started_gens.get(t)
                    and self.rank in exp["origins"]
                ):
                    exp["completed"].add(self.rank)
                self._completed_gen[t] = self._started_gens.get(
                    t, self._completed_gen.get(t, 0)
                )
            st.advance()
        self._started = None
        self._started_gens = {}

    def wait(self) -> None:
        """Close this target's exposure epoch once every origin
        completed (MPI_Win_wait analog; blocking)."""
        st = self._epoch("wait")
        with st.cond:
            exp = st.exposure.get(self.rank)
            if exp is None:
                raise MPIError("wait() without a posted exposure epoch")

            def done() -> bool:
                return exp["completed"] >= exp["origins"]

            st.wait_for(done, "wait(exposure epoch)")
            del st.exposure[self.rank]
            st.cond.notify_all()

    # ----------------------------------------------------- passive target
    def lock(self, target: int, *, exclusive: bool = False) -> None:
        """Open a passive-target access epoch on ``target``
        (MPI_Win_lock analog).  Shared locks coexist; an exclusive lock
        waits for sole ownership."""
        mode = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        st = self._epoch(f"lock_{mode}", target=target)
        if not 0 <= target < self.size:
            raise MPIError(f"rank {target} not in window")
        if self._lock_all or target in self._held_locks:
            raise MPIError(f"lock on target {target} already held")

        def grantable() -> bool:
            if mode == LOCK_EXCLUSIVE:
                # exclusive needs sole ownership: no targeted lock and
                # no lock_all holder (whose shared lock spans ``target``)
                return not st.lock_holders.get(target) and not st.lockall_holders
            return st.excl_count.get(target, 0) == 0

        with st.cond:
            st.wait_for(grantable, f"lock({target}, {mode})")
            st.lock_holders.setdefault(target, {})[self.rank] = mode
            if mode == LOCK_EXCLUSIVE:
                st.excl_count[target] = st.excl_count.get(target, 0) + 1
                st.excl_total += 1
        self._held_locks[target] = mode
        st.note(locks=1)

    def unlock(self, target: int) -> None:
        """Close the passive-target epoch on ``target``
        (MPI_Win_unlock analog)."""
        st = self._epoch("unlock", target=target)
        if target not in self._held_locks:
            raise MPIError(f"unlock({target}) without a held lock")
        mode = self._held_locks[target]
        with st.cond:
            holders = st.lock_holders.get(target, {})
            holders.pop(self.rank, None)
            if not holders:
                st.lock_holders.pop(target, None)
            if mode == LOCK_EXCLUSIVE:
                left = st.excl_count.get(target, 1) - 1
                if left:
                    st.excl_count[target] = left
                else:
                    st.excl_count.pop(target, None)
                st.excl_total -= 1
            st.advance()
        del self._held_locks[target]

    def lock_all(self) -> None:
        """Shared lock on every target at once (MPI_Win_lock_all
        analog)."""
        st = self._epoch("lock_all")
        if self._lock_all or self._held_locks:
            raise MPIError("lock_all() while holding locks")

        def grantable() -> bool:
            return st.excl_total == 0

        with st.cond:
            st.wait_for(grantable, "lock_all()")
            st.lockall_holders.add(self.rank)
        self._lock_all = True
        st.note(locks=1)

    def unlock_all(self) -> None:
        """Release the lock_all epoch (MPI_Win_unlock_all analog)."""
        st = self._epoch("unlock_all")
        if not self._lock_all:
            raise MPIError("unlock_all() without lock_all()")
        with st.cond:
            st.lockall_holders.discard(self.rank)
            st.advance()
        self._lock_all = False

    # -------------------------------------------------------------- free
    def free(self) -> None:
        """Collective: release the window's simulated allocations
        (including the process backend's mirror copies).  A storage
        window is flushed and committed first -- freeing is itself a
        checkpoint -- then its resident chunks are dropped, so a
        ``MemoryManager`` leak report after free counts no resident
        storage bytes."""
        self.comm.barrier()
        st = self._shared
        if st.kind == "storage":
            self._checkpoint_if_storage()
            st.buffers[self.rank].close(task=self.comm.world_rank)
            if self.rank == 0:
                st.freed = True
            self.comm.barrier()
            return
        pair = st.allocs[self.rank]
        if pair is not None and pair[0] is not None:
            space, alloc = pair
            space.free(alloc)
            st.allocs[self.rank] = None
        if self.rank == 0:
            with st.stats_lock:
                mirrors = list(st.mirrors.values())
                st.mirrors.clear()
            for space, alloc in mirrors:
                if space is not None:
                    space.free(alloc)
            st.freed = True
        self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Win(id={self._shared.id}, kind={self._shared.kind!r}, "
            f"rank={self.rank}/{self.size})"
        )


__all__ = ["LOCK_EXCLUSIVE", "LOCK_SHARED", "Win", "validate_layout"]
