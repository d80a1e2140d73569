"""One-sided RMA windows (MPI-3 analog).

The paper positions HLS against the MPI Forum's one-sided proposal:
windows of exposed memory that peers access with ``put``/``get``/
``accumulate`` instead of matched send/receive pairs.  This module
builds that full surface on the thread runtime:

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

Copy policy mirrors the rest of the runtime.  When origin and target
share an address space and either the runtime runs ``sharing="shared"``
or the window was allocated shared, an access is *direct*: the one
semantic transfer touches the exposed segment with plain loads/stores
and no staging copy is made (``zero_copy_hits`` in
``Runtime.metrics("rma")``).  Otherwise the
payload is staged through a private copy at the origin, and the
process backend (:mod:`repro.runtime.process_mpi`) additionally
emulates the window with lazily allocated **per-origin mirror copies**
of the target segment -- extending the Tables I-IV memory-footprint
contrast to one-sided traffic.

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

from repro.runtime.abort import Watchdog, subscribe_abort
from repro.runtime.errors import MPIError, RMAEpochError
from repro.runtime.ops import Op, SUM
from repro.runtime.payload import clone
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

    __slots__ = (
        "puts", "gets", "accumulates", "fetch_and_ops", "compare_and_swaps",
        "bytes",
        "staged_copies", "staged_bytes",
        "zero_copy_hits", "zero_copy_bytes",
        "epoch_waits", "fences", "locks", "mirror_bytes",
    )

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.accumulates = 0
        self.fetch_and_ops = 0
        self.compare_and_swaps = 0
        self.bytes = 0
        self.staged_copies = 0
        self.staged_bytes = 0
        self.zero_copy_hits = 0
        self.zero_copy_bytes = 0
        self.epoch_waits = 0
        self.fences = 0
        self.locks = 0
        self.mirror_bytes = 0


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

        Requires a backend with a shared node address space (the thread
        runtime); the process backend raises ``MPIError`` instead of
        silently handing out private buffers.  ``offsets`` optionally
        overrides the contiguous per-rank layout and is validated
        against out-of-range and overlapping segments.
        """
        rt = comm.runtime
        if not rt.shared_node_address_space:
            raise MPIError(
                "the process backend has no shared address space: "
                "Win.allocate_shared is unavailable (use Win.allocate "
                "for per-origin emulated windows)"
            )
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
            space = rt.node_space(node0)
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
        contiguous layout MPI promises)."""
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

    def _hit(self, site: str) -> None:
        f = self._shared.runtime.faults
        if f is not None:
            f.hit(site, self.comm.world_rank, wake=self._shared._wake)

    def _record_rma(self, op: str, target: int, nbytes: int) -> None:
        tracer = self._shared.runtime.tracer
        if tracer is not None:
            tracer.record_rma(
                self.comm.world_rank, self._shared.id, op, target, nbytes
            )

    def _record_epoch(
        self,
        op: str,
        target: Optional[int] = None,
        group: Optional[Iterable[int]] = None,
    ) -> None:
        tracer = self._shared.runtime.tracer
        if tracer is not None:
            tracer.record_epoch(
                self.comm.world_rank, self._shared.id, op, target,
                tuple(group) if group is not None else None,
            )

    def _direct(self, target: int) -> bool:
        """May this access touch the target segment with plain
        loads/stores?  Needs a shared address space between origin and
        target, plus either the runtime-wide ``sharing="shared"`` policy
        or an explicitly shared-allocated window.  Storage windows are
        never direct: every access goes through the chunk cache."""
        rt = self._shared.runtime
        if self._shared.kind == "storage":
            return False
        if not rt.shares_address_space(
            self.comm.world_rank, self.comm.to_world(target)
        ):
            return False
        return rt.sharing == "shared" or self._shared.kind == "shared"

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

    def _segment(self, target: int, disp: int, count: int) -> np.ndarray:
        buf = self.shared_query(target)
        self._check_bounds(target, buf.size, disp, count)
        return buf[disp:disp + count]

    @staticmethod
    def _check_bounds(target: int, size: int, disp: int, count: int) -> None:
        if disp < 0 or count < 0 or disp + count > size:
            raise MPIError(
                f"RMA access [{disp}, {disp + count}) outside target "
                f"{target}'s segment of {size} elements"
            )

    def _span(self, target: int, disp: int, count: int):
        """The (synchronizer, chunk keys) pair serialising an access to
        ``[disp, disp+count)`` of ``target``'s segment.

        In-memory windows key the window-wide table by ``(target,
        chunk)``; storage windows use the target ChunkedArray's own
        per-chunk table (shared with flush/spill), keyed by chunk index.
        """
        st = self._shared
        if st.kind == "storage":
            buf = self.shared_query(target)
            return buf.sync, list(buf.chunk_range(disp, count))
        if count <= 0:
            return st.sync, []
        ce = st.chunk_elems
        first, last = disp // ce, (disp + count - 1) // ce
        return st.sync, [(target, c) for c in range(first, last + 1)]

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

    def _stage(self, target: int, nbytes: int) -> int:
        """Staging-copy accounting for a non-direct access: one
        origin-side serialisation copy, plus the process backend's
        mirror delivery copy."""
        st = self._shared
        copies, staged = 1, nbytes
        if st.runtime.rma_mirror_copies:
            self._mirror(target, nbytes)
            copies, staged = 2, 2 * nbytes
        st.note(staged_copies=copies, staged_bytes=staged)
        return staged

    # ------------------------------------------------------------ transfer
    def put(self, src: Any, target: int, target_disp: int = 0) -> None:
        """One-sided store of ``src`` into ``target``'s segment at
        element displacement ``target_disp`` (MPI_Put analog)."""
        self._hit("rma.put")
        self._check_live()
        arr = np.asarray(src)
        nbytes = int(arr.nbytes)
        self._record_rma("put", target, nbytes)
        self._check_epoch(target, "put")
        st = self._shared
        if st.kind == "storage":
            buf = self.shared_query(target)
            self._check_bounds(target, buf.size, target_disp, int(arr.size))
            buf.chunkwise(target_disp, int(arr.size), copy_in(arr.reshape(-1)),
                          task=self.comm.world_rank, dirty=True)
            st.note(puts=1, bytes=nbytes, staged_copies=1, staged_bytes=nbytes)
            return
        seg = self._segment(target, target_disp, int(arr.size))
        sync, keys = self._span(target, target_disp, int(arr.size))
        if self._direct(target):
            # the store itself is zero-copy; the span locks only
            # serialise it against a concurrent RMW touching the same
            # chunks, so accumulate atomicity holds without serialising
            # disjoint-chunk traffic
            with sync.span(keys):
                np.copyto(seg, arr)
            st.note(zero_copy_hits=1, zero_copy_bytes=nbytes)
        else:
            staged = clone(arr)          # origin-side serialisation copy
            self._stage(target, nbytes)
            with sync.span(keys):
                np.copyto(seg, staged)
        st.note(puts=1, bytes=nbytes)

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

        Returns a private copy by default (into ``buf`` when given).
        ``copy=False`` asks for a read-only zero-copy *view* -- legal
        only when the access is direct (shared address space), else
        ``MPIError``."""
        self._hit("rma.get")
        self._check_live()
        full = self.shared_query(target)
        if count is None:
            count = int(full.size) - target_disp
        nbytes = int(count) * np.dtype(full.dtype).itemsize
        self._record_rma("get", target, nbytes)
        self._check_epoch(target, "get")
        st = self._shared
        if st.kind == "storage":
            if not copy:
                raise MPIError(
                    "zero-copy get (copy=False) is unavailable on "
                    "storage-backed windows: chunks are cached, not mapped"
                )
            self._check_bounds(target, full.size, target_disp, int(count))
            # resident chunk slices land straight in the caller's buffer;
            # one the walk cannot fill slice by slice (strided, another
            # dtype, the wrong size) goes through a staging array
            staged = buf is None or not (
                buf.dtype == full.dtype and buf.flags.c_contiguous
                and buf.size == count
            )
            dest = (np.empty(int(count), dtype=full.dtype) if staged
                    else buf.reshape(-1))
            full.chunkwise(target_disp, int(count), copy_out(dest),
                           task=self.comm.world_rank)
            if buf is None:
                buf = dest
            elif staged:
                np.copyto(buf, dest.reshape(buf.shape))
            st.note(gets=1, bytes=nbytes, staged_copies=1, staged_bytes=nbytes)
            return buf
        seg = self._segment(target, target_disp, int(count))
        direct = self._direct(target)
        if not copy:
            if not direct:
                raise MPIError(
                    "zero-copy get (copy=False) needs a shared address "
                    "space between origin and target"
                )
            view = seg.view()
            view.flags.writeable = False
            st.note(gets=1, bytes=nbytes, zero_copy_hits=1,
                    zero_copy_bytes=nbytes)
            return view
        if direct:
            # the one semantic transfer: segment -> result, no staging
            st.note(zero_copy_hits=1, zero_copy_bytes=nbytes)
            out = seg.copy() if buf is None else buf
            if buf is not None:
                np.copyto(buf.reshape(seg.shape), seg)
        else:
            sync, keys = self._span(target, target_disp, int(count))
            with sync.span(keys):
                staged = clone(seg)      # target-side serialisation copy
            self._stage(target, nbytes)
            if buf is None:
                out = staged
            else:
                np.copyto(buf.reshape(staged.shape), staged)
                out = buf
        st.note(gets=1, bytes=nbytes)
        return out

    def _rmw(
        self,
        op_name: str,
        counter: str,
        src: Any,
        target: int,
        target_disp: int,
        apply: Callable[[np.ndarray, Any], Any],
    ) -> Any:
        """Shared read-modify-write core of :meth:`accumulate`,
        :meth:`fetch_and_op` and :meth:`compare_and_swap`.

        One code path carries the epoch check, the zero-copy vs staged
        (vs process-mirror) accounting, and -- critically -- the
        *per-chunk* span locks that serialise every RMW against puts
        touching the same chunks (the PR 4 atomicity fix, re-scoped
        from the old whole-window data_lock so disjoint-chunk traffic
        no longer serialises).  ``apply(seg, contrib)`` runs with the
        span held and its return value is passed through, so the
        atomicity guarantee cannot drift between the backends.

        In memory this is the atomics' hot path (every ``dynamic_for``
        claim and steal attempt), so it is one straight line: one
        bounds-checked slice, the direct-access test inline, one chunk
        lock for a one-chunk access (a sorted span otherwise), and one
        stats-lock section for every counter the access moves."""
        self._hit("rma.put")
        self._check_live()
        arr = np.asarray(src)
        nbytes = int(arr.nbytes)
        self._record_rma(op_name, target, nbytes)
        self._check_epoch(target, op_name)
        st = self._shared
        if st.kind == "storage":
            buf = self.shared_query(target)
            self._check_bounds(target, buf.size, target_disp, int(arr.size))
            contrib = arr.reshape(-1)
            results: List[Any] = []

            def rmw(region: np.ndarray, pos: int) -> None:
                # the same ``apply`` callable the in-memory path uses, run
                # in place on the resident chunk slice under the chunk's
                # lock.  The reduction ops are elementwise, so applying
                # per chunk slice preserves MPI's (element-wise)
                # accumulate atomicity; the single-element atomics always
                # span exactly one chunk.
                results.append(apply(region, contrib[pos:pos + region.size]))

            buf.chunkwise(target_disp, contrib.size, rmw,
                          task=self.comm.world_rank, dirty=True)
            st.note(bytes=nbytes, staged_copies=1, staged_bytes=nbytes,
                    **{counter: 1})
            return results[0] if results else None
        count = int(arr.size)
        buf = self.shared_query(target)
        self._check_bounds(target, buf.size, target_disp, count)
        seg = buf[target_disp:target_disp + count]
        rt = st.runtime
        comm = self.comm
        # ``_direct`` for an in-memory window
        direct = (rt.sharing == "shared" or st.kind == "shared") and \
            rt.shares_address_space(comm.world_rank, comm.to_world(target))
        if direct:
            contrib = arr
        else:
            contrib = clone(arr)
            if rt.rma_mirror_copies:
                self._mirror(target, nbytes)
        ce = st.chunk_elems
        first = target_disp // ce
        last = (target_disp + count - 1) // ce if count else first - 1
        if last == first:
            lock = st.sync.acquire((target, first))
            try:
                out = apply(seg, contrib)
            finally:
                lock.release()
        else:
            with st.sync.span([(target, c) for c in range(first, last + 1)]):
                out = apply(seg, contrib)
        c = st.counters
        with st.stats_lock:
            c.bytes += nbytes
            setattr(c, counter, getattr(c, counter) + 1)
            if direct:
                c.zero_copy_hits += 1
                c.zero_copy_bytes += nbytes
            else:
                copies = 2 if rt.rma_mirror_copies else 1
                c.staged_copies += copies
                c.staged_bytes += copies * nbytes
        return out

    def accumulate(
        self,
        src: Any,
        target: int,
        op: Op = SUM,
        target_disp: int = 0,
    ) -> None:
        """Atomic read-modify-write into ``target``'s segment with a
        reduction op from :mod:`repro.runtime.ops` (MPI_Accumulate
        analog).  Serialised per window, so concurrent accumulates from
        different origins never lose updates."""

        def apply(seg: np.ndarray, contrib: Any) -> None:
            seg[...] = op(seg, contrib)

        self._rmw("accumulate", "accumulates", src, target, target_disp, apply)

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
        arr = np.asarray(value)
        if arr.size != 1:
            raise MPIError("fetch_and_op operates on exactly one element")

        def apply(seg: np.ndarray, contrib: Any) -> Any:
            old = seg[0]                    # scalar indexing copies
            seg[...] = op(seg, contrib)
            return old

        return self._rmw(
            "fetch_and_op", "fetch_and_ops", arr.reshape(1), target,
            target_disp, apply,
        )

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
        new_arr = np.asarray(new)
        if new_arr.size != 1:
            raise MPIError("compare_and_swap operates on exactly one element")

        def apply(seg: np.ndarray, contrib: Any) -> Any:
            old = seg[0]
            expected = np.asarray(compare, dtype=seg.dtype).reshape(-1)[0]
            if old == expected:
                seg[0] = np.asarray(contrib).reshape(-1)[0]
            return old

        return self._rmw(
            "compare_and_swap", "compare_and_swaps", new_arr.reshape(1),
            target, target_disp, apply,
        )

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
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("fence")
        self.comm.barrier()
        self._checkpoint_if_storage()
        self._fence_open = True
        self._shared.note(fences=1)

    def fence_end(self) -> None:
        """Final fence: closes the fence epoch without opening a new
        one (the MPI_MODE_NOSUCCEED assertion).  Checkpoints a storage
        window just like :meth:`fence`."""
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("fence_end")
        self.comm.barrier()
        self._checkpoint_if_storage()
        self._fence_open = False
        self._shared.note(fences=1)

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
        self._hit("rma.epoch")
        self._check_live()
        origins = frozenset(int(g) for g in group)
        self._record_epoch("post", group=sorted(origins))
        st = self._shared
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
        self._hit("rma.epoch")
        self._check_live()
        targets = frozenset(int(g) for g in group)
        self._record_epoch("start", group=sorted(targets))
        if self._started is not None:
            raise MPIError("access epoch already started")
        st = self._shared

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
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("complete")
        if self._started is None:
            raise MPIError("complete() without a started access epoch")
        st = self._shared
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
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("wait")
        st = self._shared
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
        self._hit("rma.epoch")
        self._check_live()
        mode = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        self._record_epoch(f"lock_{mode}", target=target)
        if not 0 <= target < self.size:
            raise MPIError(f"rank {target} not in window")
        if self._lock_all or target in self._held_locks:
            raise MPIError(f"lock on target {target} already held")
        st = self._shared

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
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("unlock", target=target)
        if target not in self._held_locks:
            raise MPIError(f"unlock({target}) without a held lock")
        st = self._shared
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
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("lock_all")
        if self._lock_all or self._held_locks:
            raise MPIError("lock_all() while holding locks")
        st = self._shared

        def grantable() -> bool:
            return st.excl_total == 0

        with st.cond:
            st.wait_for(grantable, "lock_all()")
            st.lockall_holders.add(self.rank)
        self._lock_all = True
        st.note(locks=1)

    def unlock_all(self) -> None:
        """Release the lock_all epoch (MPI_Win_unlock_all analog)."""
        self._hit("rma.epoch")
        self._check_live()
        self._record_epoch("unlock_all")
        if not self._lock_all:
            raise MPIError("unlock_all() without lock_all()")
        st = self._shared
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
