"""Nonblocking collectives: a dataflow cell engine with chunk pipelining.

Every ``Comm.i*`` collective deposits its contribution into a shared
per-communicator :class:`IcollState` and returns a
:class:`CollectiveRequest` immediately.  When the last rank has
deposited, the episode is compiled into a DAG of *cells* -- one bounded
unit of data movement each (copy one chunk along one tree edge, fold one
rank's chunk into a running partial, deliver one result).  Cells then
execute inside whichever rank happens to be testing or waiting on its
request: ``test()`` drains ready cells and returns, ``wait()`` parks
event-driven between bursts, and a rank that is busy computing has its
cells *stolen* by the ranks that are waiting -- so the collective makes
progress exactly while the application overlaps it with computation.

Three algorithms, selected per call, per runtime default, or by the
measured-trajectory tuner (``Runtime(algorithm="auto")``, see
:mod:`repro.runtime.autotune`):

* ``flat`` -- direct source->destination cells, whole payloads;
* ``hierarchical`` -- cells follow the topology tree of
  :func:`repro.machine.treemap.collective_levels`, store-and-forward
  (each tree hop moves the whole payload);
* ``pipelined`` -- the hierarchical tree with large contiguous numpy
  payloads split into chunks, so chunk *k+1* streams into level *L*
  while chunk *k* drains level *L+1* (Zhou et al., arXiv:2007.06892).

Reductions chunk only for the elementwise builtin ops (fold order per
element is then identical to the blocking engines' ascending-rank fold,
so results stay bit-identical); any other op falls back to the
unchunked ascending-rank chain.

Time is modeled, not measured: when ``Runtime.icoll_link_time_per_mib``
is nonzero every cell sleeps (virtually, under ``backend="coop"``) in
proportion to the bytes it moves, and cells sharing a sending port
serialise -- the single-port model that makes store-and-forward vs
pipelined measurable and deterministic in ``BENCH_collectives.json``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.treemap import TreeLevel
from repro.metrics.collectives import CollectiveMetrics
from repro.runtime.abort import Watchdog, raise_if_aborted, subscribe_abort
from repro.runtime.errors import (
    AbortError,
    CountMismatchError,
    MPIError,
)
from repro.runtime.message import Status
from repro.runtime.ops import MAX, MIN, PROD, SUM, Op
from repro.runtime.payload import clone_would_copy, payload_nbytes
from repro.runtime.request import Request

#: default chunk size for the pipelined algorithm
DEFAULT_CHUNK_BYTES = 64 << 10

#: builtin ops safe to fold chunk-by-chunk: elementwise, argument-
#: non-mutating and dtype-preserving for same-dtype inputs.  A custom op
#: may opt in by setting ``op.elementwise = True`` and honouring the
#: same contract.
_ELEMENTWISE_OPS = (SUM, PROD, MAX, MIN)

# cell states
_WAITING, _READY, _RUNNING, _DONE = 0, 1, 2, 3

_KINDS = (
    "ibarrier", "ibcast", "ireduce", "iallreduce", "igather",
    "iallgather", "ialltoall", "ineighbor_exchange",
)


def _is_elementwise(op: Op) -> bool:
    return op in _ELEMENTWISE_OPS or bool(getattr(op, "elementwise", False))


def _chunk_slices(arr: np.ndarray, chunk_bytes: int) -> List[slice]:
    """Slices of the flattened array, each about ``chunk_bytes`` big."""
    per = max(1, chunk_bytes // max(1, arr.itemsize))
    return [slice(i, min(i + per, arr.size)) for i in range(0, arr.size, per)]


class _Cell:
    """One bounded unit of collective data movement."""

    __slots__ = ("fn", "owner", "ndeps", "dependents", "state", "gates",
                 "link_s")

    def __init__(self, fn: Callable[[], None], owner: int) -> None:
        self.fn = fn
        #: preferred executor (its data moves); others may steal when
        #: the owner is not currently engaged in the engine
        self.owner = owner
        self.ndeps = 0
        self.dependents: List[int] = []
        self.state = _WAITING
        #: ranks whose request must not complete before this cell runs
        #: (the rank receiving its output, and the rank whose live
        #: buffer the cell reads -- send-buffer safety)
        self.gates: Tuple[int, ...] = ()
        #: modeled link occupancy of this cell (seconds)
        self.link_s = 0.0


class _Episode:
    """One in-flight nonblocking collective on one communicator."""

    __slots__ = (
        "seq", "kind", "root", "op", "req_algorithm", "req_chunk",
        "algorithm", "chunk_bytes", "contrib", "arrived", "n_arrived",
        "planned", "cells", "ready", "results", "gates_left", "collected",
        "failed", "partial",
    )

    def __init__(
        self, size: int, seq: int, kind: str, root: int, op: Optional[Op],
        req_algorithm: Optional[str], req_chunk: Optional[int],
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.root = root
        self.op = op
        # the creating rank's requested algorithm/chunk (None = let the
        # runtime's selector decide at plan time, when payload sizes
        # are known); ranks must agree on explicit overrides
        self.req_algorithm = req_algorithm
        self.req_chunk = req_chunk
        self.algorithm = "?"
        self.chunk_bytes = 0
        self.contrib: List[Any] = [None] * size
        self.arrived = [False] * size
        self.n_arrived = 0
        self.planned = False
        self.cells: List[_Cell] = []
        self.ready: List[int] = []
        self.results: List[Any] = [None] * size
        self.gates_left = [0] * size
        self.collected = [False] * size
        #: exception that poisoned the episode (peer crash mid-cell)
        self.failed: Optional[BaseException] = None
        #: running partial of the unchunked reduction chain
        self.partial: Any = None


class _PlanBuilder:
    """Adds cells to an episode, wiring dependencies, completion gates
    and single-port serialisation (cells sharing a ``port`` run in plan
    order -- one send at a time per sender, like a NIC)."""

    def __init__(self, ep: _Episode, link_s_per_byte: float) -> None:
        self.ep = ep
        self.link = link_s_per_byte
        self._last_port: Dict[Any, int] = {}

    def add(
        self,
        fn: Callable[[], None],
        *,
        owner: int,
        deps: Sequence[int] = (),
        port: Any = None,
        gates: Sequence[int] = (),
        nbytes: int = 0,
    ) -> int:
        ep = self.ep
        idx = len(ep.cells)
        cell = _Cell(fn, owner)
        dep_set = set(deps)
        if port is not None:
            prev = self._last_port.get(port)
            if prev is not None:
                dep_set.add(prev)
            self._last_port[port] = idx
        for d in dep_set:
            ep.cells[d].dependents.append(idx)
        cell.ndeps = len(dep_set)
        cell.gates = tuple(set(gates))
        for r in cell.gates:
            ep.gates_left[r] += 1
        cell.link_s = self.link * nbytes
        ep.cells.append(cell)
        if cell.ndeps == 0:
            cell.state = _READY
            ep.ready.append(idx)
        return idx


class IcollState:
    """Shared nonblocking-collective engine of one communicator.

    Constructor mirrors
    :class:`~repro.runtime.collectives.HierarchicalCollectiveState`;
    extras: ``sleep`` (the runtime's task sleep, used for the modeled
    link time), ``link_time`` (callable returning seconds per MiB per
    cell) and ``selector`` (callable ``(kind, nbytes, size) ->
    (algorithm, chunk_bytes)`` consulted when a call does not pin the
    algorithm explicitly)."""

    def __init__(
        self,
        size: int,
        abort_flag: threading.Event,
        *,
        timeout: float = 30.0,
        clone: Callable[[Any], Any] = lambda x: x,
        metrics: Optional[CollectiveMetrics] = None,
        levels: Optional[Sequence[TreeLevel]] = None,
        group: Optional[Tuple[int, ...]] = None,
        share: Optional[Callable[[int, int], bool]] = None,
        faults: Optional[Any] = None,
        make_cond: Optional[Callable[[], Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        link_time: Optional[Callable[[], float]] = None,
        selector: Optional[Callable[..., Tuple[str, int]]] = None,
        owner: Optional[Any] = None,
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self._abort = abort_flag
        self._timeout = timeout
        self._clone = clone
        self.metrics = metrics if metrics is not None else CollectiveMetrics()
        self.faults = faults
        self._make_cond = make_cond if make_cond is not None else threading.Condition
        import time as _time

        self._clock = clock if clock is not None else _time.monotonic
        self._sleep = sleep
        self._link_time = link_time
        self._selector = selector
        #: the runtime this state answers to (waitany park-owner check)
        self.owner = owner
        if levels is None:
            levels = [TreeLevel("comm", (tuple(range(size)),))]
        self.levels = list(levels)
        self.group = group if group is not None else tuple(range(size))
        if len(self.group) != size:
            raise MPIError(
                f"group of {len(self.group)} ranks for size-{size} state"
            )
        self._share = share
        self._cond = self._make_cond()
        self._episodes: Dict[int, _Episode] = {}
        #: bumped on every arrival and cell completion: the waitany park
        #: token and the progress measure for deadline extension
        self._progress_count = 0
        #: ranks currently inside test/wait of this engine (their ready
        #: cells are left for them; a non-engaged owner's cells may be
        #: stolen so an owner busy computing never stalls the DAG)
        self._engaged = [0] * size
        subscribe_abort(abort_flag, self._wake_all)

    # ------------------------------------------------------------------ utils
    def _wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _do_clone(self, obj: Any) -> Any:
        new = self._clone(obj)
        if new is not obj:
            self.metrics.note_clone()
        return new

    def _link_s_per_byte(self) -> float:
        if self._link_time is None:
            return 0.0
        return float(self._link_time()) / float(1 << 20)

    def _may_share(self, src: int, dst: int) -> bool:
        return self._share is not None and self._share(
            self.group[src], self.group[dst]
        )

    def _deliver_ref(self, ep: _Episode, obj: Any, dst: int) -> None:
        """Prefill a zero-copy by-reference delivery at plan time."""
        if clone_would_copy(obj):
            self.metrics.note_elision()
        ep.results[dst] = obj

    # ------------------------------------------------------------------ start
    def start(
        self,
        seq: int,
        kind: str,
        rank: int,
        payload: Any,
        *,
        root: int = 0,
        op: Optional[Op] = None,
        algorithm: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
    ) -> "CollectiveRequest":
        """Deposit rank's contribution to collective ``seq``; returns
        the request handle.  The last depositor compiles the plan."""
        if kind not in _KINDS:
            raise MPIError(f"unknown nonblocking collective {kind!r}")
        if not 0 <= root < self.size:
            raise MPIError(
                f"root {root} outside communicator of size {self.size}"
            )
        if algorithm is not None and algorithm not in (
            "flat", "hierarchical", "pipelined"
        ):
            raise MPIError(f"unknown icoll algorithm {algorithm!r}")
        self._validate_payload(kind, payload)
        if self.faults is not None:
            # per-rank episode-entry site (the chaos harness's handle on
            # the icoll path; executors hit it again per cell)
            self.faults.hit("coll.ichunk", rank, wake=self._wake_all)
        with self._cond:
            ep = self._episodes.get(seq)
            if ep is None:
                ep = _Episode(
                    self.size, seq, kind, root, op, algorithm, chunk_bytes
                )
                self._episodes[seq] = ep
            else:
                if ep.kind != kind:
                    raise MPIError(
                        f"collective mismatch on icoll #{seq}: {ep.kind} "
                        f"already in flight, rank {rank} called {kind}"
                    )
                if ep.root != root:
                    raise MPIError(
                        f"root mismatch on {kind} #{seq}: "
                        f"{ep.root} vs {root}"
                    )
            if ep.arrived[rank]:
                raise MPIError(
                    f"rank {rank} deposited twice into {kind} #{seq}"
                )
            ep.contrib[rank] = payload
            ep.arrived[rank] = True
            ep.n_arrived += 1
            self._progress_count += 1
            if ep.n_arrived == self.size:
                try:
                    self._build_plan(ep)
                    ep.planned = True
                except BaseException as exc:
                    ep.failed = exc
                    self._cond.notify_all()
                    raise
            self._cond.notify_all()
        return CollectiveRequest(self, ep, rank)

    def _validate_payload(self, kind: str, payload: Any) -> None:
        if kind == "ialltoall":
            if not isinstance(payload, (list, tuple)) or len(payload) != self.size:
                raise CountMismatchError(
                    f"ialltoall needs exactly {self.size} items"
                )
        elif kind == "ineighbor_exchange":
            if not isinstance(payload, dict):
                raise MPIError(
                    "ineighbor_exchange takes a {neighbor_rank: payload} dict"
                )
            for dst in payload:
                if not 0 <= dst < self.size:
                    raise MPIError(
                        f"neighbor {dst} outside communicator of size "
                        f"{self.size}"
                    )

    # ------------------------------------------------------------------- plan
    def _resolve_algorithm(self, ep: _Episode) -> None:
        algo, cb = ep.req_algorithm, ep.req_chunk
        if algo is None:
            nbytes = max(
                (payload_nbytes(c) for c in ep.contrib if c is not None),
                default=0,
            )
            if self._selector is not None:
                algo, sel_cb = self._selector(ep.kind, nbytes, self.size)
                if cb is None:
                    cb = sel_cb
            else:
                algo = "pipelined"
        if cb is None:
            cb = DEFAULT_CHUNK_BYTES if algo == "pipelined" else 0
        ep.algorithm = algo
        ep.chunk_bytes = int(cb) if algo == "pipelined" else 0

    def _build_plan(self, ep: _Episode) -> None:
        self._resolve_algorithm(ep)
        b = _PlanBuilder(ep, self._link_s_per_byte())
        if ep.kind == "ibarrier":
            pass
        elif ep.kind == "ibcast":
            self._plan_bcast(ep, b)
        elif ep.kind in ("ireduce", "iallreduce"):
            self._plan_reduce(ep, b, deliver_all=ep.kind == "iallreduce")
        elif ep.kind == "igather":
            self._plan_gather(ep, b, all_ranks=False)
        elif ep.kind == "iallgather":
            self._plan_gather(ep, b, all_ranks=True)
        elif ep.kind == "ialltoall":
            self._plan_alltoall(ep, b)
        elif ep.kind == "ineighbor_exchange":
            self._plan_neighbor(ep, b)
        self.metrics.note_icoll_episode(ep.algorithm)

    # ----------------------------------------------------------- bcast tree
    def _bcast_parents(self, root: int) -> Dict[int, int]:
        """The forwarding tree: each non-root rank receives from the
        representative of its innermost group that is not itself; group
        representatives receive from the enclosing scope's rep."""
        parent: Dict[int, int] = {}
        for level in reversed(self.levels):        # outermost -> innermost
            for members in level.groups:
                rep = root if root in members else min(members)
                for r in members:
                    if r != rep:
                        parent[r] = rep
        return parent

    def _plan_bcast(self, ep: _Episode, b: _PlanBuilder) -> None:
        root = ep.root
        src_obj = ep.contrib[root]
        ep.results[root] = src_obj
        copy_dsts: List[int] = []
        for d in range(self.size):
            if d == root:
                continue
            if self._may_share(root, d):
                self._deliver_ref(ep, src_obj, d)
            else:
                copy_dsts.append(d)
        if not copy_dsts:
            return
        use_tree = ep.algorithm in ("hierarchical", "pipelined")
        parents = self._bcast_parents(root) if use_tree else {}
        copy_set = set(copy_dsts)
        chunkable = (
            isinstance(src_obj, np.ndarray)
            and src_obj.flags.c_contiguous
            and src_obj.size > 0
            and ep.chunk_bytes > 0
            and src_obj.nbytes > ep.chunk_bytes
        )
        cell_of: Dict[Tuple[int, int], int] = {}   # (dst, chunk) -> cell
        if chunkable:
            slices = _chunk_slices(src_obj, ep.chunk_bytes)
            for d in copy_dsts:
                ep.results[d] = np.empty_like(src_obj)
            # parents must be visited before children so their cells
            # exist for the dependency edges; sort by tree depth
            def depth(d: int) -> int:
                n, p = 0, d
                while p != root:
                    p = parents.get(p, root)
                    n += 1
                return n

            for d in sorted(copy_dsts, key=depth):
                p = parents.get(d, root)
                src_arr = ep.results[p] if p in copy_set else src_obj
                gate_src = p if p in copy_set else root
                dst_arr = ep.results[d]
                for c, sl in enumerate(slices):

                    def fn(src=src_arr, dst=dst_arr, sl=sl, d=d, c=c):
                        dst.reshape(-1)[sl] = src.reshape(-1)[sl]
                        if c == 0:
                            self.metrics.note_clone()

                    deps = []
                    if (p, c) in cell_of:
                        deps.append(cell_of[(p, c)])
                    nb = (sl.stop - sl.start) * src_obj.itemsize
                    cell_of[(d, c)] = b.add(
                        fn, owner=d, deps=deps, port=("tx", p),
                        gates=(d, gate_src), nbytes=nb,
                    )
            return
        # store-and-forward: one whole-payload clone per destination,
        # sourced from the parent's already-delivered copy on the tree
        def depth2(d: int) -> int:
            n, p = 0, d
            while p != root:
                p = parents.get(p, root)
                n += 1
            return n

        nbytes = payload_nbytes(src_obj)
        for d in sorted(copy_dsts, key=depth2):
            p = parents.get(d, root)
            gate_src = p if p in copy_set else root

            def fn(d=d, p=p):
                src = ep.results[p] if p in copy_set else src_obj
                ep.results[d] = self._do_clone(src)

            deps = [cell_of[(p, 0)]] if (p, 0) in cell_of else []
            cell_of[(d, 0)] = b.add(
                fn, owner=d, deps=deps, port=("tx", p),
                gates=(d, gate_src), nbytes=nbytes,
            )

    # -------------------------------------------------------------- reduce
    def _plan_reduce(
        self, ep: _Episode, b: _PlanBuilder, *, deliver_all: bool
    ) -> None:
        op = ep.op
        # the rank whose result slot owns the fold output outright; the
        # root for ireduce, rank 0 for iallreduce
        owner = ep.root if not deliver_all else 0
        c0 = ep.contrib[0]
        chunkable = (
            self.size > 1
            and ep.chunk_bytes > 0
            and _is_elementwise(op)
            and all(
                isinstance(c, np.ndarray)
                and c.flags.c_contiguous
                and c.dtype == c0.dtype
                and c.shape == c0.shape
                for c in ep.contrib
            )
            and isinstance(c0, np.ndarray)
            and c0.size > 0
            and c0.nbytes > ep.chunk_bytes
        )
        if chunkable:
            slices = _chunk_slices(c0, ep.chunk_bytes)
            out = np.empty_like(c0)
            partials: List[Any] = [None] * len(slices)
            last_fold: List[int] = [0] * len(slices)
            for c, sl in enumerate(slices):
                prev = None
                for r in range(1, self.size):
                    last = r == self.size - 1

                    def fn(r=r, c=c, sl=sl, last=last):
                        a = (
                            partials[c]
                            if r > 1
                            else ep.contrib[0].reshape(-1)[sl]
                        )
                        v = op(a, ep.contrib[r].reshape(-1)[sl])
                        if last:
                            out.reshape(-1)[sl] = v
                            partials[c] = None
                        else:
                            partials[c] = v

                    # gate the contributing rank (its buffer is read),
                    # rank 0 on the first fold (its buffer is read too)
                    # and the result owner on the final fold (its output
                    # is not materialised until every chunk lands)
                    gates = [r]
                    if r == 1:
                        gates.append(0)
                    if last:
                        gates.append(owner)
                    nb = (sl.stop - sl.start) * c0.itemsize
                    prev = b.add(
                        fn, owner=r, deps=() if prev is None else (prev,),
                        port=("rx", r), gates=gates, nbytes=nb,
                    )
                last_fold[c] = prev
            ep.results[owner] = out
            if not deliver_all:
                return
            self._plan_reduce_delivery(
                ep, b, owner, out, deps_per_chunk=(slices, last_fold),
            )
            return
        # generic ascending-rank chain, cloning at every fold boundary
        # (exactly the blocking engines' discipline and order)
        nbytes = payload_nbytes(c0)
        prev = None
        for r in range(self.size):
            last = r == self.size - 1

            def fn(r=r, last=last):
                if r == 0:
                    ep.partial = self._do_clone(ep.contrib[0])
                else:
                    ep.partial = op(ep.partial, self._do_clone(ep.contrib[r]))
                if last:
                    ep.results[owner] = ep.partial
                    ep.partial = None

            prev = b.add(
                fn, owner=r, deps=() if prev is None else (prev,),
                port=("rx", r),
                gates=(r, owner) if last else (r,), nbytes=nbytes,
            )
        if deliver_all:
            self._plan_reduce_delivery(
                ep, b, owner, None, deps_per_chunk=None, chain_tail=prev,
            )

    def _plan_reduce_delivery(
        self,
        ep: _Episode,
        b: _PlanBuilder,
        owner: int,
        out: Optional[np.ndarray],
        *,
        deps_per_chunk: Optional[Tuple[List[slice], List[int]]],
        chain_tail: Optional[int] = None,
    ) -> None:
        """Fan the folded result out to every rank but ``owner``."""
        for d in range(self.size):
            if d == owner:
                continue
            if self._may_share(owner, d):
                if deps_per_chunk is not None:
                    slices, last_fold = deps_per_chunk

                    def fn_ref(d=d):
                        self._deliver_ref(ep, ep.results[owner], d)

                    # gate the owner too: its completion would null the
                    # results slot this cell reads (see _take)
                    b.add(
                        fn_ref, owner=d, deps=tuple(last_fold),
                        gates=(d, owner), nbytes=0,
                    )
                else:

                    def fn_ref2(d=d):
                        self._deliver_ref(ep, ep.results[owner], d)

                    b.add(
                        fn_ref2, owner=d,
                        deps=() if chain_tail is None else (chain_tail,),
                        gates=(d, owner), nbytes=0,
                    )
                continue
            if deps_per_chunk is not None:
                slices, last_fold = deps_per_chunk
                ep.results[d] = np.empty_like(out)
                for c, sl in enumerate(slices):

                    def fn(d=d, sl=sl, c=c):
                        ep.results[d].reshape(-1)[sl] = out.reshape(-1)[sl]
                        if c == 0:
                            self.metrics.note_clone()

                    nb = (sl.stop - sl.start) * out.itemsize
                    b.add(
                        fn, owner=d, deps=(last_fold[c],), port=("rx", d),
                        gates=(d, owner), nbytes=nb,
                    )
            else:

                def fn2(d=d):
                    ep.results[d] = self._do_clone(ep.results[owner])

                b.add(
                    fn2, owner=d,
                    deps=() if chain_tail is None else (chain_tail,),
                    port=("rx", d), gates=(d, owner),
                    nbytes=payload_nbytes(ep.contrib[0]),
                )

    # ---------------------------------------------------- gather-family
    def _plan_gather(
        self, ep: _Episode, b: _PlanBuilder, *, all_ranks: bool
    ) -> None:
        dsts = range(self.size) if all_ranks else (ep.root,)
        for d in dsts:
            out: List[Any] = [None] * self.size
            ep.results[d] = out
            for src in range(self.size):
                obj = ep.contrib[src]
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    out[src] = obj
                    continue

                def fn(out=out, src=src):
                    out[src] = self._do_clone(ep.contrib[src])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    def _plan_alltoall(self, ep: _Episode, b: _PlanBuilder) -> None:
        for d in range(self.size):
            out: List[Any] = [None] * self.size
            ep.results[d] = out
            for src in range(self.size):
                obj = ep.contrib[src][d]
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    out[src] = obj
                    continue

                def fn(out=out, src=src, d=d):
                    out[src] = self._do_clone(ep.contrib[src][d])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    def _plan_neighbor(self, ep: _Episode, b: _PlanBuilder) -> None:
        for d in range(self.size):
            ep.results[d] = {}
        for src in range(self.size):
            for d, obj in ep.contrib[src].items():
                if self._may_share(src, d):
                    if clone_would_copy(obj):
                        self.metrics.note_elision()
                    ep.results[d][src] = obj
                    continue

                def fn(src=src, d=d):
                    ep.results[d][src] = self._do_clone(ep.contrib[src][d])

                b.add(
                    fn, owner=d, port=("rx", d), gates=(src, d),
                    nbytes=payload_nbytes(obj),
                )

    # -------------------------------------------------------------- execute
    def _scan_claim(
        self, rank: int, ep_first: _Episode, *, take: bool
    ) -> Optional[Tuple[_Episode, int]]:
        """Find a runnable cell: rank's own first (preferring the
        episode it is asking about), else steal one whose owner is not
        engaged in the engine right now.  Under ``self._cond``."""
        episodes = [ep_first] + [
            e for e in self._episodes.values() if e is not ep_first
        ]
        best: Optional[Tuple[_Episode, int]] = None
        for ep in episodes:
            if not ep.planned or ep.failed is not None:
                continue
            for idx in ep.ready:
                owner = ep.cells[idx].owner
                if owner == rank:
                    best = (ep, idx)
                    break
                if best is None and self._engaged[owner] == 0:
                    best = (ep, idx)
            if best is not None and best[0].cells[best[1]].owner == rank:
                break
        if best is not None and take:
            ep, idx = best
            ep.ready.remove(idx)
            ep.cells[idx].state = _RUNNING
        return best

    def _execute(self, rank: int, ep: _Episode, idx: int) -> None:
        cell = ep.cells[idx]
        try:
            if self.faults is not None:
                self.faults.hit("coll.ichunk", rank, wake=self._wake_all)
            if cell.link_s > 0.0 and self._sleep is not None:
                self._sleep(cell.link_s)
            cell.fn()
        except BaseException as exc:
            with self._cond:
                if ep.failed is None:
                    ep.failed = exc
                self._progress_count += 1
                self._cond.notify_all()
            raise
        with self._cond:
            cell.state = _DONE
            self.metrics.note_icoll_cell(stolen=cell.owner != rank)
            for r in cell.gates:
                ep.gates_left[r] -= 1
            for d in cell.dependents:
                dep = ep.cells[d]
                dep.ndeps -= 1
                if dep.ndeps == 0:
                    dep.state = _READY
                    ep.ready.append(d)
            self._progress_count += 1
            self._cond.notify_all()

    def _progress(self, rank: int, ep: _Episode) -> None:
        """Drain every currently-claimable cell."""
        while True:
            with self._cond:
                got = self._scan_claim(rank, ep, take=True)
            if got is None:
                return
            self._execute(rank, got[0], got[1])

    # ------------------------------------------------------------ completion
    def _complete_for(self, ep: _Episode, rank: int) -> bool:
        return ep.planned and ep.gates_left[rank] == 0

    def _take(self, ep: _Episode, rank: int) -> Any:
        res = ep.results[rank]
        ep.results[rank] = None
        ep.collected[rank] = True
        if all(ep.collected):
            self._episodes.pop(ep.seq, None)
        return res

    def _raise_failed(self, ep: _Episode) -> None:
        raise AbortError(
            f"nonblocking collective {ep.kind} #{ep.seq} aborted by peer "
            f"failure: {ep.failed!r}"
        ) from ep.failed

    def test_complete(
        self, rank: int, ep: _Episode
    ) -> Optional[Tuple[Any, Status]]:
        """One nonblocking progress burst (the ``Request.test`` hook):
        runs ready cells, then reports completion."""
        with self._cond:
            self._engaged[rank] += 1
        try:
            self._progress(rank, ep)
            with self._cond:
                if ep.failed is not None:
                    self._raise_failed(ep)
                if self._complete_for(ep, rank):
                    return self._take(ep, rank), Status()
                return None
        finally:
            with self._cond:
                self._engaged[rank] -= 1

    def wait_complete(self, rank: int, ep: _Episode) -> Tuple[Any, Status]:
        """Blocking completion: alternate progress bursts with
        event-driven parks; the deadline extends on any engine progress
        (arrivals or cells anywhere, this rank's bursts included), so
        only a genuinely stalled collective raises DeadlockError."""
        with self._cond:
            self._engaged[rank] += 1
            dog = Watchdog(self._abort, self._clock, self._timeout, lambda: (
                f"job aborted during {ep.kind} #{ep.seq}",
                f"nonblocking collective {ep.kind} #{ep.seq} stalled with "
                f"{ep.n_arrived}/{self.size} arrived -- collective mismatch?",
            ))
        try:
            while True:
                self._progress(rank, ep)
                with self._cond:
                    if ep.failed is not None:
                        self._raise_failed(ep)
                    if self._complete_for(ep, rank):
                        return self._take(ep, rank), Status()
                    pause = dog.tick(self._progress_count)
                    if self._scan_claim(rank, ep, take=False) is None:
                        self._cond.wait(timeout=pause)
        finally:
            with self._cond:
                self._engaged[rank] -= 1

    # ----------------------------------------------------------- waitany glue
    def progress_token(self) -> int:
        with self._cond:
            return self._progress_count

    def park_for_progress(self, token: int, timeout: float) -> None:
        """Park until engine progress, an abort, or ``timeout`` -- the
        same contract as ``Mailbox.park_for_activity``."""
        with self._cond:
            raise_if_aborted(self._abort, "job aborted")
            if self._progress_count == token:
                self._cond.wait(timeout=timeout)


class CollectiveRequest(Request):
    """Request handle of a nonblocking collective.

    ``test()`` runs ready cells of the episode (and steals idle peers')
    before reporting completion, so a compute/test loop drives the
    collective forward; ``wait()`` parks event-driven between bursts.
    Completion means this rank's output is materialised AND every cell
    reading this rank's contribution has run (send-buffer safety)."""

    def __init__(self, state: IcollState, ep: _Episode, rank: int) -> None:
        super().__init__(
            kind=ep.kind,
            try_complete=lambda: state.test_complete(rank, ep),
            block_complete=lambda: state.wait_complete(rank, ep),
            sleep=state._sleep,
            park=state.park_for_progress,
            park_token=state.progress_token,
            park_owner=state.owner,
        )
        self.state = state
        self.episode = ep
        self.rank = rank


__all__ = [
    "CollectiveRequest",
    "IcollState",
    "DEFAULT_CHUNK_BYTES",
]
