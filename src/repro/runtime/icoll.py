"""The collective engine: deposit + wait over a dataflow of cells.

Every ``Comm`` collective, blocking or not, deposits its contribution
into the shared per-communicator :class:`IcollState`; the blocking form
is deposit + :meth:`IcollState.wait_complete`, the ``i*`` form wraps the
same episode in a :class:`~repro.runtime.request.Request` whose test is
:meth:`IcollState.test_complete`.  When the last rank has
deposited, the episode is compiled into *cells* -- bounded units of data
movement (copy one chunk along one tree edge, fold one rank's chunk into
a running partial, deliver one result).  Cells execute inside whichever
rank happens to be testing or waiting on its request: ``test()`` drains
ready cells and returns, ``wait()`` parks event-driven between bursts,
and a rank that is busy computing has its cells *stolen* by the ranks
that are waiting -- so a collective makes progress exactly while the
application overlaps it with computation.

How many cells an episode gets is derived from what the engine can
observe.  With no modeled link time and nothing to pipeline (payload not
chunkable) there is nothing a DAG could overlap, so the whole movement
is **one cell**, run by the rank whose deposit completed the episode.
Otherwise the cells take one of three shapes -- the one the call pins
(``algorithm=`` / ``chunk_bytes=``), else the runtime's default
(``Runtime(algorithm="hierarchical")`` means ``pipelined`` at
:data:`DEFAULT_CHUNK_BYTES`, ``"flat"`` means ``flat``):

* ``flat`` -- direct source->destination cells, whole payloads;
* ``hierarchical`` -- cells follow the topology tree of
  :func:`repro.machine.treemap.collective_levels`, store-and-forward
  (each tree hop moves the whole payload);
* ``pipelined`` -- the hierarchical tree with large contiguous numpy
  payloads split into chunks, so chunk *k+1* streams into level *L*
  while chunk *k* drains level *L+1* (Zhou et al., arXiv:2007.06892).

Invariants, whatever the shape: reductions fold in ascending rank order
and clone every contribution at the fold boundary (so results are
bit-identical across shapes and a mutating op never touches a peer's
buffer); reductions chunk only for the elementwise builtin ops, whose
per-element fold order is the unchunked one; a request completes only
once this rank's output is materialised *and* every cell reading its
contribution has run (send-buffer gates); and parked waiters are woken
once per state change that concerns them (plan ready, a cell claimable,
a gate at zero, failure), never per deposit or per cell.

Time is modeled, not measured: when ``Runtime.icoll_link_time_per_mib``
is nonzero every cell sleeps (virtually, under ``backend="coop"``) in
proportion to the bytes it moves, and cells sharing a sending port
serialise -- the single-port model that makes store-and-forward vs
pipelined measurable and deterministic
(``benchmarks/test_icollectives_scaling.py``).
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.treemap import collective_levels
from repro.runtime.abort import WaitPoint
from repro.runtime.errors import (
    AbortError,
    CountMismatchError,
    MPIError,
)
from repro.runtime.message import Status
from repro.runtime.ops import MAX, MIN, PROD, SUM, Op
from repro.runtime.payload import clone, clone_would_copy, payload_nbytes

#: default chunk size for the pipelined algorithm
DEFAULT_CHUNK_BYTES = 64 << 10

#: builtin ops safe to fold chunk-by-chunk: elementwise, argument-
#: non-mutating and dtype-preserving for same-dtype inputs.  A custom op
#: may opt in by setting ``op.elementwise = True`` and honouring the
#: same contract.
_ELEMENTWISE_OPS = (SUM, PROD, MAX, MIN)

# cell states
_WAITING, _READY, _RUNNING, _DONE = 0, 1, 2, 3

#: kinds that deliver ``out[dst][key] = contrib[src]...`` payload by
#: payload (see IcollState._moves); ``reduce_scatter`` moves like
#: ``alltoall`` and its caller folds the columns
_MOVE_KINDS = frozenset((
    "gather", "allgather", "scatter", "alltoall", "reduce_scatter",
    "neighbor_exchange",
))
_KINDS = _MOVE_KINDS | {
    "barrier", "exchange", "bcast", "reduce", "allreduce", "scan",
}
_ALGORITHMS = (None, "flat", "hierarchical", "pipelined")
#: kinds whose payload has a shape to check at deposit: a dict of
#: neighbours, or one item per rank (kind -> CountMismatchError text)
_SHAPED = {
    "neighbor_exchange": None,
    "scatter": "scatter at root needs a list of {n} items",
    "alltoall": "alltoall needs exactly {n} items, got {got}",
    "reduce_scatter": "reduce_scatter needs {n} items, got {got}",
}


def _is_elementwise(op: Op) -> bool:
    return op in _ELEMENTWISE_OPS or bool(getattr(op, "elementwise", False))


def _chunk_slices(arr: Any, chunk_bytes: int) -> Optional[List[slice]]:
    """Slices of the flattened array, each about ``chunk_bytes`` big, or
    None when ``arr`` is not a payload worth chunking."""
    if not (
        chunk_bytes > 0
        and isinstance(arr, np.ndarray)
        and arr.flags.c_contiguous
        and arr.size > 0
        and arr.nbytes > chunk_bytes
    ):
        return None
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
        self.gates: Sequence[int] = ()
        #: modeled link occupancy of this cell (seconds)
        self.link_s = 0.0


class _Episode:
    """One in-flight collective on one communicator."""

    __slots__ = (
        "seq", "kind", "root", "op", "req_algorithm", "req_chunk",
        "algorithm", "chunk_bytes", "contrib", "arrived", "n_arrived",
        "planned", "cells", "ready", "results", "gates_left", "n_collected",
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
        # the creating rank's requested algorithm/chunk (None = the
        # engine's default shape); ranks must agree on explicit
        # overrides
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
        self.n_collected = 0
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


class IcollState(WaitPoint):
    """The shared collective engine of one communicator; its deadline
    and wake token is ``_progress_count``.

    ``owner`` is the runtime and ``group`` maps comm rank -> world rank;
    everything else follows from the two.  The runtime supplies the
    abort signal, condition, clock and timeout, the metrics, the
    by-reference rule (``owner.by_reference``), and the default
    ``(algorithm, chunk_bytes)`` shape of episodes whose call does not
    pin one.  ``levels`` is the scope-group chain of
    :func:`repro.machine.treemap.collective_levels` (innermost first)
    over the group's placement at construction.  The runtime is read
    live for its probe, task sleep and modeled link time
    (``icoll_link_time_per_mib``)."""

    def __init__(self, owner: Any, group: Sequence[int]) -> None:
        #: the runtime this state answers to
        self.owner = owner
        self.group = tuple(group)
        self.size = len(self.group)
        self.metrics = owner.collective_metrics
        self.levels = collective_levels(
            owner.machine, [owner.task_pu(w) for w in self.group]
        )
        self._shape = (
            ("pipelined", DEFAULT_CHUNK_BYTES)
            if owner.collective_algorithm == "hierarchical"
            else ("flat", 0)
        )
        self._episodes: Dict[int, _Episode] = {}
        #: bumped on every arrival and cell completion: the wake token
        #: and the progress measure for deadline extension
        self._progress_count = 0
        #: ranks currently inside test/wait of this engine (their ready
        #: cells are left for them; a non-engaged owner's cells may be
        #: stolen so an owner busy computing never stalls the DAG)
        self._engaged = [0] * self.size
        # the backend's own clock: one call per deadline check
        super().__init__(owner.condition(), owner.abort_flag,
                         owner._backend.now, owner.timeout)

    # ------------------------------------------------------------------ utils
    def _do_clone(self, obj: Any) -> Any:
        new = clone(obj)
        if new is not obj:
            self.metrics.note_clone()
        return new

    def _link_s_per_byte(self) -> float:
        return float(self.owner.icoll_link_time_per_mib) / float(1 << 20)

    def _may_share(self, src: int, dst: int) -> bool:
        return self.owner.by_reference(self.group[src], self.group[dst])

    def _by_ref(self, obj: Any) -> Any:
        """A zero-copy delivery: count the clone it saved."""
        if clone_would_copy(obj):
            self.metrics.note_elision()
        return obj

    def _deliver(self, obj: Any, src: int, dst: int) -> Any:
        """Hand ``obj`` (owned by comm rank ``src``) to comm rank
        ``dst``: by reference where the sharing policy allows it, by
        clone otherwise."""
        if self._may_share(src, dst):
            return self._by_ref(obj)
        return self._do_clone(obj)

    # ------------------------------------------------------------------ start
    def start(
        self,
        seq: int,
        kind: str,
        rank: int,
        payload: Any,
        site: str = "coll.ichunk",
        root: int = 0,
        op: Optional[Op] = None,
        algorithm: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
    ) -> _Episode:
        """Deposit rank's contribution to collective ``seq`` and return
        the episode (to wait on, or to wrap in a request).  ``site`` is
        the fault site of the entry (``coll.sweep`` for blocking calls).
        The last depositor compiles the plan, and runs it when it is a
        single cell."""
        self._validate(kind, rank, payload, root, algorithm)
        p = self.owner.probe
        if p is not None:
            p(site, rank, wake=self.wake)
        with self._cond:
            ep = self._episodes.get(seq)
            if ep is None:
                ep = self._episodes[seq] = _Episode(
                    self.size, seq, kind, root, op, algorithm, chunk_bytes
                )
            elif ep.kind != kind:
                raise MPIError(
                    f"collective mismatch on #{seq}: {ep.kind} already in "
                    f"flight, rank {rank} called {kind}"
                )
            elif ep.root != root:
                raise MPIError(
                    f"root mismatch on {kind} #{seq}: {ep.root} vs {root}"
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
                    whole = self._build_plan(ep)
                    ep.planned = True
                    if whole is not None:
                        self._execute(rank, ep, whole)
                except BaseException as exc:
                    self._fail(ep, exc)
                    raise
                if whole is None:
                    self._cond.notify_all()
        return ep

    def _validate(
        self, kind: str, rank: int, payload: Any, root: int,
        algorithm: Optional[str],
    ) -> None:
        """The one argument check, in the calling rank before it
        deposits anything."""
        n = self.size
        if not 0 <= root < n:
            raise MPIError(f"root {root} outside communicator of size {n}")
        if algorithm not in _ALGORITHMS:
            raise MPIError(f"unknown collective algorithm {algorithm!r}")
        if kind not in _SHAPED:
            if kind not in _KINDS:
                raise MPIError(f"unknown collective {kind!r}")
            return
        if kind == "neighbor_exchange":
            if not isinstance(payload, dict):
                raise MPIError(
                    "ineighbor_exchange takes a {neighbor_rank: payload} dict"
                )
            for dst in payload:
                if not 0 <= dst < n:
                    raise MPIError(
                        f"neighbor {dst} outside communicator of size {n}"
                    )
        elif kind != "scatter" or rank == root:
            got = len(payload) if hasattr(payload, "__len__") else None
            if got != n:
                raise CountMismatchError(_SHAPED[kind].format(n=n, got=got))

    # ------------------------------------------------------------------- plan
    def _resolve_algorithm(self, ep: _Episode) -> None:
        algo, cb = ep.req_algorithm, ep.req_chunk
        if algo is None:
            algo, default_cb = self._shape
            if cb is None:
                cb = default_cb
        if cb is None:
            cb = DEFAULT_CHUNK_BYTES if algo == "pipelined" else 0
        ep.algorithm = algo
        ep.chunk_bytes = int(cb) if algo == "pipelined" else 0

    def _build_plan(self, ep: _Episode) -> Optional[int]:
        """Compile the episode's cells.  Returns the index of its single
        whole-payload cell, already claimed for the caller, when there
        is nothing to pipeline and no link time to model."""
        self._resolve_algorithm(ep)
        self.metrics.note_icoll_episode(ep.algorithm)
        kind, n = ep.kind, self.size
        if kind == "barrier":
            return None
        if kind == "exchange":
            # allgather by reference: nothing moves, nothing is gated
            ep.results = [tuple(ep.contrib)] * n
            return None
        slices = None
        if kind == "bcast":
            slices = _chunk_slices(ep.contrib[ep.root], ep.chunk_bytes)
        elif kind in ("reduce", "allreduce"):
            slices = self._reduce_slices(ep)
        link = self._link_s_per_byte()
        if link == 0.0 and slices is None:
            cell = _Cell(partial(self._move_whole, ep), -1)
            cell.gates = range(n)
            cell.state = _RUNNING
            ep.gates_left = [1] * n
            ep.cells.append(cell)
            return 0
        b = _PlanBuilder(ep, link)
        if kind == "bcast":
            self._plan_bcast(ep, b, slices)
        elif kind == "scan":
            nbytes = payload_nbytes(ep.contrib[0])
            for d in range(n):
                b.add(
                    partial(self._scan_to, ep, d), owner=d, port=("rx", d),
                    gates=range(d + 1), nbytes=(d + 1) * nbytes,
                )
        elif kind in _MOVE_KINDS:
            self._plan_moves(ep, b)
        else:
            self._plan_reduce(ep, b, slices)
        return None

    def _move_whole(self, ep: _Episode) -> None:
        """The one-cell plan: an episode's entire data movement as plain
        loops, in the same fold order and with the same clones as the
        cell shapes below."""
        kind, n = ep.kind, self.size
        if kind in _MOVE_KINDS:
            self._plan_moves(ep, None)
        elif kind == "scan":
            for d in range(n):
                self._scan_to(ep, d)
        elif kind == "bcast":
            src = ep.contrib[ep.root]
            for d in range(n):
                ep.results[d] = (
                    src if d == ep.root else self._deliver(src, ep.root, d)
                )
        else:
            owner = self._fold_owner(ep)
            out = ep.results[owner] = self._fold(ep, n - 1)
            if kind == "allreduce":
                for d in range(n):
                    if d != owner:
                        ep.results[d] = self._deliver(out, owner, d)

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

    def _copy_chunk(
        self, dst: np.ndarray, src: np.ndarray, sl: slice, first: bool
    ) -> None:
        """One chunk of a chunked whole-array copy; the chunks of one
        array together count as one clone."""
        dst.reshape(-1)[sl] = src.reshape(-1)[sl]
        if first:
            self.metrics.note_clone()

    def _plan_bcast(
        self, ep: _Episode, b: _PlanBuilder, slices: Optional[List[slice]]
    ) -> None:
        root = ep.root
        src_obj = ep.contrib[root]
        ep.results[root] = src_obj
        copy_dsts: List[int] = []
        for d in range(self.size):
            if d == root:
                continue
            if self._may_share(root, d):
                ep.results[d] = self._by_ref(src_obj)
            else:
                copy_dsts.append(d)
        use_tree = ep.algorithm in ("hierarchical", "pipelined")
        parents = self._bcast_parents(root) if use_tree else {}
        copy_set = set(copy_dsts)

        def depth(d: int) -> int:
            n, p = 0, d
            while p != root:
                p = parents.get(p, root)
                n += 1
            return n

        if slices is not None:
            for d in copy_dsts:
                ep.results[d] = np.empty_like(src_obj)
        nbytes = payload_nbytes(src_obj)
        cell_of: Dict[Tuple[int, int], int] = {}   # (dst, chunk) -> cell
        # parents must be visited before children so their cells exist
        # for the dependency edges; sort by tree depth
        for d in sorted(copy_dsts, key=depth):
            p = parents.get(d, root)
            gate_src = p if p in copy_set else root
            if slices is None:
                # store-and-forward: one whole-payload clone, sourced
                # from the parent's already-delivered copy on the tree

                def fn(d=d, p=p):
                    src = ep.results[p] if p in copy_set else src_obj
                    ep.results[d] = self._do_clone(src)

                deps = [cell_of[(p, 0)]] if (p, 0) in cell_of else []
                cell_of[(d, 0)] = b.add(
                    fn, owner=d, deps=deps, port=("tx", p),
                    gates=(d, gate_src), nbytes=nbytes,
                )
                continue
            src_arr = ep.results[p] if p in copy_set else src_obj
            for c, sl in enumerate(slices):
                deps = [cell_of[(p, c)]] if (p, c) in cell_of else []
                cell_of[(d, c)] = b.add(
                    partial(self._copy_chunk, ep.results[d], src_arr, sl,
                            c == 0),
                    owner=d, deps=deps, port=("tx", p), gates=(d, gate_src),
                    nbytes=(sl.stop - sl.start) * src_obj.itemsize,
                )

    # -------------------------------------------------------------- reduce
    def _fold_owner(self, ep: _Episode) -> int:
        """The rank whose result slot owns the fold output outright."""
        return ep.root if ep.kind == "reduce" else 0

    def _fold(self, ep: _Episode, upto: int) -> Any:
        """Serial fold of contributions ``0..upto`` in ascending rank
        order, cloning each at the fold boundary: a mutating op -- or
        one returning a view of an argument -- never touches the buffer
        a peer contributed."""
        out = self._do_clone(ep.contrib[0])
        for r in range(1, upto + 1):
            out = ep.op(out, self._do_clone(ep.contrib[r]))
        return out

    def _scan_to(self, ep: _Episode, d: int) -> None:
        ep.results[d] = self._fold(ep, d)

    def _reduce_slices(self, ep: _Episode) -> Optional[List[slice]]:
        c0 = ep.contrib[0]
        slices = _chunk_slices(c0, ep.chunk_bytes)
        if (
            slices is not None
            and self.size > 1
            and _is_elementwise(ep.op)
            and all(
                isinstance(c, np.ndarray)
                and c.flags.c_contiguous
                and c.dtype == c0.dtype
                and c.shape == c0.shape
                for c in ep.contrib
            )
        ):
            return slices
        return None

    def _plan_reduce(
        self, ep: _Episode, b: _PlanBuilder, slices: Optional[List[slice]]
    ) -> None:
        op, n = ep.op, self.size
        owner = self._fold_owner(ep)
        c0 = ep.contrib[0]
        if slices is None:
            # the ascending-rank chain of _fold, one cell per rank
            nbytes = payload_nbytes(c0)
            prev = None
            for r in range(n):
                last = r == n - 1

                def fn(r=r, last=last):
                    c = self._do_clone(ep.contrib[r])
                    ep.partial = c if r == 0 else op(ep.partial, c)
                    if last:
                        ep.results[owner] = ep.partial
                        ep.partial = None

                prev = b.add(
                    fn, owner=r, deps=() if prev is None else (prev,),
                    port=("rx", r),
                    gates=(r, owner) if last else (r,), nbytes=nbytes,
                )
            tails: List[int] = [prev]
            out = None
        else:
            out = ep.results[owner] = np.empty_like(c0)
            partials: List[Any] = [None] * len(slices)
            tails = []
            for c, sl in enumerate(slices):
                prev = None
                for r in range(1, n):
                    last = r == n - 1

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
                    prev = b.add(
                        fn, owner=r, deps=() if prev is None else (prev,),
                        port=("rx", r), gates=gates,
                        nbytes=(sl.stop - sl.start) * c0.itemsize,
                    )
                tails.append(prev)
        if ep.kind != "allreduce":
            return
        # Fan the folded result out to every rank but ``owner``.  Every
        # delivery gates the owner too: its completion would null the
        # results slot the cell reads (see _complete).
        for d in range(n):
            if d == owner:
                continue
            if self._may_share(owner, d):

                def fn_ref(d=d):
                    ep.results[d] = self._by_ref(ep.results[owner])

                b.add(fn_ref, owner=d, deps=tails, gates=(d, owner))
            elif slices is None:

                def fn_clone(d=d):
                    ep.results[d] = self._do_clone(ep.results[owner])

                b.add(
                    fn_clone, owner=d, deps=tails, port=("rx", d),
                    gates=(d, owner), nbytes=payload_nbytes(c0),
                )
            else:
                ep.results[d] = np.empty_like(out)
                for c, sl in enumerate(slices):
                    b.add(
                        partial(self._copy_chunk, ep.results[d], out, sl,
                                c == 0),
                        owner=d, deps=(tails[c],), port=("rx", d),
                        gates=(d, owner),
                        nbytes=(sl.stop - sl.start) * out.itemsize,
                    )

    # ---------------------------------------------------- gather-family
    def _moves(self, ep: _Episode) -> Iterator[Tuple[int, int, Any, Any]]:
        """``(src, dst, key, obj)`` for every payload a move kind
        delivers: ``obj``, owned by ``src``, lands in ``dst``'s result
        under ``key`` (``None`` = it *is* the result).  Sets up the
        result containers first."""
        kind, n, contrib = ep.kind, self.size, ep.contrib
        if kind == "neighbor_exchange":
            for d in range(n):
                ep.results[d] = {}
            return (
                (s, d, s, obj) for s in range(n)
                for d, obj in contrib[s].items()
            )
        if kind == "scatter":
            items = contrib[ep.root]
            return ((ep.root, d, None, items[d]) for d in range(n))
        dsts = (ep.root,) if kind == "gather" else range(n)
        for d in dsts:
            ep.results[d] = [None] * n
        if kind in ("gather", "allgather"):
            return ((s, d, s, contrib[s]) for d in dsts for s in range(n))
        return ((s, d, s, contrib[s][d]) for d in dsts for s in range(n))

    def _plan_moves(self, ep: _Episode, b: Optional[_PlanBuilder]) -> None:
        """Deliver every move of the episode: right now when ``b`` is
        None (inside the one-cell plan), else by-reference deliveries
        now and one clone cell per remaining move."""
        results = ep.results
        scatter = ep.kind == "scatter"
        for src, dst, key, obj in self._moves(ep):
            if scatter and dst == src:
                val = obj                  # the root keeps its own item
            elif self._may_share(src, dst):
                val = self._by_ref(obj)
            elif b is None:
                val = self._do_clone(obj)
            else:
                b.add(
                    partial(self._move, ep, dst, key, obj), owner=dst,
                    port=("rx", dst), gates=(src, dst),
                    nbytes=payload_nbytes(obj),
                )
                continue
            if key is None:
                results[dst] = val
            else:
                results[dst][key] = val

    def _move(self, ep: _Episode, dst: int, key: Any, obj: Any) -> None:
        val = self._do_clone(obj)
        if key is None:
            ep.results[dst] = val
        else:
            ep.results[dst][key] = val

    # -------------------------------------------------------------- execute
    def _scan_claim(
        self, rank: int, ep_first: _Episode
    ) -> Optional[Tuple[_Episode, int]]:
        """Claim a runnable cell: rank's own first (preferring the
        episode it is asking about), else steal one whose owner is not
        engaged in the engine right now.  Under ``self._cond``."""
        best: Optional[Tuple[_Episode, int]] = None
        for ep in chain((ep_first,), self._episodes.values()):
            if not ep.ready or ep.failed is not None:
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
        if best is not None:
            ep, idx = best
            ep.ready.remove(idx)
            ep.cells[idx].state = _RUNNING
        return best

    def _fail(self, ep: _Episode, exc: BaseException) -> None:
        """Poison the episode and wake its waiters.  Under ``_cond``."""
        if ep.failed is None:
            ep.failed = exc
        self._progress_count += 1
        self._cond.notify_all()

    def _execute(self, rank: int, ep: _Episode, idx: int) -> None:
        """Run one claimed cell.  Called, and returns, with ``_cond``
        held; the cell body runs without it.  Waiters are woken only
        when the cell changed something for them: a dependent became
        claimable or some rank's last gate opened."""
        cell = ep.cells[idx]
        cond = self._cond
        cond.release()
        try:
            p = self.owner.probe
            if p is not None:
                p("coll.ichunk", rank, wake=self.wake)
            if cell.link_s > 0.0:
                self.owner.task_sleep(cell.link_s)
            cell.fn()
        finally:
            cond.acquire()
        cell.state = _DONE
        self.metrics.note_icoll_cell(stolen=cell.owner not in (rank, -1))
        wake = False
        gates_left = ep.gates_left
        for r in cell.gates:
            gates_left[r] -= 1
            if gates_left[r] == 0:
                wake = True
        for d in cell.dependents:
            dep = ep.cells[d]
            dep.ndeps -= 1
            if dep.ndeps == 0:
                dep.state = _READY
                ep.ready.append(d)
                wake = True
        self._progress_count += 1
        if wake:
            cond.notify_all()

    # ------------------------------------------------------------ completion
    def _complete(
        self, rank: int, ep: _Episode, park: bool
    ) -> Optional[Tuple[Any, Status]]:
        """Drive the episode to this rank's completion: run claimable
        cells, and between bursts either park (``wait``) or give up
        (``test``).  A complete episode costs one lock acquisition."""
        with self._cond:
            # engaged: this rank's ready cells are left for it
            self._engaged[rank] += 1
            try:
                res = self._burst(rank, ep)
                if res is None and park:
                    res = self.park(
                        lambda: self._burst(rank, ep),
                        self.progress,
                        lambda: (
                            f"job aborted during {ep.kind} #{ep.seq}",
                            f"collective {ep.kind} #{ep.seq} stalled "
                            f"with {ep.n_arrived}/{self.size} arrived "
                            f"-- collective mismatch?",
                        ),
                    )
                return res
            finally:
                self._engaged[rank] -= 1

    def _burst(self, rank: int, ep: _Episode) -> Optional[Tuple[Any, Status]]:
        """Run claimable cells until this rank's result is ready (it is
        collected and returned) or none is left (None)."""
        while True:
            if ep.failed is not None:
                raise AbortError(
                    f"collective {ep.kind} #{ep.seq} aborted by "
                    f"peer failure: {ep.failed!r}"
                ) from ep.failed
            if ep.planned and ep.gates_left[rank] == 0:
                res = ep.results[rank]
                ep.results[rank] = None
                ep.n_collected += 1
                if ep.n_collected == self.size:
                    self._episodes.pop(ep.seq, None)
                return res, Status()
            got = self._scan_claim(rank, ep)
            if got is None:
                return None
            try:
                self._execute(rank, *got)
            except BaseException as exc:
                self._fail(got[0], exc)
                raise

    def test_complete(
        self, rank: int, ep: _Episode
    ) -> Optional[Tuple[Any, Status]]:
        """One nonblocking progress burst (the ``Request.test`` hook):
        runs ready cells, then reports completion."""
        return self._complete(rank, ep, False)

    def wait_complete(self, rank: int, ep: _Episode) -> Tuple[Any, Status]:
        """Blocking completion -- what ``Comm.allreduce(x)`` and
        ``Comm.iallreduce(x).wait()`` both run: alternate progress
        bursts with event-driven parks; the deadline extends on any
        engine progress (arrivals or cells anywhere, this rank's bursts
        included), so only a genuinely stalled collective raises
        DeadlockError."""
        return self._complete(rank, ep, True)

    def progress(self) -> int:
        return self._progress_count


__all__ = [
    "IcollState",
    "DEFAULT_CHUNK_BYTES",
]
