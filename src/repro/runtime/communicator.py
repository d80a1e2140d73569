"""Communicators: the user-facing MPI surface.

Each task holds its *own* :class:`Comm` instance per communicator (rank
differs per task); instances of the same communicator share a context id
(isolating message matching), a rank group, and one collective engine,
:class:`~repro.runtime.icoll.IcollState`.

API mirrors MPI 1.3 in pythonic dress: ``send/recv/isend/irecv/
sendrecv/probe`` for point-to-point, the full set of collectives, and
``dup``/``split`` for communicator management.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.errors import MPIError
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Status
from repro.runtime.ops import Op, SUM
from repro.runtime.payload import clone, clone_would_copy, deliver_into
from repro.runtime.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime


class Comm:
    """One task's handle on a communicator."""

    def __init__(
        self,
        runtime: "Runtime",
        context: int,
        group: Tuple[int, ...],
        rank: int,
    ) -> None:
        self.runtime = runtime
        self.context = context
        self.group = group            # comm rank -> world rank
        self.rank = rank              # this task's rank in the comm
        # COMM_WORLD (and any identity-group comm) maps comm rank ==
        # world rank, so skip the reverse dict: per-task world maps
        # were O(n) each, O(n^2) across the job -- gigabytes at 4k+
        # tasks before the coop backend made such runs reachable.  The
        # test itself must not be O(n) Python steps per task either:
        # the shared world tuple is recognised by identity, any other
        # group by one C-speed tuple compare.
        self._identity = (
            group is runtime._world_group
            or group == tuple(range(len(group)))
        )
        self._world_to_comm: Optional[Dict[int, int]] = (
            None if self._identity else {w: c for c, w in enumerate(group)}
        )
        #: the collective engine shared by this communicator's handles
        self._engine = runtime.icoll_state(context, group)
        self._epoch = 0               # per-task count of collectives on this comm
        self._seq = 0                 # per-task count of engine deposits

    # ------------------------------------------------------------------ shape
    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def world_rank(self) -> int:
        return self.group[self.rank]

    def to_world(self, comm_rank: int) -> int:
        if comm_rank == ANY_SOURCE:
            return ANY_SOURCE
        if not 0 <= comm_rank < self.size:
            raise MPIError(f"rank {comm_rank} outside communicator of size {self.size}")
        return self.group[comm_rank]

    def to_comm(self, world_rank: int) -> int:
        if self._world_to_comm is None:
            if not 0 <= world_rank < len(self.group):
                raise KeyError(world_rank)
            return world_rank
        return self._world_to_comm[world_rank]

    # ------------------------------------------------------------------- p2p
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send (completes locally)."""
        self.runtime.post_message(
            self.world_rank, self.to_world(dest), tag, self.context, obj
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        buf: Any = None,
        status: Optional[Status] = None,
        own: bool = False,
    ) -> Any:
        """Blocking receive; with ``buf`` the payload is delivered into
        the given numpy buffer (enabling the same-buffer copy elision).

        ``own=True`` requests ownership: the result is always a private
        copy, even when the zero-copy fast path (``sharing="shared"``)
        would have handed out the sender's object by reference."""
        env = self.runtime.mailbox(self.world_rank).receive(
            self.to_world(source), tag, self.context
        )
        return self._deliver(env, buf, status, own)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request.completed()

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        buf: Any = None,
        own: bool = False,
    ) -> Request:
        world_src = self.to_world(source)
        mbox = self.runtime.mailbox(self.world_rank)

        def _try() -> Optional[Tuple[Any, Status]]:
            env = mbox.try_receive(world_src, tag, self.context)
            if env is None:
                return None
            st = Status()
            return self._deliver(env, buf, st, own), st

        def _block() -> Tuple[Any, Status]:
            env = mbox.receive(world_src, tag, self.context)
            st = Status()
            return self._deliver(env, buf, st, own), st

        return Request(
            kind="recv", try_complete=_try, block_complete=_block,
            parker=mbox,
        )

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        *,
        buf: Any = None,
        status: Optional[Status] = None,
    ) -> Any:
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, buf=buf, status=status)

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Status]:
        st = self.runtime.mailbox(self.world_rank).probe(
            self.to_world(source), tag, self.context
        )
        if st is not None:
            st.source = self.to_comm(st.source)
        return st

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: waits for a matching message without
        consuming it (event-driven; no polling loop)."""
        st = self.runtime.mailbox(self.world_rank).probe_blocking(
            self.to_world(source), tag, self.context
        )
        st.source = self.to_comm(st.source)
        return st

    def abort(self, reason: str = "MPI_Abort") -> None:
        """MPI_Abort analog: bring the whole job down."""
        self.runtime.signal_abort()
        from repro.runtime.errors import AbortError

        raise AbortError(reason)

    def _deliver(
        self, env, buf: Any, status: Optional[Status], own: bool = False
    ) -> Any:
        if status is not None:
            status.source = self.to_comm(env.src)
            status.tag = env.tag
            status.nbytes = env.nbytes
        if buf is not None:
            result, copied = deliver_into(env.payload, buf)
            self.runtime.note_delivery(env, copied=copied)
            return result
        if env.owned:
            # payload was already privatised at send time (inter-node,
            # or the process backend's sender-side copy)
            self.runtime.note_delivery(env, copied=False)
            return env.payload
        if env.shareable and not own and clone_would_copy(env.payload):
            # zero-copy fast path: sender and receiver share an address
            # space and the sharing policy allows handing the payload
            # out by reference; copy-on-receive only on request (own=True).
            # Immutable payloads fall through -- their clone is free, so
            # counting an elision would overstate the saving (the same
            # rule the collective fast path applies).
            self.runtime.note_delivery(env, copied=False)  # counts an elision
            return env.payload
        self.runtime.note_delivery(env, copied=True)
        return clone(env.payload)

    # ------------------------------------------------------------ collectives
    #
    # Every collective is a deposit into the communicator's engine
    # (repro.runtime.icoll): the blocking form waits on the episode, the
    # i* form hands it out as a request.  MPI defines blocking as
    # start + wait, and that is all the difference there is.
    def _collective(self, kind: str) -> None:
        # one user call: the trace-only site (faults fire per deposit)
        self._epoch += 1
        p = self.runtime.probe
        if p is not None:
            p("coll.call", self.world_rank, context=self.context,
              epoch=self._epoch, op=kind, group=self.group)

    def _deposit(
        self, kind: str, payload: Any, site: str, root: int = 0,
        op: Optional[Op] = None, algorithm: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
    ) -> Any:
        """Deposit into episode ``_seq + 1`` of the engine.  The per-task
        deposit count is the episode id, so ranks calling collectives in
        different orders meet in one episode and are caught by its
        kind/root mismatch checks; a call the engine rejects consumes no
        id."""
        ep = self._engine.start(
            self._seq + 1, kind, self.rank, payload, site, root, op,
            algorithm, chunk_bytes,
        )
        self._seq += 1
        return ep

    def _blocking(
        self, kind: str, payload: Any = None, root: int = 0,
        op: Optional[Op] = None, *, traced: bool = True,
    ) -> Any:
        if traced:      # a user's call; set-up deposits leave no event
            self._collective(kind)
        ep = self._deposit(kind, payload, "coll.sweep", root, op)
        return self._engine.wait_complete(self.rank, ep)[0]

    def _istart(self, kind: str, payload: Any = None, **kw: Any) -> Request:
        self._collective("i" + kind)
        ep = self._deposit(kind, payload, "coll.ichunk", **kw)
        engine, rank = self._engine, self.rank
        return Request(
            kind=kind,
            try_complete=lambda: engine.test_complete(rank, ep),
            block_complete=lambda: engine.wait_complete(rank, ep),
            parker=engine,
        )

    def _exchange(self, obj: Any) -> Sequence[Any]:
        """allgather by reference (no clone, no trace event): how
        ``split``, ``Win`` creation and ``ChunkQueue`` set-up publish one
        rank's object to the others."""
        return self._blocking("exchange", obj, traced=False)

    def barrier(self) -> None:
        self._blocking("barrier")

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        return self._blocking("bcast", obj, root)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        return self._blocking("gather", obj, root)

    def allgather(self, obj: Any) -> List[Any]:
        return self._blocking("allgather", obj)

    def scatter(self, objs: Optional[List[Any]] = None, root: int = 0) -> Any:
        return self._blocking("scatter", objs, root)

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Optional[Any]:
        return self._blocking("reduce", obj, root, op)

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        return self._blocking("allreduce", obj, 0, op)

    def scan(self, obj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction."""
        return self._blocking("scan", obj, 0, op)

    def alltoall(self, objs: List[Any]) -> List[Any]:
        return self._blocking("alltoall", objs)

    def reduce_scatter(self, objs: List[Any], op: Op = SUM) -> Any:
        """Element-wise reduce of per-rank lists, then scatter: rank i
        gets op-fold over ranks of objs[i]."""
        columns = self._blocking("reduce_scatter", objs)
        out = columns[0]
        for v in columns[1:]:
            out = op(out, v)
        return out

    # ------------------------------------------------- nonblocking collectives
    def ibarrier(self) -> Request:
        """Nonblocking barrier: the request completes once every rank
        has entered (progressed by test/wait like any icoll)."""
        return self._istart("barrier")

    def ibcast(
        self, obj: Any = None, root: int = 0, *,
        algorithm: Optional[str] = None, chunk_bytes: Optional[int] = None,
    ) -> Request:
        return self._istart(
            "bcast", obj, root=root,
            algorithm=algorithm, chunk_bytes=chunk_bytes,
        )

    def ireduce(
        self, obj: Any, op: Op = SUM, root: int = 0, *,
        algorithm: Optional[str] = None, chunk_bytes: Optional[int] = None,
    ) -> Request:
        return self._istart(
            "reduce", obj, root=root, op=op,
            algorithm=algorithm, chunk_bytes=chunk_bytes,
        )

    def iallreduce(
        self, obj: Any, op: Op = SUM, *,
        algorithm: Optional[str] = None, chunk_bytes: Optional[int] = None,
    ) -> Request:
        return self._istart(
            "allreduce", obj, op=op,
            algorithm=algorithm, chunk_bytes=chunk_bytes,
        )

    def iscan(self, obj: Any, op: Op = SUM) -> Request:
        return self._istart("scan", obj, op=op)

    def igather(
        self, obj: Any, root: int = 0, *, algorithm: Optional[str] = None
    ) -> Request:
        return self._istart("gather", obj, root=root, algorithm=algorithm)

    def iallgather(self, obj: Any, *, algorithm: Optional[str] = None) -> Request:
        return self._istart("allgather", obj, algorithm=algorithm)

    def iscatter(
        self, objs: Optional[List[Any]] = None, root: int = 0
    ) -> Request:
        return self._istart("scatter", objs, root=root)

    def ialltoall(
        self, objs: List[Any], *, algorithm: Optional[str] = None
    ) -> Request:
        return self._istart("alltoall", objs, algorithm=algorithm)

    def ineighbor_exchange(
        self, sends: Dict[int, Any], *, algorithm: Optional[str] = None
    ) -> Request:
        """Neighborhood exchange: every rank contributes a
        ``{neighbor_rank: payload}`` dict; the request's result is the
        inverse view, ``{source_rank: payload}`` of everything sent to
        this rank.  The stencil-halo primitive (see apps/eulermhd.py)."""
        return self._istart("neighbor_exchange", sends, algorithm=algorithm)

    # -------------------------------------------------------------- management
    def dup(self) -> "Comm":
        """Duplicate the communicator (fresh context, same group)."""
        self._collective("dup")
        ctx = self.runtime.alloc_context() if self.rank == 0 else None
        ctx = self._blocking("bcast", ctx, traced=False)
        return Comm(self.runtime, ctx, self.group, self.rank)

    def split(self, color: Optional[int], key: Optional[int] = None) -> Optional["Comm"]:
        """Partition into sub-communicators by ``color`` (None = do not
        participate); ranks within a color are ordered by ``(key, rank)``."""
        self._collective("split")
        triples = self._exchange(
            (color, key if key is not None else self.rank, self.rank)
        )
        colors = sorted({c for c, _, _ in triples if c is not None})
        if self.rank == 0:
            ctx_map = {c: self.runtime.alloc_context() for c in colors}
        else:
            ctx_map = None
        ctx_map = self._blocking("bcast", ctx_map, traced=False)
        if color is None:
            return None
        members = sorted(
            ((k, r) for c, k, r in triples if c == color),
        )
        group = tuple(self.group[r] for _, r in members)
        new_rank = [r for _, r in members].index(self.rank)
        return Comm(self.runtime, ctx_map[color], group, new_rank)

    def split_by_node(self) -> "Comm":
        """Sub-communicator of the tasks sharing this task's node --
        convenience for on-node algorithms."""
        node = self.runtime.node_of(self.world_rank)
        sub = self.split(color=node)
        assert sub is not None
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(ctx={self.context}, rank={self.rank}/{self.size})"


__all__ = ["Comm", "ANY_SOURCE", "ANY_TAG"]
