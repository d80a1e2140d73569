"""Shared-memory collective operations: flat and hierarchical engines.

All tasks of the simulated job live in one OS process, so collectives
are implemented the way shared-memory MPI runtimes implement their
on-node paths (paper section VI, refs [16][17]).  Two algorithms are
provided, selected per runtime (``algorithm="flat"|"hierarchical"``):

* :class:`CollectiveState` -- the **flat** reference algorithm: one
  blackboard guarded by a condition variable and a generation-counting
  barrier.  The protocol for every data collective is *write -> barrier
  -> read -> barrier*: the second barrier guarantees the blackboard is
  not overwritten by a subsequent collective before every task has read
  it.  Every episode spans the whole communicator.

* :class:`HierarchicalCollectiveState` -- per-scope reduction/broadcast
  trees derived from the machine topology (see
  :mod:`repro.machine.treemap`).  Tasks synchronise only with their
  local group (core -> cache -> numa -> node); the *last* task arriving
  at a group carries the merged contributions into the next, wider
  scope (a tournament, like the paper's shared-cache-aware barrier of
  section IV-B where "only one of them goes to the next scope").  The
  task winning the tree root computes the operation's result and
  releases the tree downward -- one sweep per collective, no
  full-communicator episode at all.  Per-generation result slots make
  back-to-back collectives safe without a second barrier.

Value semantics are preserved by cloning payloads on the read side, as
the process-based baseline does.  The hierarchical engine additionally
supports a **zero-copy fast path**: when the runtime's HLS sharing
policy permits it (``sharing="shared"``) and reader and payload owner
share an address space, the delivery clone is elided and the payload is
returned by reference -- the collective analog of the paper's same-node
copy elision.  Reductions stay bit-identical to the flat algorithm in
every mode: contributions are folded exactly once, in ascending rank
order, no matter how they travelled up the tree.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.machine.treemap import TreeLevel
from repro.metrics.collectives import CollectiveMetrics
from repro.runtime.abort import Watchdog, subscribe_abort
from repro.runtime.errors import (
    AbortError,
    CountMismatchError,
    MPIError,
)
from repro.runtime.ops import Op
from repro.runtime.payload import clone_would_copy


class CollectiveState:
    """Flat blackboard + barrier shared by the tasks of one communicator."""

    algorithm = "flat"

    def __init__(
        self,
        size: int,
        abort_flag: threading.Event,
        *,
        timeout: float = 30.0,
        clone: Callable[[Any], Any] = lambda x: x,
        metrics: Optional[CollectiveMetrics] = None,
        faults: Optional[Any] = None,
        make_cond: Optional[Callable[[], Any]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self._abort = abort_flag
        self._timeout = timeout
        self._clone = clone
        self.metrics = metrics if metrics is not None else CollectiveMetrics()
        #: fault injector (None = chaos off; one attribute test per op)
        self.faults = faults
        # Condition factory + clock from the execution backend: real
        # Condition/monotonic under threads, CoopWaker/virtual clock
        # under coop (the hierarchical engine builds one condition per
        # tree node from the same factory).
        self._make_cond = make_cond if make_cond is not None else threading.Condition
        self._clock = clock if clock is not None else time.monotonic
        self._cond = self._make_cond()
        self._count = 0
        self._generation = 0
        self.board: List[Any] = [None] * size
        self.barriers = 0  # total barrier episodes completed
        # Abort is announced, not discovered: wake parked waiters at
        # whatever node of the engine they are blocked on.
        subscribe_abort(abort_flag, self._abort_wake)

    # ------------------------------------------------------------------ utils
    def _abort_wake(self) -> None:
        """Wake every task parked in this engine (abort broadcast)."""
        with self._cond:
            self._cond.notify_all()

    def _hit(self, rank: Optional[int]) -> None:
        """Per-rank collective-entry injection site (chaos harness)."""
        if self.faults is not None and rank is not None:
            self.faults.hit("coll.sweep", rank, wake=self._abort_wake)

    def _do_clone(self, obj: Any) -> Any:
        new = self._clone(obj)
        if new is not obj:
            self.metrics.note_clone()
        return new

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} outside communicator of size {self.size}")

    # ----------------------------------------------------------------- barrier
    def barrier(self, rank: Optional[int] = None) -> None:
        self._hit(rank)
        with self._cond:
            gen = self._generation
            self._count += 1
            if self._count == self.size:
                self._count = 0
                self._generation += 1
                self.barriers += 1
                self.metrics.note_episode("comm", self.size, self.size)
                self._cond.notify_all()
                return
            self._wait_release(gen)

    def _wait_release(self, gen: int) -> None:
        # progress token: arrivals at this barrier
        dog = Watchdog(self._abort, self._clock, self._timeout, lambda: (
            "job aborted during barrier",
            f"barrier timed out with {self._count}/{self.size} arrived -- "
            f"collective mismatch?",
        ))
        while self._generation == gen:
            self._cond.wait(timeout=dog.tick(self._count))

    # ------------------------------------------------------------ collectives
    def bcast(self, rank: int, obj: Any, root: int) -> Any:
        self._hit(rank)
        self._check_root(root)
        if rank == root:
            self.board[root] = obj
        self.barrier()
        val = obj if rank == root else self._do_clone(self.board[root])
        self.barrier()
        return val

    def gather(self, rank: int, obj: Any, root: int) -> Optional[List[Any]]:
        self._hit(rank)
        self._check_root(root)
        self.board[rank] = obj
        self.barrier()
        out = (
            [self._do_clone(self.board[r]) for r in range(self.size)]
            if rank == root
            else None
        )
        self.barrier()
        return out

    def allgather(self, rank: int, obj: Any) -> List[Any]:
        self._hit(rank)
        self.board[rank] = obj
        self.barrier()
        out = [self._do_clone(self.board[r]) for r in range(self.size)]
        self.barrier()
        return out

    def scatter(self, rank: int, objs: Optional[List[Any]], root: int) -> Any:
        self._hit(rank)
        self._check_root(root)
        if rank == root:
            if objs is None or len(objs) != self.size:
                raise CountMismatchError(
                    f"scatter at root needs a list of {self.size} items"
                )
            self.board[root] = objs
        self.barrier()
        item = self.board[root][rank]
        val = item if rank == root else self._do_clone(item)
        self.barrier()
        return val

    def reduce(self, rank: int, obj: Any, op: Op, root: int) -> Optional[Any]:
        self._hit(rank)
        self._check_root(root)
        self.board[rank] = obj
        self.barrier()
        out = None
        if rank == root:
            # Clone each contribution at the fold boundary (alltoall's
            # discipline): a mutating op -- or one returning a view of
            # its second argument -- must never touch the board entry
            # another rank contributed.
            out = self._do_clone(self.board[0])
            for r in range(1, self.size):
                out = op(out, self._do_clone(self.board[r]))
        self.barrier()
        return out

    def allreduce(self, rank: int, obj: Any, op: Op) -> Any:
        self._hit(rank)
        self.board[rank] = obj
        self.barrier()
        # every rank folds concurrently, so an uncloned contribution
        # would be corrupted under every other rank's fold at once
        out = self._do_clone(self.board[0])
        for r in range(1, self.size):
            out = op(out, self._do_clone(self.board[r]))
        self.barrier()
        return out

    def scan(self, rank: int, obj: Any, op: Op) -> Any:
        """Inclusive prefix reduction."""
        self._hit(rank)
        self.board[rank] = obj
        self.barrier()
        out = self._do_clone(self.board[0])
        for r in range(1, rank + 1):
            out = op(out, self._do_clone(self.board[r]))
        self.barrier()
        return out

    def alltoall(self, rank: int, objs: List[Any]) -> List[Any]:
        self._hit(rank)
        if len(objs) != self.size:
            raise CountMismatchError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )
        self.board[rank] = objs
        self.barrier()
        out = [self._do_clone(self.board[r][rank]) for r in range(self.size)]
        self.barrier()
        return out

    def exchange(self, rank: int, obj: Any) -> List[Any]:
        """allgather without cloning -- used internally (e.g. split)."""
        self._hit(rank)
        self.board[rank] = obj
        self.barrier()
        out = list(self.board)
        self.barrier()
        return out


class _Poisoned:
    """Sentinel released down the tree when the winning task's fold or
    finish step raised: waiters must not hang on a peer's failure."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _TreeNode:
    """One synchronisation group of the collective tree."""

    __slots__ = (
        "label", "arity", "parent", "cond", "count", "generation",
        "board", "down",
    )

    def __init__(self, label: str, arity: int, parent: Optional["_TreeNode"],
                 cond: Optional[Any] = None) -> None:
        self.label = label
        self.arity = arity
        self.parent = parent
        self.cond = cond if cond is not None else threading.Condition()
        self.count = 0
        self.generation = 0
        self.board: Dict[int, Any] = {}
        # generation -> [down payload, waiters still to read it]
        self.down: Dict[int, List[Any]] = {}


class HierarchicalCollectiveState(CollectiveState):
    """Topology-aware collective engine; see module docstring.

    Parameters beyond :class:`CollectiveState`:

    levels:
        The scope-group chain from
        :func:`repro.machine.treemap.collective_levels` (innermost
        first; the last level spans the communicator).  ``None`` builds
        a degenerate single-group tree.
    group:
        comm rank -> world rank map, used for the zero-copy legality
        check.
    share:
        ``share(world_a, world_b)`` -> may the payload owned by task
        ``world_a`` be handed to ``world_b`` by reference?  ``None``
        disables the zero-copy fast path (every delivery clones).
    """

    algorithm = "hierarchical"

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
    ) -> None:
        super().__init__(
            size, abort_flag, timeout=timeout, clone=clone, metrics=metrics,
            faults=faults, make_cond=make_cond, clock=clock,
        )
        if levels is None:
            levels = [TreeLevel("comm", (tuple(range(size)),))]
        if group is None:
            group = tuple(range(size))
        if len(group) != size:
            raise MPIError(f"group of {len(group)} ranks for size-{size} state")
        self.group = group
        self._share = share
        self.levels = list(levels)
        self._leaf_of: Dict[int, _TreeNode] = {}
        self._build_tree(self.levels)
        # any arrival anywhere counts as progress for the deadline
        self._arrivals = 0

    def _abort_wake(self) -> None:
        """Abort broadcast: tasks may be parked at *any* tree node (a
        leaf loser, a cache-group winner waiting at the numa node...).
        Wake them all.  Runs before the tree exists when the abort beats
        construction -- nothing to wake then."""
        for node in getattr(self, "nodes", ()):
            with node.cond:
                node.cond.notify_all()

    # ------------------------------------------------------------------- tree
    def _build_tree(self, levels: Sequence[TreeLevel]) -> None:
        covered = sorted(r for g in levels[-1].groups for r in g)
        if covered != list(range(self.size)):
            raise MPIError(
                f"tree levels cover ranks {covered}, expected 0..{self.size - 1}"
            )
        self.nodes: List[_TreeNode] = []
        below: Dict[int, _TreeNode] = {}   # rank -> node one level down
        for li, level in enumerate(levels):
            current: Dict[int, _TreeNode] = {}
            for members in level.groups:
                if li == 0:
                    arity = len(members)   # every rank arrives itself
                else:
                    # only each child group's winner climbs to this node
                    arity = len({id(below[r]) for r in members})
                node = _TreeNode(level.label, arity, None, self._make_cond())
                self.nodes.append(node)
                for r in members:
                    current[r] = node
            if li == 0:
                self._leaf_of = dict(current)
            else:
                for r, child in below.items():
                    parent = current.get(r)
                    if parent is None or (
                        child.parent is not None and child.parent is not parent
                    ):
                        raise MPIError(
                            f"level {level.label!r} does not coarsen the "
                            f"previous level at rank {r}"
                        )
                    child.parent = parent
            below = current

    # ------------------------------------------------------------------ sweep
    def _sweep(
        self,
        rank: int,
        contribution: Dict[int, Any],
        finish: Callable[[Dict[int, Any]], Any],
    ) -> Tuple[Any, int, bool]:
        """One up/down tournament sweep.

        Contributions merge upward; the last task arriving at each node
        carries the merged board into the parent.  The task completing
        the root runs ``finish`` on the full contribution map and
        releases ``(winner_rank, result)`` downward.  Returns
        ``(result, winner_rank, i_won_root)``.
        """
        self._hit(rank)
        node: Optional[_TreeNode] = self._leaf_of[rank]
        carried = dict(contribution)
        won: List[_TreeNode] = []
        while node is not None:
            with node.cond:
                node.board.update(carried)
                node.count += 1
                self._arrivals += 1
                if node.count < node.arity:
                    gen = node.generation
                    payload = self._wait_node(node, gen)
                    self._release_downward(won, payload)
                    return self._unpack(payload) + (False,)
                # last arriver: take the merged board into the next scope
                carried = node.board
                node.board = {}
                node.count = 0
                self.metrics.note_episode(node.label, node.arity, self.size)
                self.barriers += 1
            won.append(node)
            node = node.parent
        try:
            result = finish(carried)
        except BaseException as exc:
            self._release_downward(won, _Poisoned(exc))
            raise
        self._release_downward(won, (rank, result))
        return result, rank, True

    def _release_downward(self, won: List[_TreeNode], payload: Any) -> None:
        for node in reversed(won):
            with node.cond:
                if node.arity > 1:
                    node.down[node.generation] = [payload, node.arity - 1]
                node.generation += 1
                node.cond.notify_all()

    def _wait_node(self, node: _TreeNode, gen: int) -> Any:
        # progress token: arrivals anywhere in the tree
        dog = Watchdog(self._abort, self._clock, self._timeout, lambda: (
            f"job aborted during collective ({node.label} group)",
            f"hierarchical collective timed out at {node.label} group "
            f"with {node.count}/{node.arity} arrived -- collective mismatch?",
        ))
        while node.generation == gen:
            node.cond.wait(timeout=dog.tick(self._arrivals))
        entry = node.down[gen]
        entry[1] -= 1
        if entry[1] == 0:
            del node.down[gen]
        return entry[0]

    def _unpack(self, payload: Any) -> Tuple[Any, int]:
        if isinstance(payload, _Poisoned):
            raise AbortError(
                f"collective aborted by peer failure: {payload.exc!r}"
            ) from payload.exc
        winner, result = payload
        return result, winner

    # --------------------------------------------------------------- delivery
    def _deliver(self, obj: Any, src: int, dst: int) -> Any:
        """Hand ``obj`` (owned by comm rank ``src``) to comm rank
        ``dst``: by reference on the zero-copy fast path, by clone
        otherwise."""
        if self._share is not None and self._share(self.group[src], self.group[dst]):
            if clone_would_copy(obj):
                self.metrics.note_elision()
            return obj
        return self._do_clone(obj)

    def _fold(self, op: Op) -> Callable[[Dict[int, Any]], Any]:
        def finish(vals: Dict[int, Any]) -> Any:
            # Fold in ascending rank order exactly like the flat
            # algorithm: bit-identical results for any op, including
            # non-associative floating-point folds.  Contributions are
            # cloned at the fold boundary so a mutating op cannot
            # corrupt a peer's input (same fix as the flat engine).
            out = self._do_clone(vals[0])
            for r in range(1, self.size):
                out = op(out, self._do_clone(vals[r]))
            return out

        return finish

    # ------------------------------------------------------------ collectives
    #
    # Every per-destination payload is materialised inside ``finish`` --
    # executed by the root winner while every other task is still
    # blocked in the tree.  That makes the reads race-free (no
    # contributor can mutate its input mid-copy, which the flat
    # algorithm guarantees with its second barrier) and keeps clone
    # counts identical to the flat algorithm in private mode.

    def barrier(self, rank: Optional[int] = None) -> None:
        if rank is None:
            raise MPIError("hierarchical barrier needs the caller's rank")
        self._sweep(rank, {}, lambda vals: None)

    def bcast(self, rank: int, obj: Any, root: int) -> Any:
        self._check_root(root)
        contribution = {rank: obj} if rank == root else {}

        def finish(vals: Dict[int, Any]) -> Dict[int, Any]:
            src = vals[root]
            return {
                dst: self._deliver(src, root, dst)
                for dst in range(self.size)
                if dst != root
            }

        out, _, _ = self._sweep(rank, contribution, finish)
        return obj if rank == root else out[rank]

    def gather(self, rank: int, obj: Any, root: int) -> Optional[List[Any]]:
        self._check_root(root)

        def finish(vals: Dict[int, Any]) -> List[Any]:
            return [self._deliver(vals[r], r, root) for r in range(self.size)]

        out, _, _ = self._sweep(rank, {rank: obj}, finish)
        return out if rank == root else None

    def allgather(self, rank: int, obj: Any) -> List[Any]:
        def finish(vals: Dict[int, Any]) -> Dict[int, List[Any]]:
            return {
                dst: [self._deliver(vals[r], r, dst) for r in range(self.size)]
                for dst in range(self.size)
            }

        out, _, _ = self._sweep(rank, {rank: obj}, finish)
        return out[rank]

    def scatter(self, rank: int, objs: Optional[List[Any]], root: int) -> Any:
        self._check_root(root)
        contribution: Dict[int, Any] = {}
        if rank == root:
            if objs is None or len(objs) != self.size:
                raise CountMismatchError(
                    f"scatter at root needs a list of {self.size} items"
                )
            contribution = {root: objs}

        def finish(vals: Dict[int, Any]) -> Dict[int, Any]:
            items = vals[root]
            return {
                dst: items[dst] if dst == root
                else self._deliver(items[dst], root, dst)
                for dst in range(self.size)
            }

        out, _, _ = self._sweep(rank, contribution, finish)
        return out[rank]

    def reduce(self, rank: int, obj: Any, op: Op, root: int) -> Optional[Any]:
        self._check_root(root)
        result, _, _ = self._sweep(rank, {rank: obj}, self._fold(op))
        # The fold produced a fresh object; the root owns it outright.
        return result if rank == root else None

    def allreduce(self, rank: int, obj: Any, op: Op) -> Any:
        fold = self._fold(op)

        def finish(vals: Dict[int, Any]) -> Dict[int, Any]:
            # ``rank`` here is the winner's: only the task reaching the
            # tree root executes its own ``finish`` closure.
            out = fold(vals)
            return {
                dst: out if dst == rank else self._deliver(out, rank, dst)
                for dst in range(self.size)
            }

        outmap, _, _ = self._sweep(rank, {rank: obj}, finish)
        return outmap[rank]

    def scan(self, rank: int, obj: Any, op: Op) -> Any:
        """Inclusive prefix reduction (fold order identical to flat)."""

        def finish(vals: Dict[int, Any]) -> Dict[int, Any]:
            res: Dict[int, Any] = {}
            for dst in range(self.size):
                out = self._do_clone(vals[0])
                for r in range(1, dst + 1):
                    out = op(out, self._do_clone(vals[r]))
                res[dst] = out
            return res

        outmap, _, _ = self._sweep(rank, {rank: obj}, finish)
        return outmap[rank]

    def alltoall(self, rank: int, objs: List[Any]) -> List[Any]:
        if len(objs) != self.size:
            raise CountMismatchError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}"
            )

        def finish(vals: Dict[int, Any]) -> Dict[int, List[Any]]:
            return {
                dst: [
                    self._deliver(vals[r][dst], r, dst)
                    for r in range(self.size)
                ]
                for dst in range(self.size)
            }

        out, _, _ = self._sweep(rank, {rank: objs}, finish)
        return out[rank]

    def exchange(self, rank: int, obj: Any) -> List[Any]:
        """allgather without cloning -- used internally (e.g. split)."""
        vals, _, _ = self._sweep(
            rank, {rank: obj}, lambda v: [v[r] for r in range(self.size)]
        )
        return list(vals)


__all__ = ["CollectiveState", "HierarchicalCollectiveState"]
