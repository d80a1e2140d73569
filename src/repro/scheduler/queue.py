"""Node-level chunk queues claimed with one-sided atomics.

One :class:`ChunkQueue` materialises a loop's iteration space as
per-node queues:

* the **chunk descriptor table** of each node lives in HLS node-scoped
  storage (one copy per node on runtimes with a shared node address
  space, filled inside a ``single`` block) and is exposed by the node's
  leader rank through an RMA window so thieves can fetch stolen
  descriptors with ``Win.get``;
* the **head/tail counters** of each node are packed into a single
  ``uint64`` word (head in the low 32 bits, tail in the high 32 bits)
  in a second RMA window, next to a **donation allocation cursor**
  word.

The protocol's core invariant: a descriptor row is written at most
once, *before* the packed word ever exposes it (``row < tail``), and
never rewritten -- so an exposed row may be read by anyone without
further synchronisation.  Three operations move the counters:

* a local (or remote) **claim** is one ``fetch_and_op(+1)`` on the
  packed word -- it increments the head and returns the old word, so
  the claimant learns *both* the chunk index it owns and the tail it
  must beat, in one atomic read-modify-write.  The claim is valid iff
  ``head < tail``; a failed claim merely leaves the head inflated past
  the tail, which every consumer treats as "drained".
* a **steal** takes half the victim's remaining chunks off the *head*
  end: the thief first copies rows ``[head, head+k)`` (safe -- exposed
  rows are immutable), then publishes the theft with one
  ``compare_and_swap`` moving the head to ``head+k``.  Any interleaved
  claim moves the head and fails the CAS, so no chunk can be both
  claimed and stolen; and because the copy precedes the CAS, the thief
  never reads a row after giving anyone else a reason to touch it.
* a **donation** re-exposes chunks in three steps: reserve fresh rows
  ``[b, b+n)`` with a bounded CAS on the allocation cursor (which only
  ever grows and is never reused, so two donors can never write the
  same rows); put the descriptors; then expose them by CASing the tail
  from exactly ``b`` to ``b+n``.  Donors thus expose in reservation
  order and the tail never covers an unwritten row.  A head inflated
  past the tail by failed claims is reset to ``b`` in the same CAS, so
  donated work cannot hide behind the inflation.

Exactly-once then follows: fetch-and-add hands out distinct head
values below the observed tail, every tail movement is a serialised
CAS, and no counter word can recur (the tail is strictly monotonic;
the head only drops in a donation's expose, which also grows the
tail), so no CAS can succeed against stale state (no ABA).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.hls import HLSProgram
from repro.hls.program import HLSHandle
from repro.runtime.abort import Watchdog
from repro.runtime.rma import Win
from repro.scheduler.policy import SelfSchedPolicy

_HEAD_MASK = (1 << 32) - 1

#: a victim with fewer remaining chunks is not worth a bulk steal; its
#: tail is mopped up with remote claims instead
MIN_STEAL = 2

#: element displacements in the per-leader counters window
_WORD = 0       # packed head/tail
_ALLOC = 1      # donation allocation cursor (monotonic, never reused)

#: guards first-touch creation of the per-runtime layout cache
_CACHE_LOCK = threading.Lock()


def pack_counters(head: int, tail: int) -> np.uint64:
    """head in the low 32 bits, tail in the high 32 bits."""
    return np.uint64((int(tail) << 32) | (int(head) & _HEAD_MASK))


def unpack_counters(word: Any) -> Tuple[int, int]:
    w = int(word)
    return w & _HEAD_MASK, w >> 32


def _policy_key(policy: SelfSchedPolicy) -> Tuple:
    return (
        type(policy).__name__,
        getattr(policy, "k", None),
        getattr(policy, "min_chunk", None),
    )


def node_layout(rt: Any, comm: Any) -> Dict[int, List[int]]:
    """node id -> sorted comm ranks pinned there (cached per runtime:
    at 8k+ tasks recomputing this per task would be O(n_tasks^2))."""
    with _CACHE_LOCK:
        cache = rt.__dict__.setdefault("_sched_layout_cache", {})
        key = ("layout", comm.context)
        hit = cache.get(key)
        if hit is None:
            nodes: Dict[int, List[int]] = {}
            for r in range(comm.size):
                nodes.setdefault(rt.node_of(comm.to_world(r)), []).append(r)
            hit = dict(sorted(nodes.items()))
            cache[key] = hit
    return hit


def node_chunk_tables(
    rt: Any, comm: Any, n_iters: int, policy: SelfSchedPolicy
) -> Tuple[Dict[int, List[int]], Dict[int, List[Tuple[int, int]]]]:
    """Deterministic pure function of (machine, comm, n_iters, policy):
    the per-node chunk tables every task -- and e.g. an assembling rank
    0 that needs to know all chunk ranges -- can recompute identically.

    The iteration space is split across nodes proportionally to their
    task counts (exact, largest-remainder-free prefix arithmetic), then
    each node's range is chunked by the policy for its local worker
    count."""
    layout = node_layout(rt, comm)
    with _CACHE_LOCK:
        cache = rt.__dict__.setdefault("_sched_layout_cache", {})
        key = ("tables", comm.context, int(n_iters), _policy_key(policy))
        hit = cache.get(key)
        if hit is None:
            total_tasks = comm.size
            tables: Dict[int, List[Tuple[int, int]]] = {}
            start = 0
            seen_tasks = 0
            for node, ranks in layout.items():
                seen_tasks += len(ranks)
                end = (int(n_iters) * seen_tasks) // total_tasks
                tables[node] = [
                    (lo + start, hi + start)
                    for lo, hi in policy.chunks(end - start, len(ranks))
                ]
                start = end
            hit = tables
            cache[key] = hit
    return layout, hit


class ChunkQueue:
    """One task's handle on a loop's per-node chunk queues.

    Construction is collective over ``comm`` (it creates two RMA
    windows); every task gets its own handle sharing the windows."""

    def __init__(
        self, ctx: Any, comm: Any, n_iters: int, policy: SelfSchedPolicy
    ) -> None:
        rt = ctx.runtime
        self.runtime = rt
        self.comm = comm
        self.n_iters = int(n_iters)
        self.policy = policy
        self.node = rt.node_of(comm.to_world(comm.rank))
        layout, tables = node_chunk_tables(rt, comm, n_iters, policy)
        self.nodes: List[int] = list(layout)
        self._tables = tables
        self._leader = {node: ranks[0] for node, ranks in layout.items()}
        self._n_chunks = {node: len(chks) for node, chks in tables.items()}
        max_chunks = max(max(self._n_chunks.values(), default=0), 1)
        # Extra descriptor rows beyond the initial tables hold
        # donations (see donate): rows are handed out by a monotonic
        # allocation cursor and never reused, so generous slack keeps
        # late donations succeeding (2 int64 per row -- cheap).
        self._capacity = 4 * max_chunks + 64

        # Chunk descriptor table in HLS node-scoped storage: one copy
        # per node where the address space allows sharing, a private
        # (value-identical) copy per task otherwise (process backend).
        # The program object itself must be shared across the loop's
        # tasks (scope instances live inside one program), so rank 0
        # builds it and publishes it by reference.
        if comm.rank == 0:
            prog: Optional[HLSProgram] = HLSProgram(
                rt, enabled=rt.shared_node_address_space
            )
            prog.declare(
                "sched_chunks", shape=(self._capacity, 2), dtype=np.int64,
                scope="node",
            )
        else:
            prog = None
        prog = comm._exchange(prog)[0]
        self._prog = prog
        # a direct handle: ctx.hls stays owned by the application's own
        # HLS program (attach() would reuse it)
        h = HLSHandle(self._prog, ctx)
        table = h["sched_chunks"]
        # Fill the initial rows WITHOUT an HLS ``single``: a node-scoped
        # single barriers every runtime task pinned to the node, but
        # only members of ``comm`` construct this queue, so any
        # sub-communicator would hang against the node's other tasks.
        # Instead comm's node-leader rank fills the node's shared copy
        # (every task fills its own private, value-identical copy when
        # the address space is not shared), and the collective
        # Win.create barriers below publish the rows before any task's
        # first claim.
        if not self._prog.enabled or comm.rank == self._leader[self.node]:
            table[...] = -1
            mine = tables[self.node]
            if mine:
                table[: len(mine), :] = np.asarray(mine, dtype=np.int64)
        self._table = table

        # Counters window: every rank exposes two uint64 words -- the
        # packed head/tail word and the donation allocation cursor;
        # only node-leader words are ever used.  The leader initialises
        # its words before Win.create's trailing barrier publishes them.
        counter = np.zeros(2, dtype=np.uint64)
        if comm.rank == self._leader[self.node]:
            counter[_WORD] = pack_counters(0, self._n_chunks[self.node])
            counter[_ALLOC] = np.uint64(self._n_chunks[self.node])
        self._counter_buf = counter
        self._cwin = Win.create(comm, counter)
        # Descriptor window: leaders expose their node's table (a view
        # into the HLS storage -- remote gets read the real thing).
        if comm.rank == self._leader[self.node]:
            flat = self._table.reshape(-1)
        else:
            flat = np.zeros(0, dtype=np.int64)
        self._kwin = Win.create(comm, flat)
        # Passive-target epochs for the whole loop.
        self._cwin.lock_all()
        self._kwin.lock_all()
        self._closed = False

    # ------------------------------------------------------------ protocol
    def claim(self, node: Optional[int] = None) -> Optional[Tuple[int, int]]:
        """Atomically claim the next chunk of ``node``'s queue (own node
        by default); None when that queue is drained."""
        node = self.node if node is None else node
        self.runtime.checkpoint()
        old = self._cwin.fetch_and_op(
            np.uint64(1), target=self._leader[node]
        )
        head, tail = unpack_counters(old)
        if head >= tail:
            return None
        return self._descriptor(node, head)

    def steal(self, victim: int) -> Tuple[List[Tuple[int, int]], int]:
        """Try to steal half of ``victim``'s remaining chunks off the
        head end with one CAS on the packed word.  Returns ``(chunks,
        remaining_seen)``; an empty list means the victim was too poor
        or a concurrent claim/steal invalidated the read (the caller
        picks another victim)."""
        leader = self._leader[victim]
        self.runtime.checkpoint()
        word = self._cwin.fetch_and_op(np.uint64(0), target=leader)
        head, tail = unpack_counters(word)
        remaining = tail - head
        if remaining < MIN_STEAL:
            return [], max(remaining, 0)
        k = remaining // 2
        # Copy the descriptors BEFORE the CAS: rows below the tail are
        # immutable once exposed, so the copy cannot tear, and nothing
        # is ever read from the table after the theft is published --
        # a concurrent donation can never clobber what the thief runs.
        # If the CAS loses, the copies are simply discarded.
        rows = self._kwin.get(leader, count=2 * k, target_disp=2 * head)
        old = self._cwin.compare_and_swap(
            word, pack_counters(head + k, tail), target=leader
        )
        if int(old) != int(word):
            return [], max(remaining, 0)
        return (
            [(int(rows[2 * i]), int(rows[2 * i + 1])) for i in range(k)],
            remaining,
        )

    def remaining(self, node: Optional[int] = None) -> int:
        """Unclaimed chunks on ``node``'s queue (atomic snapshot)."""
        node = self.node if node is None else node
        word = self._cwin.fetch_and_op(
            np.uint64(0), target=self._leader[node]
        )
        head, tail = unpack_counters(word)
        return max(tail - head, 0)

    def donate(self, chunks: List[Tuple[int, int]]) -> bool:
        """Re-expose ``chunks`` on this task's *own* node queue so peers
        (and further thieves) can claim them -- the re-share step that
        keeps a thief's stolen batch from becoming a private stash no
        one can balance against.

        Three steps keep descriptor publication atomic with counter
        movement: (1) reserve fresh rows with a bounded CAS on the
        allocation cursor, which only ever grows -- so no two donors
        (nor a donor and the rows a thief has copied) can ever share
        rows; (2) put the descriptors into the still-unexposed rows;
        (3) expose them by CASing the tail from exactly the reserved
        base, so donors expose in reservation order and the tail never
        covers an unwritten row.  Returns False (caller keeps the
        chunks) when the descriptor capacity is exhausted."""
        if not chunks:
            return True
        leader = self._leader[self.node]
        n = len(chunks)
        desc = np.asarray(chunks, dtype=np.int64).reshape(-1)
        guard = self._spin_guard("sched donate")
        while True:
            guard()
            alloc = int(self._cwin.fetch_and_op(
                np.uint64(0), target=leader, target_disp=_ALLOC
            ))
            if alloc + n > self._capacity:
                return False
            old = self._cwin.compare_and_swap(
                np.uint64(alloc), np.uint64(alloc + n),
                target=leader, target_disp=_ALLOC,
            )
            if int(old) == alloc:
                base = alloc
                break
        self._kwin.put(desc, leader, target_disp=2 * base)
        while True:
            guard()
            word = self._cwin.fetch_and_op(np.uint64(0), target=leader)
            head, tail = unpack_counters(word)
            if tail != base:
                continue    # an earlier reservation is not yet exposed
            # a head inflated past the tail by failed claims is reset
            # to base here, so the donated chunks stay claimable
            old = self._cwin.compare_and_swap(
                word, pack_counters(min(head, base), base + n),
                target=leader,
            )
            if int(old) == int(word):
                return True

    def _spin_guard(self, what: str) -> Any:
        """Abort- and deadline-aware tick for the donate retry loops
        (a cooperative scheduling point plus the runtime's watchdog)."""
        rt = self.runtime
        dog = Watchdog(rt.abort_flag, rt.now, rt.timeout, lambda: (
            f"job aborted during {what}",
            f"{what} timed out after {rt.timeout}s",
        ))
        def tick() -> None:
            rt.checkpoint()
            dog.tick()
        return tick

    def _descriptor(self, node: int, idx: int) -> Tuple[int, int]:
        # own-node reads hit the local HLS table only for the initial
        # rows: donated rows live in the leader's exposed copy, which is
        # the same storage only when the node address space is shared
        if node == self.node and idx < self._n_chunks[node]:
            row = self._table[idx]
            return int(row[0]), int(row[1])
        pair = self._kwin.get(
            self._leader[node], count=2, target_disp=2 * idx
        )
        return int(pair[0]), int(pair[1])

    # ------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Collective: close epochs, free both windows, then release
        the descriptor table's HLS images."""
        if self._closed:
            return
        self._closed = True
        self._cwin.unlock_all()
        self._kwin.unlock_all()
        self._cwin.free()
        self._kwin.free()
        # free() ends in a barrier, so no task can still be reading the
        # table: the rank that built the program closes it
        if self.comm.rank == 0:
            self._prog.close()


__all__ = [
    "ChunkQueue",
    "node_chunk_tables",
    "node_layout",
    "pack_counters",
    "unpack_counters",
]
