"""Node-level chunk queues claimed with one fetch-and-add.

Every task of a loop computes the same per-node chunk tables --
:func:`node_chunk_tables` is a pure function of (machine, comm,
n_iters, policy), cached per runtime -- so chunk descriptors are never
communicated.  What the tasks share is one ``uint64`` claim counter per
node: the node leader's word in one RMA window, held under one
``lock_all`` epoch for the whole loop.

A **claim** on a node is one ``fetch_and_op(+1)`` on that node's
counter: the old value ``i`` indexes the node's table, and ``i`` past
the table's end means the queue is drained (for good: the table never
changes and the counter only grows).

Exactly once: fetch-and-add hands out distinct indices into a table
that never changes.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.rma import Win
from repro.scheduler.policy import SelfSchedPolicy

#: guards first-touch creation of the per-runtime layout cache
_CACHE_LOCK = threading.Lock()


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

    Construction is collective over ``comm`` (it creates the counter
    window); every task gets its own handle sharing the window."""

    def __init__(
        self, ctx: Any, comm: Any, n_iters: int, policy: SelfSchedPolicy
    ) -> None:
        rt = ctx.runtime
        self.runtime = rt
        self.node = rt.node_of(comm.to_world(comm.rank))
        layout, self._tables = node_chunk_tables(rt, comm, n_iters, policy)
        self.nodes: List[int] = list(layout)
        self._leader = {node: ranks[0] for node, ranks in layout.items()}
        # every rank exposes one zeroed word; only node leaders' words
        # are claimed from
        self._win = Win.create(comm, np.zeros(1, dtype=np.uint64))
        self._win.lock_all()
        self._closed = False

    def claim(self, node: int) -> Optional[Tuple[int, int]]:
        """Atomically claim the next chunk of ``node``'s queue; None when
        that queue is drained."""
        self.runtime.checkpoint()
        i = int(self._win.fetch_and_op(
            np.uint64(1), target=self._leader[node]
        ))
        table = self._tables[node]
        return table[i] if i < len(table) else None

    def close(self) -> None:
        """Collective: close the epoch and free the counter window."""
        if self._closed:
            return
        self._closed = True
        self._win.unlock_all()
        self._win.free()


__all__ = ["ChunkQueue", "node_chunk_tables", "node_layout"]
