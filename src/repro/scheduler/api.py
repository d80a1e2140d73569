"""``dynamic_for`` -- hierarchical dynamic loop self-scheduling.

Every task of a communicator calls :func:`dynamic_for` collectively
with the same iteration count and a ``body(lo, hi)`` callback.  The
iteration space is split across nodes (proportional to task counts)
and chunked per node by a
:class:`~repro.scheduler.policy.SelfSchedPolicy`; every task computes
the same tables.  A task then claims chunks -- one fetch-and-add on a
node's counter each (:class:`~repro.scheduler.queue.ChunkQueue`) --
from its own node until one claim fails, then from each other node in
turn until one claim on that node fails.  The loop ends after one
failed claim per node.

``policy="static"`` is the measured oracle: the same per-node chunk
tables, assigned 1:1 to local tasks with no queue, no windows and no
atomics -- what a static decomposition would have done, with the same
instrumentation so imbalance is comparable.

The body may return a number, which is accounted as that chunk's "work
units" in the loop report (defaults to the iteration count) -- a
deterministic load measure that benchmark c.o.v. assertions can use
where wall-clock busy time is noisy.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scheduler.policy import (
    PolicyLike,
    SelfSchedPolicy,
    StaticPolicy,
    make_policy,
)
from repro.scheduler.queue import ChunkQueue, node_chunk_tables


def _cov(values: List[float]) -> float:
    """Coefficient of variation (population std / mean; 0 for empty or
    zero-mean samples)."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    mean = sum(vals) / len(vals)
    if mean <= 0.0:
        return 0.0
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return (var ** 0.5) / mean


def policy_spec(policy: SelfSchedPolicy) -> str:
    """``name[:arg]``: the arg is printed whenever it differs from that
    policy class's *own* constructor default, so e.g. ``fixed:1`` (pure
    self-scheduling) is never conflated with the default ``fixed:4``
    and a non-default ``guided:4`` keeps its min_chunk in reports."""
    for attr in ("k", "min_chunk"):
        arg = getattr(policy, attr, None)
        if arg is None:
            continue
        param = inspect.signature(type(policy).__init__).parameters.get(attr)
        default = param.default if param is not None else inspect.Parameter.empty
        return policy.name if arg == default else f"{policy.name}:{arg}"
    return policy.name


@dataclass
class TaskLoopStats:
    """One task's accounting for one ``dynamic_for`` loop."""

    rank: int
    node: int
    chunks_local: int = 0
    remote_claims: int = 0
    iterations: int = 0
    work: float = 0.0
    busy_s: float = 0.0
    idle_s: float = 0.0
    finish_s: float = 0.0


@dataclass
class LoopReport:
    """Rank 0's gathered view of one loop (registered on the runtime
    and aggregated by ``rt.metrics("loadbalance")``)."""

    label: str
    policy: str
    n_iters: int
    n_tasks: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    finish_cov: float = 0.0
    busy_cov: float = 0.0
    work_cov: float = 0.0
    makespan_s: float = 0.0

    @classmethod
    def from_rows(
        cls, *, label: str, policy: str, n_iters: int,
        rows: List[Dict[str, Any]],
    ) -> "LoopReport":
        return cls(
            label=label,
            policy=policy,
            n_iters=n_iters,
            n_tasks=len(rows),
            rows=rows,
            finish_cov=_cov([r["finish_s"] for r in rows]),
            busy_cov=_cov([r["busy_s"] for r in rows]),
            work_cov=_cov([r["work"] for r in rows]),
            makespan_s=max((r["finish_s"] for r in rows), default=0.0),
        )


def dynamic_for(
    ctx: Any,
    n_iters: int,
    body: Callable[[int, int], Any],
    *,
    comm: Optional[Any] = None,
    policy: PolicyLike = "guided",
    steal: bool = True,
    label: str = "loop",
) -> TaskLoopStats:
    """Collectively execute ``body`` over ``[0, n_iters)`` with dynamic
    self-scheduling; returns this task's :class:`TaskLoopStats` (rank 0
    additionally registers the gathered :class:`LoopReport` on the
    runtime).  ``steal`` is accepted and ignored: there is no work
    stealing (a task whose node is drained claims from the other
    nodes' counters), and the keyword stays for callers that pass it."""
    rt = ctx.runtime
    comm = ctx.comm_world if comm is None else comm
    pol = make_policy(policy)
    world = comm.world_rank
    stats = TaskLoopStats(rank=comm.rank, node=rt.node_of(world))

    def run_chunk(chunk: Tuple[int, int]) -> None:
        lo, hi = chunk
        b0 = rt.now()
        ret = body(lo, hi)
        stats.busy_s += rt.now() - b0
        stats.iterations += hi - lo
        if isinstance(ret, (int, float)) and not isinstance(ret, bool):
            stats.work += float(ret)
        else:
            stats.work += float(hi - lo)

    if isinstance(pol, StaticPolicy):
        # The oracle: same per-node chunk tables, assigned 1:1 to the
        # node's tasks in rank order -- no queue, no atomics.
        layout, tables = node_chunk_tables(rt, comm, n_iters, pol)
        ranks = layout[stats.node]
        my_idx = ranks.index(comm.rank)
        my_chunks = tables[stats.node][my_idx:my_idx + 1]
        comm.barrier()
        t0 = rt.now()
        for chunk in my_chunks:
            stats.chunks_local += 1
            run_chunk(chunk)
        stats.finish_s = rt.now() - t0
        comm.barrier()
        total = rt.now() - t0
    else:
        queue = ChunkQueue(ctx, comm, n_iters, pol)
        # own node first, then every other node in queue order; a
        # failed claim means that node's table is used up for good
        order = [queue.node] + [n for n in queue.nodes if n != queue.node]
        comm.barrier()
        t0 = rt.now()
        for node in order:
            while True:
                p = rt.probe            # the sched.claim site, then claim
                if p is not None:
                    p("sched.claim", world)
                chunk = queue.claim(node)
                if chunk is None:
                    break
                if node == queue.node:
                    stats.chunks_local += 1
                else:
                    stats.remote_claims += 1
                run_chunk(chunk)
        stats.finish_s = rt.now() - t0
        comm.barrier()
        total = rt.now() - t0
        queue.close()

    stats.idle_s = max(total - stats.busy_s, 0.0)
    rows = comm.gather(asdict(stats), root=0)
    if comm.rank == 0:
        rt.register_loop_report(LoopReport.from_rows(
            label=label, policy=policy_spec(pol), n_iters=int(n_iters),
            rows=list(rows),
        ))
    return stats


__all__ = ["LoopReport", "TaskLoopStats", "dynamic_for", "policy_spec"]
