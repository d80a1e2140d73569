"""Communication phase programs shared by ``comm_threads`` and
``coop_scale``, each with a serial NumPy oracle.

A phase is one MPI program run by one ``rt.run`` on a fresh ``Runtime``.
Phases stay separate runs on purpose: all of them in *one* run under
coop is bimodal and ~10x the sum of its parts (``sched.mixed_program_s``
reports that as a diagnostic, never as a gated number).

Payloads are integer-valued float64 drawn from ``--seed``, so every sum
is exact whatever order a reduction folds in, and the oracle compares
with ``==``.  Every call into a layer goes through the lane ``t`` (see
spans.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.hls import HLSProgram
from repro.runtime import SUM, Win
from repro.scheduler import dynamic_for

P2P_ELEMS = 1024          # 8 KiB messages
COLL_ELEMS = 256
RMA_ELEMS = 128
HLS_ELEMS = 64
NODE = 8                  # tasks per core2 node


def payloads(seed: int, n: int, elems: int) -> np.ndarray:
    """Row ``r`` is rank ``r``'s payload."""
    rng = np.random.default_rng([seed, n, elems])
    return rng.integers(0, 1000, size=(n, elems)).astype(np.float64)


def _work(scratch: np.ndarray) -> float:
    """The fixed compute an icoll overlaps with."""
    return float(np.sqrt(scratch).sum())


@dataclass
class Phase:
    """One program: what runs on each task, what it must return."""

    name: str
    n_tasks: int
    #: ``body(ctx, t) -> value`` run by every task
    body: Callable[[Any, Any], Any]
    #: per-rank values the oracle computed
    expected: List[Any]
    #: fixed number of layer operations the program performs
    ops: int
    #: ``prepare(rt)`` runs before the program, ``cleanup()`` after it
    prepare: Optional[Callable[[Any], None]] = None
    cleanup: Optional[Callable[[], None]] = None
    #: values the program measured itself (trace runs read them)
    notes: Dict[str, float] = field(default_factory=dict)
    #: set when per-rank values depend on the schedule and only their
    #: sum is fixed
    expected_total: Optional[int] = None


# ---------------------------------------------------------------- message
def p2p(seed: int, n: int, rounds: int, shifts: Sequence[int]) -> Phase:
    """Ring ``irecv/send/wait`` x rounds, then one shifted exchange."""
    data = payloads(seed, n, P2P_ELEMS)
    sums = data.sum(axis=1)

    def body(ctx, t):
        c, r = ctx.comm_world, ctx.rank
        right, left = (r + 1) % n, (r - 1) % n
        own = cur = data[r]
        for k in range(rounds):
            req = t("message.irecv", c.irecv, source=left, tag=k)
            t("message.send", c.send, cur, right, k)
            cur = t("message.wait", req.wait)
        acc = float(cur.sum())
        for s in shifts:
            req = t("message.irecv", c.irecv, source=(r - s) % n, tag=rounds + s)
            t("message.send", c.send, own, (r + s) % n, rounds + s)
            acc += s * float(t("message.wait", req.wait).sum())
        return acc

    expected = [
        float(sums[(r - rounds) % n] + sum(s * sums[(r - s) % n] for s in shifts))
        for r in range(n)
    ]
    return Phase("p2p", n, body, expected, ops=n * (rounds + len(shifts)))


def pingpong(seed: int, trips: int) -> Phase:
    """Two tasks bounce one 8 KiB message; rank 0 times the loop."""
    data = payloads(seed, 2, P2P_ELEMS)
    notes: Dict[str, float] = {}

    def body(ctx, t):
        c = ctx.comm_world
        cur = data[0]
        if ctx.rank == 0:
            t0 = perf_counter()
            for k in range(trips):
                t("message.send", c.send, cur, 1, k)
                cur = t("message.recv", c.recv, source=1, tag=k)
            notes["pingpong_s"] = perf_counter() - t0
            notes["pingpong_trips"] = trips
        else:
            for k in range(trips):
                cur = t("message.recv", c.recv, source=0, tag=k)
                t("message.send", c.send, cur, 0, k)
        return float(cur.sum())

    return Phase("pingpong", 2, body, [float(data[0].sum())] * 2,
                 ops=2 * trips, notes=notes)


# ------------------------------------------------------------ collectives
def coll(seed: int, n: int, rounds: int) -> Phase:
    """Blocking ``allreduce`` / ``bcast`` / ``barrier`` x rounds."""
    data = payloads(seed, n, COLL_ELEMS)
    total = data.sum(axis=0)
    e = COLL_ELEMS

    def body(ctx, t):
        c, r = ctx.comm_world, ctx.rank
        vec = data[r]
        acc = 0.0
        for k in range(rounds):
            tot = t("collectives.allreduce", c.allreduce, vec, SUM)
            root = k % n
            got = t("collectives.bcast", c.bcast,
                    vec if r == root else None, root)
            t("collectives.barrier", c.barrier)
            acc += float(tot[k % e] + got[(k + 1) % e])
        return acc

    want = float(sum(total[k % e] + data[k % n, (k + 1) % e]
                     for k in range(rounds)))
    return Phase("coll", n, body, [want] * n, ops=n * 3 * rounds)


def icoll(seed: int, n: int, rounds: int) -> Phase:
    """``iallreduce`` and ``ineighbor_exchange`` with a fixed NumPy
    compute between start and ``wait``."""
    data = payloads(seed, n, COLL_ELEMS)
    total = data.sum(axis=0)
    e, half = COLL_ELEMS, COLL_ELEMS // 2

    def body(ctx, t):
        c, r = ctx.comm_world, ctx.rank
        right, left = (r + 1) % n, (r - 1) % n
        vec = data[r]
        scratch = np.arange(16384, dtype=np.float64)
        acc = 0.0
        for k in range(rounds):
            req = t("icoll.start", c.iallreduce, vec, SUM)
            t("app.overlap", _work, scratch)
            tot = t("icoll.wait", req.wait)
            req = t("icoll.start", c.ineighbor_exchange,
                    {right: vec[:half], left: vec[half:]})
            t("app.overlap", _work, scratch)
            got = t("icoll.wait", req.wait)
            acc += float(tot[k % e] + got[left][0] + got[right][-1])
        return acc

    expected = [
        float(sum(total[k % e] for k in range(rounds))
              + rounds * (data[(r - 1) % n, 0] + data[(r + 1) % n, e - 1]))
        for r in range(n)
    ]
    return Phase("icoll", n, body, expected, ops=n * 2 * rounds)


# -------------------------------------------------------------------- rma
def rma(seed: int, n: int, rounds: int, locks: int, atomics: int) -> Phase:
    """Fence put/get ring, then passive exclusive ``lock/put/unlock`` on
    the right neighbour, then ``fetch_and_op`` on the node leader."""
    data = payloads(seed, n, RMA_ELEMS)
    e = RMA_ELEMS

    def body(ctx, t):
        c, r = ctx.comm_world, ctx.rank
        right, left = (r + 1) % n, (r - 1) % n
        leader = r - r % NODE
        vec = data[r]
        win = t("rma.allocate", Win.allocate, c, e)
        t("rma.fence", win.fence)
        acc = 0.0
        for k in range(rounds):
            t("rma.put", win.put, vec + k, right)
            t("rma.fence", win.fence)
            got = t("rma.get", win.get, left)
            t("rma.fence", win.fence)
            acc += float(got[k % e])
        t("rma.fence", win.fence_end)
        for k in range(locks):
            t("rma.lock", win.lock, right, exclusive=True)
            t("rma.put", win.put, vec[:8] + 1000 + k, right)
            t("rma.lock", win.unlock, right)
        t("collectives.barrier", c.barrier)
        t("rma.lock", win.lock_all)
        for _ in range(atomics):
            t("rma.atomic", win.fetch_and_op, 1.0, leader, SUM, e - 1)
        t("rma.lock", win.unlock_all)
        t("collectives.barrier", c.barrier)
        t("rma.lock", win.lock, r)
        mine = t("rma.get", win.get, r)
        t("rma.lock", win.unlock, r)
        acc += float(mine[:8].sum() + mine[e - 1])
        t("rma.allocate", win.free)
        return acc

    expected = []
    for r in range(n):
        left = (r - 1) % n
        acc = sum(data[(r - 2) % n, k % e] + k for k in range(rounds))
        acc += data[left, :8].sum() + 8 * (1000 + locks - 1)
        acc += data[left, e - 1] + rounds - 1
        if r % NODE == 0:
            acc += atomics * min(NODE, n - r)
        expected.append(float(acc))
    return Phase("rma", n, body, expected,
                 ops=n * (2 * rounds + locks + atomics + 1))


# -------------------------------------------------------------------- hls
def hls(seed: int, n: int, iters: int) -> Phase:
    """``single`` + read + ``barrier`` at node and at numa scope, plus
    one arena alloc/free per iteration."""
    state: Dict[str, Any] = {}

    def prepare(rt):
        prog = HLSProgram(rt)
        prog.declare("N", shape=(HLS_ELEMS,), scope="node")
        prog.declare("U", shape=(HLS_ELEMS,), scope="numa")
        state["prog"] = prog

    def body(ctx, t):
        h = t("hls.attach", state["prog"].attach, ctx)
        acc = 0.0
        for k in range(iters):
            for name, value in (("N", seed + k), ("U", seed + 2 * k)):
                def fill(name=name, value=value):
                    h.get(name)[:] = value
                t("hls.single", h.single, name, fill)
                acc += float(t("hls.get", h.get, name)[k % HLS_ELEMS])
                t("hls.barrier", h.barrier, name)
            block = t("memory.alloc", ctx.alloc, 4096)
            t("memory.alloc", ctx.free, block)
        return acc

    want = float(sum(2 * seed + 3 * k for k in range(iters)))
    return Phase("hls", n, body, [want] * n, ops=n * 4 * iters,
                 prepare=prepare, cleanup=lambda: state["prog"].close())


# -------------------------------------------------------------- scheduler
def loop(seed: int, n: int, policy: str, iters_per_task: int) -> Phase:
    """``dynamic_for`` over a few iterations per task whose virtual cost is
    skewed towards the first eighth of the range; stealing on.  A task
    returns the sum of the iteration indices it ran, so the per-rank
    values depend on the schedule and only their total is checked."""
    n_iters = n * iters_per_task
    rng = np.random.default_rng([seed, n_iters])
    cost = 1e-4 * rng.integers(1, 4, size=n_iters)
    cost[: n_iters // 8] *= 8

    def body(ctx, t):
        done = [0]

        def chunk(lo, hi):
            ctx.sleep(float(cost[lo:hi].sum()))
            done[0] += (lo + hi - 1) * (hi - lo) // 2

        def traced_chunk(lo, hi):
            t("app.body", chunk, lo, hi)

        t("scheduler.loop", dynamic_for, ctx, n_iters, traced_chunk,
          policy=policy, steal=True, label=policy)
        return done[0]

    return Phase(f"loop.{policy}", n, body, [], ops=n_iters,
                 expected_total=n_iters * (n_iters - 1) // 2)


def matches(phase: Phase, results: List[Any]) -> bool:
    if phase.expected_total is not None:
        return sum(results) == phase.expected_total
    return list(results) == phase.expected
