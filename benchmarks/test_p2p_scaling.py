"""P2P fast path at 8 / 32 / 128 tasks: indexed matching, zero-copy
intra-node delivery, message rate and latency.

The PR 2 performance claims, made observable:

* the bucketed :class:`IndexedMatcher` keeps the match cost per
  delivery O(1) on an all-to-all exchange however deep the pending
  list gets (the seed linear scan paid 2.6 / 9 / 32 steps per delivery
  at 8 / 32 / 128 tasks);
* under ``sharing="shared"`` intra-node deliveries hand the payload out
  by reference -- nonzero elision counters, bit-identical values vs
  ``sharing="private"``;
* the event-driven mailbox turns a same-node ping-pong round trip into
  a notify wake, not a poll tick.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_p2p_scaling.py``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import Runtime

PAYLOAD = 64        # doubles per message
PINGPONG_ITERS = 200


def _alltoall_job(n_tasks, sharing="private"):
    """Every rank sends one array to every other rank, then receives
    from its peers in shifted (non-arrival) order -- the access pattern
    that forces a linear matcher to scan deep into the pending list."""
    machine = core2_cluster(max(1, n_tasks // 8))  # 8 PUs per node
    rt = Runtime(machine, n_tasks=n_tasks, sharing=sharing, timeout=120.0)

    def main(ctx):
        c = ctx.comm_world
        payload = np.full(PAYLOAD, float(ctx.rank))
        for d in range(1, ctx.size):
            c.send(payload, dest=(ctx.rank + d) % ctx.size, tag=0)
        out = {}
        for d in range(1, ctx.size):
            src = (ctx.rank + d) % ctx.size
            out[src] = c.recv(source=src, tag=0).tolist()
        return out

    t0 = time.perf_counter()
    results = rt.run(main)
    elapsed = time.perf_counter() - t0
    return rt.metrics("p2p"), results, elapsed


@pytest.mark.parametrize("n_tasks", [8, 32, 128])
def test_p2p_alltoall_matcher_scaling(benchmark, n_tasks):
    """Indexed matching on an all-to-all exchange."""
    idx, idx_res, idx_t = run_once(benchmark, _alltoall_job, n_tasks)

    for rank, got in enumerate(idx_res):
        assert got == {
            src: [float(src)] * PAYLOAD
            for src in range(n_tasks) if src != rank
        }

    n_messages = n_tasks * (n_tasks - 1)
    assert idx.messages == n_messages
    info = dict(
        n_tasks=n_tasks,
        n_messages=n_messages,
        indexed_comparisons=idx.comparisons,
        indexed_cmp_per_delivery=round(idx.comparisons_per_delivery, 2),
        indexed_msg_rate=round(n_messages / idx_t, 1),
        indexed_seconds=round(idx_t, 4),
    )
    benchmark.extra_info.update(info)

    # The structural claim: match cost per delivery does not grow with
    # the depth of the pending list (one bucket lookup per receive
    # attempt, plus one per wakeup that found nothing).
    assert idx.comparisons_per_delivery < 2.0


@pytest.mark.parametrize("n_tasks", [32, 128])
def test_p2p_zero_copy_elision(benchmark, n_tasks):
    """sharing="shared" elides intra-node delivery copies and stays
    bit-identical to the copying path."""
    def job():
        shared, shared_res, _ = _alltoall_job(n_tasks, sharing="shared")
        private, private_res, _ = _alltoall_job(n_tasks, sharing="private")
        return shared, shared_res, private, private_res

    shared, shared_res, private, private_res = run_once(benchmark, job)

    # bit-identical received values with and without the fast path
    assert shared_res == private_res

    info = dict(
        n_tasks=n_tasks,
        shared_elided=shared.elided,
        shared_elided_bytes=shared.elided_bytes,
        shared_recv_copies=shared.recv_copies,
        private_recv_copies=private.recv_copies,
        intra_node_messages=shared.intra_node,
    )
    benchmark.extra_info.update(info)

    # every intra-node delivery was elided; inter-node ones never are
    assert shared.elided > 0
    assert shared.elided == shared.intra_node
    assert private.elided == 0
    assert shared.recv_copies < private.recv_copies


def test_p2p_pingpong_latency(benchmark):
    """Same-node ping-pong: round-trip latency of the event-driven
    mailbox (the seed mailbox ran a 50 ms poll loop under its waits)."""
    rt = Runtime(core2_cluster(1), n_tasks=2, timeout=60.0)

    def main(ctx):
        c = ctx.comm_world
        buf = np.zeros(PAYLOAD)
        if ctx.rank == 0:
            t0 = time.perf_counter()
            for _ in range(PINGPONG_ITERS):
                c.send(buf, dest=1, tag=1)
                c.recv(source=1, tag=2)
            return time.perf_counter() - t0
        for _ in range(PINGPONG_ITERS):
            c.recv(source=0, tag=1)
            c.send(buf, dest=0, tag=2)
        return None

    results = run_once(benchmark, rt.run, main)
    elapsed = results[0]
    rtt_us = elapsed / PINGPONG_ITERS * 1e6
    metrics = rt.metrics("p2p")
    info = dict(
        iters=PINGPONG_ITERS,
        round_trip_us=round(rtt_us, 1),
        msg_rate=round(2 * PINGPONG_ITERS / elapsed, 1),
        wakeups=metrics.wakeups,
        comparisons_per_delivery=round(metrics.comparisons_per_delivery, 2),
    )
    benchmark.extra_info.update(info)

    # a poll-driven mailbox (50 ms tick) could never do a round trip in
    # under two ticks; the event-driven one is orders of magnitude faster
    assert rtt_us < 50_000
