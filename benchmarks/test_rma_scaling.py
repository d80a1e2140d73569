"""One-sided RMA at 8 / 32 tasks: the zero-copy window fast path vs
staged copies vs the process backend's per-origin mirror emulation.

The tentpole claims of the RMA subsystem, made observable:

* under ``sharing="shared"`` a fence-synchronised put/get exchange
  stages **zero** payload bytes -- every access is a direct load/store
  on the exposed segment (``zero_copy_fraction == 1``);
* under ``sharing="private"`` the same program stages one copy per
  transfer;
* the process backend stages two copies per transfer *and* pays a
  per-(origin, target) mirror allocation -- the one-sided extension of
  the paper's Tables I-IV memory-footprint contrast.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_rma_scaling.py``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import ProcessRuntime, Runtime, Win

PAYLOAD = 128       # doubles per segment
ROUNDS = 4


def _fence_job(backend, n_tasks):
    """Ring put + shifted get under fence sync, ``ROUNDS`` epochs."""
    machine = core2_cluster(max(1, n_tasks // 8))   # 8 PUs per node
    if backend == "process":
        rt = ProcessRuntime(machine, n_tasks=n_tasks, timeout=120.0)
    else:
        rt = Runtime(machine, n_tasks=n_tasks, sharing=backend,
                     timeout=120.0)

    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, PAYLOAD)
        payload = np.full(PAYLOAD, float(ctx.rank))
        win.fence()
        checksum = 0.0
        for _ in range(ROUNDS):
            win.put(payload, (ctx.rank + 1) % ctx.size)
            win.fence()
            checksum += float(win.get((ctx.rank - 1) % ctx.size)[0])
            win.fence()
        win.fence_end()
        return checksum

    t0 = time.perf_counter()
    results = rt.run(main)
    elapsed = time.perf_counter() - t0
    return rt.metrics("rma"), results, elapsed


@pytest.mark.parametrize("n_tasks", [8, 32])
def test_rma_fence_exchange_scaling(benchmark, n_tasks):
    """Same program on all three backends: identical values, divergent
    copy/memory behaviour."""
    def job():
        return {b: _fence_job(b, n_tasks)
                for b in ("shared", "private", "process")}

    out = run_once(benchmark, job)
    (m_sh, res_sh, t_sh) = out["shared"]
    (m_pr, res_pr, t_pr) = out["private"]
    (m_os, res_os, t_os) = out["process"]

    # semantics are backend-invariant
    assert res_sh == res_pr == res_os

    ops = 2 * ROUNDS * n_tasks
    assert m_sh.ops == m_pr.ops == m_os.ops == ops

    # zero-copy fast path: not one staged payload byte for intra-node
    # traffic in shared mode.  The ring's node-boundary edges (one put
    # and one get per node per round, when there is more than one node)
    # have no shared address space to exploit and legitimately stage.
    n_nodes = max(1, n_tasks // 8)
    cross_ops = 2 * ROUNDS * n_nodes if n_nodes > 1 else 0
    assert m_sh.zero_copy_hits == ops - cross_ops
    assert m_sh.staged_bytes == cross_ops * PAYLOAD * 8
    if n_nodes == 1:
        assert m_sh.staged_bytes == 0 and m_sh.staged_copies == 0
        assert m_sh.zero_copy_fraction == 1.0
    # private thread mode: one staging copy per transfer
    assert m_pr.zero_copy_hits == 0
    assert m_pr.staged_bytes == m_pr.bytes
    # process emulation: double staging plus live mirror allocations
    assert m_os.staged_bytes == 2 * m_os.bytes
    assert m_os.mirror_bytes > 0

    info = dict(
        n_tasks=n_tasks,
        rma_ops=ops,
        payload_doubles=PAYLOAD,
        shared_staged_bytes=m_sh.staged_bytes,
        shared_zero_copy_hits=m_sh.zero_copy_hits,
        shared_zero_copy_fraction=m_sh.zero_copy_fraction,
        private_staged_bytes=m_pr.staged_bytes,
        process_staged_bytes=m_os.staged_bytes,
        process_mirror_bytes=m_os.mirror_bytes,
        shared_op_rate=round(ops / t_sh, 1),
        private_op_rate=round(ops / t_pr, 1),
        process_op_rate=round(ops / t_os, 1),
    )
    benchmark.extra_info.update(info)


def test_rma_passive_lock_contention(benchmark):
    """All ranks hammer rank 0's segment under exclusive locks; the
    serialised increments must all land (no lost updates) and the
    wait counters expose the contention."""
    n_tasks, increments = 8, 16

    def job():
        rt = Runtime(core2_cluster(1), n_tasks=n_tasks, sharing="shared",
                     timeout=120.0)

        def main(ctx):
            c = ctx.comm_world
            win = Win.allocate(c, 1)
            c.barrier()
            for _ in range(increments):
                win.lock(0, exclusive=True)
                v = float(win.get(0)[0])
                win.put(np.array([v + 1.0]), 0)
                win.unlock(0)
            c.barrier()
            win.lock(0)
            out = float(win.get(0)[0])
            win.unlock(0)
            return out

        t0 = time.perf_counter()
        results = rt.run(main)
        elapsed = time.perf_counter() - t0
        return rt.metrics("rma"), results, elapsed

    m, results, elapsed = run_once(benchmark, job)
    assert results == [float(n_tasks * increments)] * n_tasks
    assert m.locks == n_tasks * (increments + 1)
    info = dict(
        n_tasks=n_tasks,
        increments_per_rank=increments,
        locks=m.locks,
        epoch_waits=m.epoch_waits,
        lock_rate=round(m.locks / elapsed, 1),
    )
    benchmark.extra_info.update(info)
