"""One-sided RMA windows: correctness of put/get/accumulate under all
three synchronisation families (fence, PSCW, passive-target locks), on
both backends, plus the zero-copy fast path and the epoch-misuse
detection (online ``RMAEpochError`` and offline
``rma_epoch_violations``)."""

import numpy as np
import pytest

from repro.analysis import Tracer, rma_epoch_violations
from repro.faults import FaultPlan, FaultSpec
from repro.machine import core2_cluster
from repro.runtime import (
    InjectedCrash,
    MAX,
    MPIError,
    ProcessRuntime,
    RMAEpochError,
    Runtime,
    SUM,
    Win,
)
from repro.runtime.rma import validate_layout

N = 4
TIMEOUT = 10.0


def thread_rt(sharing="private", **kw):
    return Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT,
                   sharing=sharing, **kw)


def process_rt(**kw):
    return ProcessRuntime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT, **kw)


RUNTIMES = {
    "thread-private": lambda: thread_rt("private"),
    "thread-shared": lambda: thread_rt("shared"),
    "process": process_rt,
}


# ----------------------------------------------------------------- fence
@pytest.mark.parametrize("factory", RUNTIMES.values(), ids=RUNTIMES.keys())
def test_fence_put_get_roundtrip(factory):
    """Ring put under fence sync: every rank reads exactly what its
    neighbour wrote, on every backend."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 4)
        win.fence()
        win.put(np.full(4, float(ctx.rank + 1)), (ctx.rank + 1) % ctx.size)
        win.fence()
        got = win.get(ctx.rank).tolist()
        win.fence_end()
        win.free()
        return got

    res = factory().run(main)
    for r, got in enumerate(res):
        assert got == [float((r - 1) % N + 1)] * 4


@pytest.mark.parametrize("factory", RUNTIMES.values(), ids=RUNTIMES.keys())
def test_fence_accumulate_sums_all_origins(factory):
    """Every rank accumulates into rank 0; the fold must equal the
    rank-sum whatever the schedule (accumulate is atomic per window)."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 2)
        win.fence()
        for _ in range(8):
            win.accumulate(np.full(2, float(ctx.rank + 1)), 0, op=SUM)
        win.fence()
        out = win.get(0).tolist()
        win.fence_end()
        return out

    res = factory().run(main)
    expected = 8.0 * sum(range(1, N + 1))
    assert all(out == [expected, expected] for out in res)


def test_accumulate_max_uses_ops_table():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        win.fence()
        win.accumulate(np.array([float(ctx.rank)]), 0, op=MAX)
        win.fence()
        out = float(win.get(0)[0])
        win.fence_end()
        return out

    assert thread_rt().run(main) == [float(N - 1)] * N


def test_win_create_exposes_existing_buffer():
    def main(ctx):
        c = ctx.comm_world
        mine = np.zeros(3)
        win = Win.create(c, mine)
        win.fence()
        win.put(np.full(3, 7.0), (ctx.rank + 1) % ctx.size)
        win.fence()
        # the exposed buffer itself received the store
        return mine.tolist()

    assert thread_rt().run(main) == [[7.0, 7.0, 7.0]] * N


def test_put_out_of_range_displacement_rejected():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 2)
        win.fence()
        with pytest.raises(MPIError, match="outside target"):
            win.put(np.zeros(2), 0, target_disp=1)
        win.fence()

    thread_rt().run(main)


# ------------------------------------------------------------------ PSCW
@pytest.mark.parametrize("factory", RUNTIMES.values(), ids=RUNTIMES.keys())
def test_pscw_roundtrip(factory):
    """Rank 0 exposes; every other rank starts, puts its slice,
    completes; rank 0 waits and reads the assembled window."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, ctx.size)
        if ctx.rank == 0:
            win.post(range(1, ctx.size))
            win.wait()
            out = win.local().tolist()
        else:
            win.start([0])
            win.put(np.array([float(ctx.rank)]), 0, target_disp=ctx.rank)
            win.complete()
            out = None
        c.barrier()
        win.free()
        return out

    res = factory().run(main)
    assert res[0] == [0.0] + [float(r) for r in range(1, N)]


def test_pscw_start_blocks_until_post():
    """start() must park until the matching exposure epoch is posted --
    visible as a nonzero epoch_waits counter."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        if ctx.rank == 0:
            # delay the post so rank 1's start provably waits
            import time
            time.sleep(0.05)
            win.post([1])
            win.wait()
        elif ctx.rank == 1:
            win.start([0])
            win.put(np.array([1.0]), 0)
            win.complete()
        c.barrier()

    rt = thread_rt()
    rt.run(main)
    assert rt.metrics("rma").epoch_waits >= 1


@pytest.mark.parametrize("factory", RUNTIMES.values(), ids=RUNTIMES.keys())
def test_pscw_repeated_epochs(factory):
    """A repeated post/start/complete/wait loop must match each start()
    with a *fresh* exposure epoch.  Regression: start() used to match
    the target's previous, already-completed exposure (still present
    until the target's wait() deletes it), so the origin's complete()
    was lost and the target's next wait() deadlocked.  The target
    sleeps between post and wait to leave the stale entry visible."""
    EPOCHS = 3

    def main(ctx):
        import time
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        out = []
        if ctx.rank == 0:
            for _ in range(EPOCHS):
                win.post([1])
                time.sleep(0.2)
                win.wait()
                out.append(float(win.local()[0]))
        elif ctx.rank == 1:
            for e in range(EPOCHS):
                win.start([0])
                win.put(np.array([float(e + 1)]), 0)
                win.complete()
        c.barrier()
        win.free()
        return out

    res = factory().run(main)
    assert res[0] == [1.0, 2.0, 3.0]


# -------------------------------------------------------- passive target
@pytest.mark.parametrize("factory", RUNTIMES.values(), ids=RUNTIMES.keys())
def test_exclusive_lock_serialises_read_modify_write(factory):
    """A get+put increment under an exclusive lock must never lose an
    update -- the classic lost-update test."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        c.barrier()
        for _ in range(5):
            win.lock(0, exclusive=True)
            v = float(win.get(0)[0])
            win.put(np.array([v + 1.0]), 0)
            win.unlock(0)
        c.barrier()
        win.lock(0)
        out = float(win.get(0)[0])
        win.unlock(0)
        return out

    res = factory().run(main)
    assert res == [float(5 * N)] * N


def test_shared_locks_coexist_exclusive_waits():
    """Shared locks are granted concurrently; an exclusive lock on the
    same target parks until they drain (epoch_waits counts it)."""
    import threading
    started = threading.Barrier(N, timeout=TIMEOUT)

    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        c.barrier()
        if ctx.rank in (1, 2, 3):
            win.lock(0)          # shared: all three enter together
            started.wait()
            import time
            time.sleep(0.05)
            v = float(win.get(0)[0])
            win.unlock(0)
            return v
        started.wait()           # exclusive waits for the readers
        win.lock(0, exclusive=True)
        win.put(np.array([9.0]), 0)
        win.unlock(0)
        return None

    rt = thread_rt()
    res = rt.run(main)
    # the readers all saw the pre-write value (they held the lock first)
    assert res[1:] == [0.0, 0.0, 0.0]
    m = rt.metrics("rma")
    assert m.epoch_waits >= 1      # the exclusive locker provably parked
    assert m.locks == N            # 3 shared grants + 1 exclusive grant


def test_lock_all_allows_access_to_every_target():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        c.barrier()
        win.lock_all()
        win.accumulate(np.array([1.0]), (ctx.rank + 1) % ctx.size, op=SUM)
        win.unlock_all()
        c.barrier()
        win.lock(ctx.rank)
        out = float(win.get(ctx.rank)[0])
        win.unlock(ctx.rank)
        return out

    assert thread_rt().run(main) == [1.0] * N


def test_double_lock_and_stray_unlock_rejected():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        ctx.comm_world.barrier()
        win.lock(0)
        with pytest.raises(MPIError, match="already held"):
            win.lock(0)
        win.unlock(0)
        with pytest.raises(MPIError, match="without a held lock"):
            win.unlock(0)
        ctx.comm_world.barrier()

    thread_rt().run(main)


# ----------------------------------------------------------- epoch misuse
def test_access_outside_any_epoch_raises():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        with pytest.raises(RMAEpochError, match="outside any access epoch"):
            win.put(np.array([1.0]), 0)
        with pytest.raises(RMAEpochError):
            win.get(0)
        with pytest.raises(RMAEpochError):
            win.accumulate(np.array([1.0]), 0)
        ctx.comm_world.barrier()

    thread_rt().run(main)


def test_pscw_access_to_unstarted_target_raises():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        if ctx.rank == 0:
            win.post([1])
            win.wait()
        elif ctx.rank == 1:
            win.start([0])
            # target 2 is not in the started group
            with pytest.raises(RMAEpochError):
                win.put(np.array([1.0]), 2)
            win.put(np.array([1.0]), 0)
            win.complete()
        c.barrier()

    thread_rt().run(main)


def test_epoch_bookkeeping_misuse_raises():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        with pytest.raises(MPIError, match="without a started access epoch"):
            win.complete()
        with pytest.raises(MPIError, match="without a posted exposure epoch"):
            win.wait()
        ctx.comm_world.barrier()

    thread_rt().run(main)


def test_fence_end_closes_the_epoch():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        win.fence()
        win.put(np.array([1.0]), ctx.rank)   # legal inside the epoch
        win.fence_end()
        with pytest.raises(RMAEpochError):
            win.put(np.array([2.0]), ctx.rank)
        ctx.comm_world.barrier()

    thread_rt().run(main)


def test_offline_epoch_violation_reported_through_happens_before():
    """The tracer records RMA/epoch events; the offline checker flags
    exactly the access the runtime also rejects."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 1)
        if ctx.rank == 0:
            try:
                win.put(np.array([1.0]), 1)   # misuse: before any epoch
            except RMAEpochError:
                pass
        c.barrier()
        win.fence()
        win.put(np.array([2.0]), (ctx.rank + 1) % ctx.size)  # covered
        win.fence()
        return None

    rt = thread_rt()
    tracer = Tracer(N)
    rt.tracer = tracer
    rt.run(main)
    violations = rma_epoch_violations(tracer.trace)
    assert len(violations) == 1
    ev, reason = violations[0]
    assert ev.task == 0 and ev.op == "put" and ev.peer == 1
    assert "outside any access epoch" in reason


def test_offline_checker_covers_locks_and_pscw():
    from repro.analysis import Trace

    tr = Trace(2)
    tr.epoch_call(0, win=0, op="lock_shared", target=1)
    tr.rma(0, win=0, op="get", target=1)          # covered by the lock
    tr.epoch_call(0, win=0, op="unlock", target=1)
    tr.rma(0, win=0, op="get", target=1)          # NOT covered any more
    tr.epoch_call(1, win=0, op="start", group=(0,))
    tr.rma(1, win=0, op="put", target=0)          # covered by start
    tr.epoch_call(1, win=0, op="complete")
    violations = rma_epoch_violations(tr)
    assert len(violations) == 1
    assert violations[0][0].task == 0


# -------------------------------------------------- zero-copy / footprint
def test_shared_sharing_moves_zero_staged_bytes():
    """The acceptance criterion: under sharing="shared" the fast path
    measurably copies zero payload bytes."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 8)
        win.fence()
        win.put(np.full(8, float(ctx.rank)), (ctx.rank + 1) % ctx.size)
        win.fence()
        win.get((ctx.rank + 2) % ctx.size)
        win.fence_end()

    rt = thread_rt("shared")
    rt.run(main)
    m = rt.metrics("rma")
    assert m.ops == 2 * N
    assert m.staged_bytes == 0 and m.staged_copies == 0
    assert m.zero_copy_hits == 2 * N
    assert m.zero_copy_bytes == m.bytes > 0
    assert m.zero_copy_fraction == 1.0


def test_private_sharing_stages_every_transfer():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 8)
        win.fence()
        win.put(np.full(8, 1.0), (ctx.rank + 1) % ctx.size)
        win.fence_end()

    rt = thread_rt("private")
    rt.run(main)
    m = rt.metrics("rma")
    assert m.zero_copy_hits == 0
    assert m.staged_copies == N
    assert m.staged_bytes == m.bytes == N * 8 * 8


def test_allocate_shared_window_is_direct_even_under_private_sharing():
    """An explicitly shared-allocated window opts into direct access
    regardless of the runtime-wide sharing policy (that is its point)."""
    def main(ctx):
        c = ctx.comm_world.split_by_node()
        win = Win.allocate_shared(c, 2)
        win.fence()
        win.put(np.full(2, float(c.rank)), (c.rank + 1) % c.size)
        win.fence_end()

    rt = thread_rt("private")
    rt.run(main)
    m = rt.metrics("rma")
    assert m.staged_bytes == 0 and m.zero_copy_hits == N


def test_process_backend_pays_mirror_copies_and_double_staging():
    """The process backend's window emulation: two staging copies per
    transfer plus lazily allocated per-origin mirrors -- the RMA
    extension of the Tables I-IV memory contrast."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 8)
        win.fence()
        win.put(np.full(8, 1.0), (ctx.rank + 1) % ctx.size)
        win.fence()
        win.get((ctx.rank + 1) % ctx.size)
        win.fence_end()

    prt = process_rt()
    before = prt.node_live_bytes(0)
    prt.run(main)
    after = prt.node_live_bytes(0)
    m = prt.metrics("rma")
    assert m.zero_copy_hits == 0
    assert m.staged_bytes == 2 * m.bytes          # origin + mirror delivery
    assert m.mirror_bytes == N * 8 * 8            # one mirror per (o, t) pair
    # the mirrors (and windows) are live memory the thread backend
    # never allocates
    assert after - before >= m.mirror_bytes

    trt = thread_rt("shared")
    trt.run(main)
    assert trt.metrics("rma").mirror_bytes == 0


def test_zero_copy_get_view_is_read_only_and_gated():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 2)
        win.fence()
        win.put(np.array([1.0, 2.0]), ctx.rank)
        win.fence()
        view = win.get(ctx.rank, copy=False)
        assert view.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            view[0] = 9.0                          # read-only
        win.fence_end()

    thread_rt("shared").run(main)

    def denied(ctx):
        win = Win.allocate(ctx.comm_world, 2)
        win.fence()
        with pytest.raises(MPIError, match="zero-copy get"):
            win.get(ctx.rank, copy=False)
        win.fence_end()

    process_rt().run(denied)


# -------------------------------------------------------- windows lifecycle
def test_free_releases_window_and_mirrors():
    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 16)
        win.fence()
        win.put(np.zeros(16), (ctx.rank + 1) % ctx.size)
        win.fence_end()
        win.free()
        return None

    prt = process_rt()
    before = prt.node_live_bytes(0)
    prt.run(main)
    assert prt.node_live_bytes(0) == before


def test_use_after_free_raises():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        win.free()
        with pytest.raises(MPIError, match="freed window"):
            win.fence()
        ctx.comm_world.barrier()

    thread_rt().run(main)


def test_allocate_shared_on_process_backend_is_node_shared():
    """Never silently private: the process backend maps a shared window
    into the node's isomalloc segment, so a peer store made before a
    fence is seen after it, every access is direct (no staging, no
    mirrors), and ``free`` returns the segment bytes."""
    rt = process_rt()
    seg = rt.memory.segment_arena(0)

    def main(ctx):
        c = ctx.comm_world.split_by_node()
        win = Win.allocate_shared(c, 4)
        win.fence()
        peer = (c.rank + 1) % c.size
        win.shared_query(peer)[:] = float(c.rank + 1)
        win.fence()
        seen = float(win.local()[0])
        win.fence()
        win.put(np.full(4, float(c.rank)), peer)
        win.fence_end()
        live = seg.live_bytes
        win.free()
        return seen, live, seg.live_bytes

    res = rt.run(main)
    assert [seen for seen, _, _ in res] == [float((r - 1) % N + 1)
                                            for r in range(N)]
    assert all(live == N * 4 * 8 for _, live, _ in res)
    assert all(after == 0 for _, _, after in res)
    m = rt.metrics("rma")
    assert m.zero_copy_hits == N and m.staged_copies == 0
    assert m.mirror_bytes == 0
    assert not rt.finalize()


# ------------------------------------------------------------- validation
def test_validate_layout_rejects_overlap_and_out_of_range():
    validate_layout(4, {0: 0, 1: 2}, {0: 2, 1: 2})     # ok
    with pytest.raises(MPIError, match="overlap"):
        validate_layout(4, {0: 0, 1: 1}, {0: 2, 1: 2})
    with pytest.raises(MPIError, match="exceeds the window"):
        validate_layout(4, {0: 0, 1: 3}, {0: 2, 1: 2})
    with pytest.raises(MPIError, match="negative"):
        validate_layout(4, {0: -1, 1: 2}, {0: 2, 1: 2})
    with pytest.raises(MPIError, match="disagree"):
        validate_layout(4, {0: 0}, {0: 2, 1: 2})


def test_allocate_shared_custom_offsets_validated():
    def ok(ctx):
        c = ctx.comm_world.split_by_node()
        # reversed layout: rank r at offset (size-1-r)
        offs = {r: (c.size - 1 - r) for r in range(c.size)}
        win = Win.allocate_shared(c, 1, offsets=offs)
        win.local()[:] = float(c.rank)
        win.fence()
        out = [float(win.shared_query(r)[0]) for r in range(c.size)]
        win.fence_end()
        return out

    res = thread_rt().run(ok)
    assert res == [[0.0, 1.0, 2.0, 3.0]] * N

    def overlapping(ctx):
        c = ctx.comm_world.split_by_node()
        Win.allocate_shared(c, 1, offsets={r: 0 for r in range(c.size)})

    with pytest.raises(MPIError, match="overlap"):
        thread_rt().run(overlapping)


# ------------------------------------------------------------------ chaos
def _rma_chaos_job(ctx):
    c = ctx.comm_world
    win = Win.allocate(c, 2)
    win.fence()
    win.put(np.full(2, float(ctx.rank + 1)), (ctx.rank + 1) % ctx.size)
    win.fence()
    win.lock(0)
    win.get(0)
    win.unlock(0)
    win.lock_all()
    win.accumulate(np.full(2, 1.0), (ctx.rank + 1) % ctx.size, op=SUM)
    win.unlock_all()
    win.fence_end()
    out = None
    if ctx.rank == 0:
        win.lock(0)
        out = win.get(0).tolist()
        win.unlock(0)
    return out


def test_rma_crash_site_aborts_everyone():
    """A crash at an rma.* site must bring the whole job down cleanly
    inside the watchdog, like every other site category."""
    for site in ("rma.put", "rma.get", "rma.epoch"):
        plan = FaultPlan.single(site, "crash", task=2, nth=1)
        rt = thread_rt()
        rt.install_faults(plan)
        with pytest.raises(InjectedCrash):
            rt.run(_rma_chaos_job)
        m = rt.metrics("faults")
        assert m.fired.get("crash") == 1
        assert m.recovery_latency_s is not None
        assert m.recovery_latency_s < TIMEOUT


def test_rma_soft_faults_preserve_results():
    """Delays and spurious wakes at the rma.* sites may slow the job
    but must not corrupt the window contents."""
    baseline = thread_rt().run(_rma_chaos_job)
    for seed in range(5):
        plan = FaultPlan.random(
            seed, N, n_faults=6,
            sites=("rma.put", "rma.get", "rma.epoch"),
            max_nth=6, max_delay=0.005, crash_rate=0.0,
        )
        rt = thread_rt()
        rt.install_faults(plan)
        assert rt.run(_rma_chaos_job) == baseline, f"seed {seed}"


def test_rma_sites_registered_in_plan_schema():
    from repro.faults.plan import SITES

    for site in ("rma.put", "rma.get", "rma.epoch"):
        assert site in SITES
    # a spec naming them validates
    FaultSpec(site="rma.epoch", action="wake")
    with pytest.raises(ValueError):
        FaultSpec(site="rma.put", action="transient")
