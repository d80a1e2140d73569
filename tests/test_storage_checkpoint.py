"""Checkpoint/restart, out-of-core acceptance, spill determinism and
chunk-lock contention tests for storage-backed windows.

The fence-as-checkpoint contract under test: every ``Win.fence()`` that
follows dirtying accesses flushes each rank's chunks and commits the
store manifest atomically, and ``store.epoch`` counts exactly those
dirtying fences -- so an iterative job can restart with
``for it in range(store.epoch, iters)`` and land bit-for-bit on the
uninterrupted result, even when the previous attempt died mid-iteration
with unflushed writes in flight.
"""

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import ProcessRuntime, Runtime, SUM, Win
from repro.storage import ChunkStore

N = 4
TIMEOUT = 20.0
ITERS = 6
COUNT = 64          # elements per rank
CHUNK = 16

RUNTIMES = {
    "thread-private": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, sharing="private"),
    "thread-shared": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, sharing="shared"),
    "coop": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, backend="coop",
        schedule="random:11"),
    "process": lambda: ProcessRuntime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT),
}

runtime_param = pytest.mark.parametrize(
    "factory", RUNTIMES.values(), ids=RUNTIMES.keys())


def payload(it, rank, count=COUNT):
    """Deterministic integer-valued iteration payload."""
    return np.arange(count, dtype=float) * (it + 1) + rank * 1000


def iterate(ctx, win, start, iters):
    """Run iterations [start, iters): each accumulates a payload into
    the right neighbour's window, fenced -- one checkpoint each."""
    rank, size = ctx.rank, ctx.size
    win.fence()
    for it in range(start, iters):
        win.accumulate(payload(it, rank), (rank + 1) % size, op=SUM)
        win.fence()
    final = win.get(rank)
    win.fence_end()
    win.free()
    return [float(x) for x in final]


def expected_final(rank):
    left = (rank - 1) % N
    acc = np.zeros(COUNT)
    for it in range(ITERS):
        acc += payload(it, left)
    return [float(x) for x in acc]


# ---------------------------------------------------------------- restart
@runtime_param
def test_restart_from_last_fence_is_bit_equal(factory, tmp_path):
    """Die mid-loop (after 3 of 6 fenced iterations, with a partially
    written 4th in flight), reopen the manifest, resume from
    ``store.epoch`` -- the final window contents equal an uninterrupted
    run's, bit for bit."""
    root = tmp_path / "store"
    store = ChunkStore.create(root)

    def crashing_main(ctx):
        win = Win.allocate_storage(ctx.comm_world, COUNT, store=store,
                                   name="w", chunk_elems=CHUNK)
        rank, size = ctx.rank, ctx.size
        win.fence()
        for it in range(3):
            win.accumulate(payload(it, rank), (rank + 1) % size, op=SUM)
            win.fence()
        # iteration 3 starts but never reaches its fence: these writes
        # must not survive the crash
        win.accumulate(payload(3, rank), (rank + 1) % size, op=SUM)
        # simulated hard crash: no fence, no free, runtime dropped

    factory().run(crashing_main)

    rt2 = factory()
    store2 = rt2.restore_storage(root)
    assert store2.epoch == 3, "three dirtying fences completed"

    def resumed_main(ctx):
        win = Win.allocate_storage(ctx.comm_world, COUNT, store=store2,
                                   name="w", chunk_elems=CHUNK)
        return iterate(ctx, win, store2.epoch, ITERS)

    results = rt2.run(resumed_main)
    for rank in range(N):
        assert results[rank] == expected_final(rank)
    assert rt2.finalize().by_kind().get("storage", 0) == 0


def test_uninterrupted_run_matches_expected(tmp_path):
    """Sanity anchor for the restart test: the uninterrupted job
    produces the analytically expected values."""
    rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT)
    store = ChunkStore.create(tmp_path / "store")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, COUNT, store=store,
                                   name="w", chunk_elems=CHUNK)
        return iterate(ctx, win, 0, ITERS)

    results = rt.run(main)
    for rank in range(N):
        assert results[rank] == expected_final(rank)
    assert store.epoch == ITERS


# ------------------------------------------------------- 4x out-of-core
def test_4x_capacity_workload_bit_equal_to_in_memory(tmp_path):
    """The acceptance bar: a dataset 4x the arena capacity budget pages
    through storage and still matches the unlimited in-memory run bit
    for bit."""
    count = 2048                       # 16 KiB per rank, 64 KiB total
    chunk = 256                        # 2 KiB chunks
    budget = 16 * 1024                 # 4 ranks' window = 4x this

    def workload(ctx, win):
        rank, size = ctx.rank, ctx.size
        rng = np.random.default_rng(100 + rank)
        vals = rng.integers(0, 1000, size=count).astype(float)
        win.fence()
        win.put(vals, (rank + 1) % size)
        win.fence()
        win.accumulate(vals[::-1].copy(), (rank + 2) % size, op=SUM)
        win.fence()
        final = win.get(rank)
        win.fence_end()
        win.free()
        return [float(x) for x in final]

    rt_mem = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT)

    def main_mem(ctx):
        return workload(ctx, Win.allocate(ctx.comm_world, count,
                                          chunk_elems=chunk))

    baseline = rt_mem.run(main_mem)

    rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT)
    rt.memory.cap_node(0, budget)
    store = ChunkStore.create(tmp_path / "store")

    def main_storage(ctx):
        return workload(ctx, Win.allocate_storage(
            ctx.comm_world, count, store=store, name="big",
            chunk_elems=chunk))

    assert rt.run(main_storage) == baseline
    m = rt.metrics("storage")
    assert m.spills > 0, "4x workload must page"
    assert m.faults > 0, "spilled chunks must fault back in"
    assert rt.finalize().by_kind().get("storage", 0) == 0


# --------------------------------------------------- spill determinism
def _coop_spill_run(tmp_path, tag):
    rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT,
                 backend="coop", schedule="random:7")
    rt.memory.cap_node(0, 4096)
    store = ChunkStore.create(tmp_path / f"store-{tag}")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, 512, store=store,
                                   name="d", chunk_elems=64)
        rank, size = ctx.rank, ctx.size
        win.fence()
        for it in range(3):
            win.put(payload(it, rank, 512), (rank + it) % size)
            win.fence()
        out = float(np.sum(win.get(rank)))
        win.fence_end()
        win.free()
        return out

    results = rt.run(main)
    log = list(rt.storage_spill.spill_log)
    leaks = rt.finalize().by_kind().get("storage", 0)
    return results, log, leaks


def test_coop_spill_sequence_is_deterministic(tmp_path):
    """Same coop schedule seed, same capacity cap -> the exact same
    sequence of (array, chunk) spills, and no resident chunks leak
    past finalize."""
    res1, log1, leaks1 = _coop_spill_run(tmp_path, "a")
    res2, log2, leaks2 = _coop_spill_run(tmp_path, "b")
    assert log1, "the cap was meant to force spills"
    assert log1 == log2
    assert res1 == res2
    assert leaks1 == 0 and leaks2 == 0


# ------------------------------------------------------ lock contention
def test_disjoint_chunk_accesses_do_not_serialise(tmp_path):
    """All ranks hammer rank 0's storage window at chunk-aligned
    disjoint offsets: per-chunk locking must record zero lock waits
    (the old whole-window data_lock would have serialised them all)."""
    chunk = 8
    count = chunk * N

    rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT)
    store = ChunkStore.create(tmp_path / "store")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, count, store=store,
                                   name="c", chunk_elems=chunk)
        rank = ctx.rank
        win.fence()
        for it in range(20):
            win.put(payload(it, rank, chunk), 0,
                    target_disp=rank * chunk)
            win.accumulate(np.ones(chunk), 0, op=SUM,
                           target_disp=rank * chunk)
        win.fence()
        final = win.get(0, count) if rank == 0 else None
        win.fence_end()
        win.free()
        return None if final is None else [float(x) for x in final]

    results = rt.run(main)
    m = rt.metrics("rma")
    assert m.chunk_lock_acquisitions > 0
    assert m.chunk_lock_waits == 0, (
        "disjoint-chunk traffic must not contend"
    )
    # within a rank the ops are ordered, so each put overwrites the
    # prior accumulates: the last put + one accumulate survive
    expect = np.concatenate(
        [payload(19, rank, chunk) + 1 for rank in range(N)])
    assert results[0] == [float(x) for x in expect]


@runtime_param
def test_same_chunk_rmw_atomicity_stays_green(factory, tmp_path):
    """The flip side of fine-grained locking: concurrent fetch_and_op
    on one element of one chunk still counts every increment."""
    rt = factory()
    store = ChunkStore.create(tmp_path / "store")
    reps = 25

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, 8, store=store,
                                   name="ctr", chunk_elems=4)
        win.fence()
        for _ in range(reps):
            win.fetch_and_op(1.0, 0, op=SUM, target_disp=0)
        win.fence()
        total = float(win.get(0, 1)[0])
        win.fence_end()
        win.free()
        return total

    results = rt.run(main)
    assert results == [float(N * reps)] * N
