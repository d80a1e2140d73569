"""Unit tests for the single-element RMA atomics (``Win.fetch_and_op``
and ``Win.compare_and_swap``) and the shared read-modify-write core
they sit on with ``accumulate``: old-value semantics, atomicity under
contention, epoch discipline, and metrics counters -- on all three
backends (threads, coop, process)."""

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import (
    MPIError,
    ProcessRuntime,
    RMAEpochError,
    Runtime,
    SUM,
    Win,
)

N = 4
TIMEOUT = 10.0

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


# ------------------------------------------------------------ fetch_and_op
@runtime_param
def test_fetch_and_op_returns_distinct_old_values(factory):
    """Concurrent fetch-and-adds on one word each observe a distinct
    old value: the definition of an atomic counter."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.zeros(1, dtype=np.uint64))
        win.lock_all()
        old = int(win.fetch_and_op(np.uint64(1), target=0))
        c.barrier()
        final = int(win.fetch_and_op(np.uint64(0), target=0))
        win.unlock_all()
        win.free()
        return old, final

    res = factory().run(main)
    assert sorted(r[0] for r in res) == list(range(N))
    assert {r[1] for r in res} == {N}


@runtime_param
def test_fetch_and_op_with_custom_op(factory):
    """The op argument is honoured (MAX keeps the largest rank+1)."""
    from repro.runtime import MAX

    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.zeros(1, dtype=np.int64))
        win.fence()
        win.fetch_and_op(np.int64(ctx.rank + 1), target=0, op=MAX)
        win.fence()
        out = int(win.get(0)[0])
        win.fence_end()
        win.free()
        return out

    assert factory().run(main) == [N] * N


def test_fetch_and_op_rejects_multi_element():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 4)
        win.fence()
        with pytest.raises(MPIError):
            win.fetch_and_op(np.zeros(2), target=0)
        win.fence_end()
        win.free()
        return True

    assert all(RUNTIMES["thread-private"]().run(main))


# -------------------------------------------------------- compare_and_swap
@runtime_param
def test_compare_and_swap_single_winner(factory):
    """All ranks CAS the same expected value: exactly one succeeds and
    every loser observes a value it did not write."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.full(1, 7, dtype=np.int64))
        win.lock_all()
        old = int(win.compare_and_swap(
            np.int64(7), np.int64(100 + ctx.rank), target=0))
        c.barrier()
        final = int(win.fetch_and_op(np.int64(0), target=0))
        win.unlock_all()
        win.free()
        return old, final

    res = factory().run(main)
    winners = [i for i, (old, _) in enumerate(res) if old == 7]
    assert len(winners) == 1
    assert all(final == 100 + winners[0] for _, final in res)


@runtime_param
def test_compare_and_swap_mismatch_leaves_target(factory):
    def main(ctx):
        win = Win.create(ctx.comm_world, np.full(1, 5, dtype=np.int64))
        win.fence()
        old = int(win.compare_and_swap(np.int64(99), np.int64(1), target=0))
        win.fence()
        now = int(win.get(0)[0])
        win.fence_end()
        win.free()
        return old, now

    assert factory().run(main) == [(5, 5)] * N


def test_compare_and_swap_rejects_multi_element():
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 4)
        win.fence()
        with pytest.raises(MPIError):
            win.compare_and_swap(np.zeros(1), np.zeros(3), target=0)
        win.fence_end()
        win.free()
        return True

    assert all(RUNTIMES["thread-private"]().run(main))


# ------------------------------------------------- shared RMW core / epochs
@pytest.mark.parametrize("op_call", ["fetch_and_op", "compare_and_swap"])
def test_atomics_outside_epoch_raise(op_call):
    """The atomics share accumulate's epoch discipline: use outside any
    synchronisation epoch is an online RMAEpochError."""
    def main(ctx):
        win = Win.allocate(ctx.comm_world, 1)
        try:
            with pytest.raises(RMAEpochError):
                if op_call == "fetch_and_op":
                    win.fetch_and_op(np.float64(1.0), target=0)
                else:
                    win.compare_and_swap(
                        np.float64(0.0), np.float64(1.0), target=0)
        finally:
            win.free()
        return True

    assert all(RUNTIMES["thread-private"]().run(main))


@runtime_param
def test_atomics_mix_with_accumulate(factory):
    """accumulate and fetch_and_op serialise through the same data
    lock: a mixed barrage still sums exactly."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.zeros(1, dtype=np.float64))
        win.lock_all()
        for i in range(8):
            if (i + ctx.rank) % 2:
                win.accumulate(np.ones(1), target=0, op=SUM)
            else:
                win.fetch_and_op(np.float64(1.0), target=0)
        c.barrier()
        total = float(win.fetch_and_op(np.float64(0.0), target=0))
        win.unlock_all()
        win.free()
        return total

    res = factory().run(main)
    assert {r for r in res} == {float(8 * N)}


@runtime_param
def test_atomics_metrics_counters(factory):
    """metrics("rma") counts the new atomics separately and in ops."""
    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.zeros(1, dtype=np.int64))
        win.fence()
        win.fetch_and_op(np.int64(1), target=0)
        win.fetch_and_op(np.int64(1), target=0)
        win.compare_and_swap(np.int64(0), np.int64(1), target=0)
        win.fence_end()
        win.free()
        return True

    rt = factory()
    assert all(rt.run(main))
    m = rt.metrics("rma")
    assert m.fetch_and_ops == 2 * N
    assert m.compare_and_swaps == N
    assert m.ops >= 3 * N
    snap = m.snapshot()
    assert snap["fetch_and_ops"] == 2 * N
    assert snap["compare_and_swaps"] == N


#: window elements per rank: two default-sized chunk locks, so an
#: accumulate at ``MULTI_DISP`` spans a chunk boundary
SEG = 1032
MULTI_DISP, MULTI_LEN = 1020, 8
#: one rank's RMW mix against one window: payload bytes, operations and
#: chunk-lock acquisitions (fetch_and_op x2, compare_and_swap,
#: one-chunk accumulate, two-chunk accumulate)
MIX_BYTES = 8 * (2 + 1 + 1 + MULTI_LEN)
MIX_OPS = 5
MIX_ACQUISITIONS = 2 + 1 + 1 + 2


def _rmw_mix(win, target):
    win.fetch_and_op(np.int64(1), target, target_disp=0)
    win.fetch_and_op(np.int64(1), target, target_disp=0)
    win.compare_and_swap(np.int64(0), np.int64(5), target, target_disp=1)
    win.accumulate(np.ones(1, dtype=np.int64), target, target_disp=2)
    win.accumulate(np.ones(MULTI_LEN, dtype=np.int64), target,
                   target_disp=MULTI_DISP)


@runtime_param
def test_rmw_core_exact_rma_counters(factory):
    """The read-modify-write core's full counter contract, pinned
    exactly: a fixed RMW mix, one rank at a time (so no chunk lock is
    ever contended), on a ``Win.create`` window and an
    ``allocate_shared`` window (node-shared on every backend).  Staged
    vs zero-copy accounting, process-backend mirrors, payload bytes and
    the window synchronizer's ``(acquisitions, waits)`` must all come
    out to the same numbers whatever the RMW core looks like inside."""
    def main(ctx):
        c = ctx.comm_world
        wins = [Win.create(c, np.zeros(SEG, dtype=np.int64)),
                Win.allocate_shared(c, SEG, np.int64)]
        target = (ctx.rank + 1) % c.size
        syncs = []
        for win in wins:
            win.fence()
            for turn in range(c.size):
                if turn == ctx.rank:
                    _rmw_mix(win, target)
                c.barrier()
            seg = win.local().copy()
            win.fence_end()
            syncs.append(win._shared.sync.counters())
            win.free()
            assert seg[0] == 2 and seg[1] == 5 and seg[2] == 1
            assert list(seg[MULTI_DISP:MULTI_DISP + MULTI_LEN]) == [1] * 8
        return syncs

    rt = factory()
    res = rt.run(main)
    process = not rt.shared_node_address_space
    direct_private = rt.sharing == "shared"
    n_wins = 2
    assert all(s == [(N * MIX_ACQUISITIONS, 0)] * n_wins for s in res)

    # per window: direct accesses are zero-copy; staged ones cost one
    # origin copy, two (plus one mirror per origin) on the process backend
    copies = 2 if process else 1
    staged_copies = staged = zero_hits = zero = mirror = 0
    for kind in ("create", "shared"):
        if kind == "shared" or direct_private:
            zero_hits += N * MIX_OPS
            zero += N * MIX_BYTES
        else:
            staged_copies += copies * N * MIX_OPS
            staged += copies * N * MIX_BYTES
            if process:
                mirror += N * SEG * 8
    total = n_wins * N * MIX_BYTES
    assert rt.metrics("rma").snapshot() == {
        "windows": n_wins,
        "ops": n_wins * N * MIX_OPS,
        "puts": 0,
        "gets": 0,
        "accumulates": n_wins * N * 2,
        "fetch_and_ops": n_wins * N * 2,
        "compare_and_swaps": n_wins * N,
        "bytes": total,
        "staged_copies": staged_copies,
        "staged_bytes": staged,
        "zero_copy_hits": zero_hits,
        "zero_copy_bytes": zero,
        "zero_copy_fraction": round(zero / total, 3),
        "epoch_waits": 0,
        "fences": n_wins * N * 2,
        "locks": 0,
        "mirror_bytes": mirror,
        "chunk_lock_acquisitions": n_wins * N * MIX_ACQUISITIONS,
        "chunk_lock_waits": 0,
    }


#: one rank's put/get mix against one window: a one-chunk put, a
#: two-chunk put at ``MULTI_DISP``, a get into a fresh array and a get
#: into a contiguous ``buf`` -- plus, where the access is direct, a
#: zero-copy ``copy=False`` view
PUT_LEN, GET_LEN = 4, 4
PG_PUT_BYTES = 8 * (PUT_LEN + MULTI_LEN)
PG_GET_BYTES = 8 * GET_LEN
#: chunk locks the mix takes: puts span 1 + 2 chunks; a staged get
#: locks its one chunk, a direct one takes none
PG_PUT_ACQUISITIONS = 1 + 2
PG_STAGED_GET_ACQUISITIONS = 2


def _put_get_mix(win, target, direct):
    win.put(np.arange(1, PUT_LEN + 1, dtype=np.int64), target, target_disp=0)
    win.put(np.full(MULTI_LEN, 9, dtype=np.int64), target,
            target_disp=MULTI_DISP)
    got = [win.get(target, GET_LEN).tolist()]
    buf = np.empty(GET_LEN, dtype=np.int64)
    assert win.get(target, GET_LEN, buf=buf) is buf
    got.append(buf.tolist())
    if direct:
        got.append(win.get(target, GET_LEN, copy=False).tolist())
    else:
        with pytest.raises(MPIError, match="zero-copy get"):
            win.get(target, GET_LEN, copy=False)
    return got


def _run_put_get_mix(ctx, win, direct):
    """The mix one rank at a time (no chunk lock is ever contended);
    returns the synchronizer counters of the window's in-memory table."""
    c = ctx.comm_world
    target = (ctx.rank + 1) % c.size
    win.fence()
    for turn in range(c.size):
        if turn == ctx.rank:
            got = _put_get_mix(win, target, direct)
        c.barrier()
    seg = win.get(ctx.rank, copy=True)
    win.fence_end()
    sync = win._shared.sync.counters()
    win.free()
    assert got == [list(range(1, PUT_LEN + 1))] * (3 if direct else 2)
    assert list(seg[MULTI_DISP:MULTI_DISP + MULTI_LEN]) == [9] * MULTI_LEN
    return sync


@runtime_param
def test_put_get_exact_rma_counters(factory):
    """``put`` / ``get``'s full counter contract, pinned exactly like the
    RMW core's above: direct and staged puts (one- and two-chunk), gets
    with no ``buf``, a contiguous ``buf`` and ``copy=False``, on a
    ``Win.create`` window and an ``allocate_shared`` one, on every
    backend.  Staged vs zero-copy accounting, mirrors,
    bytes, chunk-lock traffic and the (untouched) storage counters must
    come out the same whatever the access path looks like inside."""
    def main(ctx):
        rt = ctx.runtime
        c = ctx.comm_world
        wins = [(Win.create(c, np.zeros(SEG, dtype=np.int64)),
                 rt.sharing == "shared"),
                (Win.allocate_shared(c, SEG, np.int64), True)]
        return [_run_put_get_mix(ctx, win, direct) for win, direct in wins]

    rt = factory()
    res = rt.run(main)
    process = not rt.shared_node_address_space
    copies = 2 if process else 1
    directs = [rt.sharing == "shared" and not process, True]
    n_wins = len(directs)

    expected = dict.fromkeys(
        ["puts", "gets", "bytes", "staged_copies", "staged_bytes",
         "zero_copy_hits", "zero_copy_bytes", "mirror_bytes",
         "chunk_lock_acquisitions"], 0)
    syncs = []
    for direct in directs:
        gets = 3 if direct else 2
        ops = 2 + gets
        nbytes = PG_PUT_BYTES + gets * PG_GET_BYTES
        acq = PG_PUT_ACQUISITIONS + (0 if direct else
                                     PG_STAGED_GET_ACQUISITIONS)
        # the final read of one's own (two-chunk) segment
        ops_self, bytes_self = 1, SEG * 8
        acq_self = 0 if direct else 2
        expected["puts"] += N * 2
        expected["gets"] += N * (gets + ops_self)
        expected["bytes"] += N * (nbytes + bytes_self)
        if direct:
            expected["zero_copy_hits"] += N * (ops + ops_self)
            expected["zero_copy_bytes"] += N * (nbytes + bytes_self)
        else:
            expected["staged_copies"] += copies * N * (ops + ops_self)
            expected["staged_bytes"] += copies * N * (nbytes + bytes_self)
            if process:
                # one mirror per (origin, target): the ring target, and
                # the origin's own segment for the final read
                expected["mirror_bytes"] += 2 * N * SEG * 8
        expected["chunk_lock_acquisitions"] += N * (acq + acq_self)
        syncs.append((N * (acq + acq_self), 0))
    assert all(s == syncs for s in res)

    total = expected["bytes"]
    assert rt.metrics("rma").snapshot() == {
        "windows": n_wins,
        "ops": expected["puts"] + expected["gets"],
        "puts": expected["puts"],
        "gets": expected["gets"],
        "accumulates": 0,
        "fetch_and_ops": 0,
        "compare_and_swaps": 0,
        "bytes": total,
        "staged_copies": expected["staged_copies"],
        "staged_bytes": expected["staged_bytes"],
        "zero_copy_hits": expected["zero_copy_hits"],
        "zero_copy_bytes": expected["zero_copy_bytes"],
        "zero_copy_fraction": round(expected["zero_copy_bytes"] / total, 3),
        "epoch_waits": 0,
        "fences": n_wins * N * 2,
        "locks": 0,
        "mirror_bytes": expected["mirror_bytes"],
        "chunk_lock_acquisitions": expected["chunk_lock_acquisitions"],
        "chunk_lock_waits": 0,
    }
    storage = rt.metrics("storage").snapshot()
    assert (storage["chunk_reads"], storage["chunk_writes"]) == (0, 0)


@runtime_param
def test_put_get_exact_counters_on_storage_window(factory, tmp_path):
    """The storage-window row of the same mix: every access stages
    through the chunk cache (one staged copy, no mirror, even on the
    process backend), ``copy=False`` is refused, and the chunk locks
    are the segment's own -- per rank, the mix's 1 + 2 + 1 + 1 chunk
    visits, plus 2 for the final read, plus two two-chunk sweeps at
    the closing fence and at free (flush) and one at free (close).
    The closing fence writes both dirty chunks of every segment; no
    chunk is ever read back (nothing spills)."""
    from repro.storage import ChunkStore

    store = ChunkStore.create(tmp_path / "pin.store")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, SEG, np.int64,
                                   store=store, name="pin")
        return _run_put_get_mix(ctx, win, False)

    rt = factory()
    res = rt.run(main)
    assert all(s == (0, 0) for s in res)      # the window-wide table
    nbytes = PG_PUT_BYTES + 2 * PG_GET_BYTES + SEG * 8
    assert rt.metrics("rma").snapshot() == {
        "windows": 1,
        "ops": N * 5,
        "puts": N * 2,
        "gets": N * 3,
        "accumulates": 0,
        "fetch_and_ops": 0,
        "compare_and_swaps": 0,
        "bytes": N * nbytes,
        "staged_copies": N * 5,
        "staged_bytes": N * nbytes,
        "zero_copy_hits": 0,
        "zero_copy_bytes": 0,
        "zero_copy_fraction": 0.0,
        "epoch_waits": 0,
        "fences": N * 2,
        "locks": 0,
        "mirror_bytes": 0,
        "chunk_lock_acquisitions": N * (5 + 2 + 2 + 2 + 2),
        "chunk_lock_waits": 0,
    }
    storage = rt.metrics("storage").snapshot()
    assert (storage["chunk_reads"], storage["chunk_writes"]) == (0, 2 * N)
