"""The storage window's data path: every byte moves once per hop.

What is pinned here (DESIGN.md section 15, "data path"): a chunk is read
from the page cache straight into its own buffer and checksummed there;
``Win.get`` copies resident chunk slices straight into the caller's
buffer; accumulate / fetch_and_op / compare_and_swap run in place on the
resident chunk slice under the chunk lock; and a failed write-back never
drops data.
"""

import errno
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from repro.machine import core2_cluster, small_test_machine
from repro.runtime import Runtime, SUM, Win
from repro.storage import ChunkedArray, ChunkStore, StorageError

TIMEOUT = 20.0


# ------------------------------------------------- failed write-back (bugfix)
def fail_once(monkeypatch, store):
    """Make the store's next ``write_chunk`` raise ENOSPC, once."""
    real, calls = store.write_chunk, []

    def write_chunk(*args, **kw):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, **kw)

    monkeypatch.setattr(store, "write_chunk", write_chunk)


def test_failed_spill_write_back_keeps_the_chunk(tmp_path, monkeypatch):
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path).bind(rt)
    arena, spill = rt.memory.node_arena(0), rt.storage_spill
    arr = ChunkedArray(store, "a", 4, np.float64, 4,
                       arena=arena, spill=spill, owner=0)
    arr[0:4] = np.arange(4.0)                 # one dirty resident chunk
    resident, live = spill.counters()["resident_bytes"], arena.live_bytes
    assert resident == 32

    fail_once(monkeypatch, store)
    with pytest.raises(OSError, match="No space left"):
        spill.reclaim(arena, 32)
    assert arr.resident_chunks() == [0]
    np.testing.assert_array_equal(arr[0:4], np.arange(4.0))
    assert spill.counters()["resident_bytes"] == resident
    assert spill.counters()["spills"] == 0
    assert arena.live_bytes == live           # the charge did not leak

    assert spill.reclaim(arena, 32) == 32     # the retry evicts cleanly
    assert arr.resident_chunks() == []
    assert spill.counters()["resident_bytes"] == 0
    assert arena.live_bytes == live - 32
    np.testing.assert_array_equal(arr[0:4], np.arange(4.0))   # faulted back
    arr.close()
    rt.finalize()


def test_failed_evict_leaves_the_chunk_dirty(tmp_path, monkeypatch):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 4, np.float64, 2)
    arr[0:2] = [5.0, 6.0]
    fail_once(monkeypatch, store)
    with arr.sync.span([0]):
        with pytest.raises(OSError):
            arr.evict_locked(0)
        assert arr.resident_chunks() == [0]
        assert arr.evict_locked(0) == 16      # still dirty: written this time
    assert store.has_chunk("a", 0)
    np.testing.assert_array_equal(arr[0:2], [5.0, 6.0])


def test_reclaim_sees_chunks_that_became_resident_during_its_walk(
        tmp_path, monkeypatch):
    """Under threads the resident set turns over while one task walks
    it: a reclaim must not report a full arena because the chunks it
    saw when it started are pinned or gone."""
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path).bind(rt)
    arena, spill = rt.memory.node_arena(0), rt.storage_spill
    arr = ChunkedArray(store, "a", 4, np.float64, 2,
                       arena=arena, spill=spill, owner=0)
    arr[0:2] = 1.0
    real = arr.sync.try_acquire

    def try_acquire(idx):
        if idx == 0 and arr.resident_chunks() == [0]:
            arr[2:4] = 2.0          # another task's access lands mid-walk
            return False            # ... and chunk 0 is pinned
        return real(idx)

    monkeypatch.setattr(arr.sync, "try_acquire", try_acquire)
    assert spill.reclaim(arena, 16) == 16
    assert arr.resident_chunks() == [0]
    assert spill.spill_log == [("a", 1)]
    arr.close()
    rt.finalize()


# ------------------------------------------------------------ corrupt chunks
def committed_chunk(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 4, np.float64, 4)
    store.write_chunk("a", 0, np.arange(4.0))
    store.commit()
    return store, os.path.join(str(tmp_path), "arrays", "a", "c0.e1")


def damage(path, how):
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write({
            "truncated": raw[:-1],
            "extended": raw + b"\0",
            "flipped": raw[:5] + bytes([raw[5] ^ 0x10]) + raw[6:],
        }[how])


@pytest.mark.parametrize("how", ["truncated", "extended", "flipped"])
def test_damaged_chunk_file_is_a_checksum_mismatch(tmp_path, how):
    store, path = committed_chunk(tmp_path)
    damage(path, how)
    for s in (store, ChunkStore.open(tmp_path)):
        with pytest.raises(StorageError, match="checksum mismatch"):
            s.read_chunk("a", 0)
        assert s.counters()["chunk_reads"] == 0
        assert s.counters()["read_bytes"] == 0


def test_missing_chunk_file_is_reported_as_missing(tmp_path):
    store, path = committed_chunk(tmp_path)
    os.unlink(path)
    with pytest.raises(StorageError, match="chunk file missing"):
        store.read_chunk("a", 0)


@pytest.mark.parametrize("how", [None, "truncated", "extended"])
def test_manifest_entries_without_nbytes_still_read(tmp_path, how):
    """A hand-edited (or older) manifest whose chunk entries carry no
    ``nbytes``: the file's own size is used, and the CRC still catches a
    file of the wrong size."""
    store, path = committed_chunk(tmp_path)
    manifest = json.loads(open(store.manifest_path).read())
    for entry in manifest["arrays"]["a"]["chunks"].values():
        del entry["nbytes"]
    with open(store.manifest_path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
    reopened = ChunkStore.open(tmp_path)
    if how is None:
        np.testing.assert_array_equal(reopened.read_chunk("a", 0), np.arange(4.0))
        assert reopened.counters()["read_bytes"] == 32
    else:
        damage(path, how)
        with pytest.raises(StorageError, match="checksum mismatch"):
            reopened.read_chunk("a", 0)


def test_zero_length_array_and_empty_tail_chunk_round_trip(tmp_path):
    store = ChunkStore.create(tmp_path)
    empty = ChunkedArray(store, "empty", 0, np.float64, 4)
    assert empty.n_chunks == 0
    empty[0:0] = []
    assert np.asarray(empty).shape == (0,)
    assert empty.flush() == 0

    store.ensure_array("t", 4, np.int32, 4)
    store.write_chunk("t", 0, np.arange(4))
    store.write_chunk("t", 1, np.empty(0))        # a tail chunk of no elements
    store.commit()
    reopened = ChunkStore.open(tmp_path)
    tail = reopened.read_chunk("t", 1)
    assert tail.shape == (0,) and tail.dtype == np.int32
    np.testing.assert_array_equal(reopened.read_chunk("t", 0), np.arange(4))
    assert reopened.counters()["read_bytes"] == 16


def test_read_chunk_returns_a_private_writable_array(tmp_path):
    """The chunk buffer is the array the file was read into: writable,
    owned, and independent of a second read of the same chunk."""
    store, _ = committed_chunk(tmp_path)
    first, second = store.read_chunk("a", 0), store.read_chunk("a", 0)
    assert first.flags.writeable and first.flags.c_contiguous
    first[0] = 99.0
    assert second[0] == 0.0


def test_write_chunk_accepts_non_contiguous_and_foreign_dtype(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 8, np.float64, 4)
    store.write_chunk("a", 0, np.arange(8)[::2])          # strided ints
    store.write_chunk("a", 1, np.arange(4.0).reshape(2, 2))
    store.commit()
    np.testing.assert_array_equal(store.read_chunk("a", 0), [0.0, 2.0, 4.0, 6.0])
    np.testing.assert_array_equal(store.read_chunk("a", 1), np.arange(4.0))
    assert store.counters()["written_bytes"] == 64


# ---------------------------------------------------- the locked access API
def test_read_locked_fills_out_and_apply_locked_is_in_place(tmp_path):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 10, np.float64, 4)
    arr[0:10] = np.arange(10.0)
    arr.flush()
    out = np.full(7, -1.0)
    seen = []

    def double(region, pos):
        seen.append((pos, region.size))
        region *= 2.0

    with arr.sync.span(arr.chunk_range(2, 7)):
        assert arr.read_locked(2, 7, out=out) is out
        np.testing.assert_array_equal(out, np.arange(2.0, 9.0))
        arr.apply_locked(2, 7, double)
    assert seen == [(0, 2), (2, 4), (6, 1)]               # one call per chunk
    np.testing.assert_array_equal(
        np.asarray(arr), [0, 1, 4, 6, 8, 10, 12, 14, 16, 9])
    assert arr.flush() == 3                               # all three dirtied


# ------------------------------------------------------- single-copy contract
CHUNK = 1 << 14                 # 128 KiB of doubles
SEG = 4 * CHUNK


def one_task(tmp_path, body):
    """Run ``body(win)`` on one task inside a fence epoch of a resident
    4-chunk storage window holding ``arange(SEG)``."""
    rt = Runtime(small_test_machine(), n_tasks=1, timeout=TIMEOUT)
    store = ChunkStore.create(tmp_path / "store")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, SEG, store=store,
                                   name="w", chunk_elems=CHUNK)
        win.fence()
        win.put(np.arange(SEG, dtype=float), 0)
        win.fence()
        out = body(win)
        win.fence_end()
        win.free()
        return out

    result = rt.run(main)[0]
    assert rt.finalize().by_kind().get("storage", 0) == 0
    return result


def new_memory_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_get_into_buf_returns_buf_and_allocates_less_than_a_chunk(tmp_path):
    def body(win):
        seg = np.empty(SEG)
        got = []
        peak = new_memory_peak(lambda: got.append(win.get(0, buf=seg)))
        return got[0] is seg, peak, seg

    same, peak, seg = one_task(tmp_path, body)
    assert same
    np.testing.assert_array_equal(seg, np.arange(SEG, dtype=float))
    assert peak < CHUNK * 8, f"get(buf=) allocated {peak} B"


def test_get_without_buf_allocates_only_the_result(tmp_path):
    def body(win):
        got = []
        peak = new_memory_peak(lambda: got.append(win.get(0, SEG - 3, 3)))
        return peak, got[0]

    peak, out = one_task(tmp_path, body)
    np.testing.assert_array_equal(out, np.arange(3, SEG, dtype=float))
    assert peak < (SEG + CHUNK) * 8, f"get() allocated {peak} B"


def test_resident_accumulate_allocates_less_than_two_chunks(tmp_path):
    def body(win):
        ones = np.ones(SEG)
        peak = new_memory_peak(lambda: win.accumulate(ones, 0, SUM))
        win.fence()
        return peak, win.get(0)

    peak, out = one_task(tmp_path, body)
    np.testing.assert_array_equal(out, np.arange(SEG, dtype=float) + 1)
    assert peak < 2 * CHUNK * 8, f"accumulate allocated {peak} B"


def test_get_into_awkward_buffers_still_gets_the_values(tmp_path):
    def body(win):
        strided = np.zeros(2 * SEG)[::2]
        narrow = np.zeros(SEG, dtype=np.float32)
        square = np.zeros((CHUNK, 4)).T               # 2-D and strided
        outs = [win.get(0, buf=b) for b in (strided, narrow, square)]
        assert all(o is b for o, b in zip(outs, (strided, narrow, square)))
        with pytest.raises(ValueError):
            win.get(0, buf=np.zeros(SEG - 1))             # wrong size
        with pytest.raises(TypeError):
            win.get(0, buf=np.zeros(SEG, dtype=np.int64))  # no safe cast
        return strided, narrow, square

    strided, narrow, square = one_task(tmp_path, body)
    expect = np.arange(SEG, dtype=float)
    np.testing.assert_array_equal(strided, expect)
    np.testing.assert_array_equal(narrow, expect.astype(np.float32))
    np.testing.assert_array_equal(square.reshape(-1), expect)


# ------------------------------------------ in-place RMW under contention
N = 8
REPS = 20
RMW_CHUNK = 8
RMW_COUNT = 64 * RMW_CHUNK      # 64 chunks in the segment everyone hits

RMW_RUNTIMES = {
    "thread": lambda: Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT),
    **{
        f"coop-{seed}": lambda seed=seed: Runtime(
            core2_cluster(1), n_tasks=N, timeout=TIMEOUT, backend="coop",
            schedule=f"random:{seed}")
        for seed in (3, 11, 29)
    },
}


@pytest.mark.parametrize("factory", RMW_RUNTIMES.values(), ids=RMW_RUNTIMES.keys())
def test_concurrent_accumulates_into_one_spilling_region(factory, tmp_path):
    """Every origin accumulates into the *same* multi-chunk region while
    its chunks spill (4x over the residency cap), and bumps one shared
    counter: no increment is lost, no old value is seen twice."""
    rt = factory()
    # rank 0's segment plus the counter's chunk are touched: 65 chunks of
    # 64 B against room for 16 -- two per task, so a reclaim always finds
    # a chunk no task has pinned
    rt.memory.cap_node(0, RMW_COUNT * 8 // 4)
    store = ChunkStore.create(tmp_path / "store")

    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, RMW_COUNT, store=store,
                                   name="w", chunk_elems=RMW_CHUNK)
        ones = np.ones(RMW_COUNT)
        olds = []
        win.fence()
        for _ in range(REPS):
            win.accumulate(ones, 0, SUM)
            olds.append(float(win.fetch_and_op(1.0, 1, SUM, target_disp=3)))
        win.fence()
        total = win.get(0)
        counter = float(win.get(1, 1, 3)[0])
        win.fence_end()
        win.free()
        return olds, total, counter

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)       # switch threads mid-RMW, not between
    try:
        results = rt.run(main)
    finally:
        sys.setswitchinterval(interval)
    for _, total, counter in results:
        np.testing.assert_array_equal(total, np.full(RMW_COUNT, float(N * REPS)))
        assert counter == N * REPS
    olds = sorted(old for task_olds, _, _ in results for old in task_olds)
    assert olds == [float(i) for i in range(N * REPS)]
    assert rt.metrics("storage").spills > 0, "the cap was meant to force paging"
    assert rt.finalize().by_kind().get("storage", 0) == 0
