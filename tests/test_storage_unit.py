"""Unit coverage of the repro.storage layer: chunk store layout and
manifest commits, chunked-array access/flush/eviction, the per-chunk
synchronizer's wait accounting, arena capacity + spill retry, and the
storage metrics snapshot."""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.machine import small_test_machine
from repro.memsim.address_space import AddressSpace, AddressSpaceExhausted
from repro.runtime import Runtime, Win
from repro.storage import (
    ChunkedArray,
    ChunkStore,
    ChunkSynchronizer,
    SpillManager,
    StorageError,
)


# ------------------------------------------------------------- chunk store
def test_create_open_roundtrip(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 10, np.float64, 4)
    store.write_chunk("a", 0, np.arange(4.0))
    store.write_chunk("a", 2, np.array([8.0, 9.0]))
    assert store.epoch == 0          # pending only, nothing durable yet
    assert store.commit() == 1
    reopened = ChunkStore.open(tmp_path)
    assert reopened.epoch == 1
    assert reopened.array_names() == ["a"]
    np.testing.assert_array_equal(reopened.read_chunk("a", 0), np.arange(4.0))
    np.testing.assert_array_equal(reopened.read_chunk("a", 2), [8.0, 9.0])
    assert not reopened.has_chunk("a", 1)


def test_manifest_is_canonical_and_atomic(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 4, np.int64, 2)
    store.write_chunk("a", 0, np.array([1, 2]))
    store.commit()
    text = open(store.manifest_path).read().strip()
    assert text == store.manifest_json()
    # canonical: stable under a json round-trip with sorted keys
    assert text == json.dumps(
        json.loads(text), sort_keys=True, separators=(",", ":")
    )
    assert not os.path.exists(store.manifest_path + ".tmp")


def test_pending_version_preferred_then_committed(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([1.0, 1.0]))
    store.commit()
    store.write_chunk("a", 0, np.array([2.0, 2.0]))      # pending epoch 2
    np.testing.assert_array_equal(store.read_chunk("a", 0), [2.0, 2.0])
    # a crash before commit: reopening sees only the committed version
    reopened = ChunkStore.open(tmp_path)
    np.testing.assert_array_equal(reopened.read_chunk("a", 0), [1.0, 1.0])


def test_open_gcs_orphan_chunk_files(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([1.0, 1.0]))
    store.commit()
    store.write_chunk("a", 0, np.array([2.0, 2.0]))      # uncommitted .e2
    adir = os.path.join(str(tmp_path), "arrays", "a")
    assert sorted(os.listdir(adir)) == ["c0.e1", "c0.e2"]
    ChunkStore.open(tmp_path)
    assert os.listdir(adir) == ["c0.e1"]                 # orphan collected


def test_open_gcs_stale_manifest_temp_file(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([1.0, 1.0]))
    store.commit()
    committed = open(store.manifest_path).read()
    tmp = store.manifest_path + ".tmp"
    with open(tmp, "w") as fh:            # a crash inside the manifest write
        fh.write('{"version":1,"epoch":2,"arr')
    reopened = ChunkStore.open(tmp_path)
    assert not os.path.exists(tmp)
    assert reopened.epoch == 1            # the committed manifest is trusted
    assert open(store.manifest_path).read() == committed


def test_commit_gcs_superseded_versions(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([1.0, 1.0]))
    store.commit()
    store.write_chunk("a", 0, np.array([2.0, 2.0]))
    store.commit()
    adir = os.path.join(str(tmp_path), "arrays", "a")
    assert os.listdir(adir) == ["c0.e2"]


def test_checksum_validation(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([1.0, 2.0]))
    store.commit()
    path = os.path.join(str(tmp_path), "arrays", "a", "c0.e1")
    with open(path, "r+b") as fh:
        fh.write(b"\xff")
    with pytest.raises(StorageError, match="checksum"):
        ChunkStore.open(tmp_path).read_chunk("a", 0)


def test_array_metadata_validated_on_reopen(tmp_path):
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 10, np.float64, 4)
    reopened = ChunkStore.open(tmp_path)
    with pytest.raises(StorageError, match="incompatible"):
        reopened.ensure_array("a", 10, np.float64, 8)
    with pytest.raises(StorageError, match="incompatible"):
        reopened.ensure_array("a", 12, np.float64, 4)
    assert not reopened.ensure_array("a", 10, np.float64, 4)  # match: no-op


def test_bad_names_and_missing_store_rejected(tmp_path):
    store = ChunkStore.create(tmp_path / "s")
    for bad in ("", "a/b", "../x", ".hidden"):
        with pytest.raises(StorageError):
            store.ensure_array(bad, 4, np.float64, 2)
    with pytest.raises(StorageError, match="missing"):
        ChunkStore.open(tmp_path / "nothing")
    with pytest.raises(StorageError, match="exists"):
        ChunkStore.create(tmp_path / "s")


# ----------------------------------------------------------- chunked array
def test_chunked_array_read_write_across_boundaries(tmp_path):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 10, np.float64, 3)
    assert arr.n_chunks == 4
    arr[2:9] = np.arange(7.0)            # spans chunks 0..2
    np.testing.assert_array_equal(
        np.asarray(arr), [0, 0, 0, 1, 2, 3, 4, 5, 6, 0]
    )
    assert arr[8] == 6.0
    assert list(arr.chunk_range(2, 7)) == [0, 1, 2]
    assert list(arr.chunk_range(9, 1)) == [3]
    assert list(arr.chunk_range(0, 0)) == []


def test_chunked_array_flush_then_restore(tmp_path):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 6, np.float64, 2)
    arr[0:6] = np.arange(6.0)
    assert arr.flush() == 3
    store.commit()
    arr.close()
    arr2 = ChunkedArray(ChunkStore.open(tmp_path), "a", 6, np.float64, 2)
    np.testing.assert_array_equal(np.asarray(arr2), np.arange(6.0))


def test_flush_skips_clean_chunks(tmp_path):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 4, np.float64, 2)
    arr[0:4] = 1.0
    assert arr.flush() == 2
    assert arr.flush() == 0              # nothing re-dirtied


def test_evict_locked_writes_back_dirty_data(tmp_path):
    store = ChunkStore.create(tmp_path)
    arr = ChunkedArray(store, "a", 4, np.float64, 2)
    arr[0:2] = [5.0, 6.0]
    with arr.sync.span([0]):
        freed = arr.evict_locked(0)
    assert freed == 16
    assert arr.resident_chunks() == []
    np.testing.assert_array_equal(arr[0:2], [5.0, 6.0])   # faulted back


# ------------------------------------------------------------ synchronizer
def test_synchronizer_span_sorted_and_counted():
    sync = ChunkSynchronizer()
    with sync.span([3, 1, 2, 1]):
        assert not sync.lock_for(1).acquire(False)
        assert not sync.lock_for(3).acquire(False)
    acq, waits = sync.counters()
    assert acq == 3 and waits == 0       # deduplicated, uncontended
    assert sync.lock_for(1).acquire(False)
    sync.lock_for(1).release()


def test_synchronizer_counts_contended_waits():
    sync = ChunkSynchronizer()
    sync.acquire("k")
    t = threading.Thread(target=lambda: (sync.acquire("k"), sync.release("k")))
    t.start()
    # the wait is registered *before* the blocking acquire parks
    while sync.counters()[1] == 0:
        time.sleep(0.001)
    sync.release("k")
    t.join()
    assert sync.counters() == (2, 1)


def test_try_acquire_skips_held_locks():
    sync = ChunkSynchronizer()
    sync.acquire("k")
    assert not sync.try_acquire("k")
    sync.release("k")
    assert sync.try_acquire("k")
    sync.release("k")
    assert sync.counters()[1] == 0        # try_acquire never counts waits


# ------------------------------------------------- capacity + spill policy
def test_address_space_capacity_distinct_from_limit():
    space = AddressSpace(base=1 << 32, name="t", limit=(1 << 32) + 10**6,
                         capacity=1000)
    a = space.alloc(800)
    with pytest.raises(AddressSpaceExhausted) as ei:
        space.alloc(400)
    assert ei.value.reason == "capacity"
    space.free(a)
    b = space.alloc(900)                  # freeing relieves capacity...
    space.free(b)
    with pytest.raises(ValueError):
        space.set_capacity(-1)            # below live bytes? here below 0
    space.set_capacity(None)
    space.alloc(10**5)                    # ...and None unbounds it


def test_limit_exhaustion_reason_is_limit():
    space = AddressSpace(base=1 << 32, name="t", limit=(1 << 32) + 1024)
    with pytest.raises(AddressSpaceExhausted) as ei:
        space.alloc(4096)
    assert ei.value.reason == "limit"


def test_arena_spill_retry_reclaims_capacity(tmp_path):
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path).bind(rt)
    arena = rt.memory.cap_node(0, 2048)
    arr = ChunkedArray(store, "a", 512, np.float64, 128,
                       arena=arena, spill=rt.storage_spill, owner=0)
    arr[0:512] = np.arange(512.0)         # 4 KiB of chunks vs a 2 KiB cap
    assert rt.storage_spill.spills >= 2
    np.testing.assert_array_equal(np.asarray(arr)[:5], np.arange(5.0))
    arr.close()
    assert rt.storage_spill.resident_chunk_count() == 0
    rt.finalize()


def test_spill_does_not_rescue_limit_exhaustion():
    rt = Runtime(small_test_machine(), n_tasks=2)
    arena = rt.memory.node_arena(0)
    limit_left = arena.limit - (arena.base + arena.live_bytes)
    with pytest.raises(AddressSpaceExhausted) as ei:
        arena.alloc(limit_left + (1 << 20))
    assert ei.value.reason == "limit"
    rt.finalize()


# ------------------------------------------------------------------ wiring
def test_storage_metrics_snapshot(tmp_path):
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path).bind(rt)
    store.bind(rt)                        # idempotent
    assert rt.stores() == [store]

    def main(ctx):
        win = Win.allocate_storage(
            ctx.comm_world, 8, store=store, name="w", chunk_elems=4
        )
        win.fence()
        win.put(np.ones(8), ctx.rank)
        win.fence_end()
        win.free()

    rt.run(main)
    m = rt.metrics("storage")
    assert m.stores == 1
    assert m.chunk_writes >= 4
    assert m.commits >= 1
    assert m.committed_epochs == store.epoch
    snap = m.snapshot()
    assert snap["written_bytes"] > 0
    assert "resident_chunks" in snap
    assert "storage metrics" in m.render()
    rt.finalize()


def test_restore_storage_binds_and_opens(tmp_path):
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path)
    store.ensure_array("a", 2, np.float64, 2)
    store.write_chunk("a", 0, np.array([7.0, 8.0]))
    store.commit()
    reopened = rt.restore_storage(tmp_path)
    assert reopened.epoch == 1
    assert reopened in rt.stores()
    np.testing.assert_array_equal(reopened.read_chunk("a", 0), [7.0, 8.0])
    rt.finalize()


def test_leak_report_counts_resident_storage_chunks(tmp_path):
    rt = Runtime(small_test_machine(), n_tasks=2)
    store = ChunkStore.create(tmp_path).bind(rt)
    arr = ChunkedArray(store, "a", 4, np.float64, 2,
                       arena=rt.memory.node_arena(0),
                       spill=rt.storage_spill, owner=0)
    arr[0:4] = 1.0                        # two resident chunks, unclosed
    report = rt.finalize()
    assert report.by_kind().get("storage", 0) == 32
    arr.close()
    assert rt.memory.leak_report().by_kind().get("storage", 0) == 0
