"""Out-of-core storage windows at 0.5x / 2x / 4x the arena capacity.

The tentpole claim of the storage subsystem, made observable: a
fence-synchronised RMA job whose window footprint exceeds the arena
capacity budget completes *bit-for-bit identically* to the unlimited
in-memory run, paying only paging traffic -- and that traffic scales
with the pressure ratio:

* at **0.5x** (footprint half the budget) nothing spills and the
  storage window's only cost is the staging copies;
* at **2x** and **4x** the spill/fault counters grow with the ratio
  while the checksum stays pinned to the in-memory baseline.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_storage_scaling.py``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import Runtime, SUM, Win
from repro.storage import ChunkStore

N_TASKS = 4
COUNT = 2048                 # doubles per rank -> 16 KiB per segment
CHUNK = 256                  # 2 KiB chunks
ROUNDS = 3
WINDOW_BYTES = N_TASKS * COUNT * 8

#: budget = window footprint / ratio
RATIOS = [0.5, 2.0, 4.0]


def _job(ctx, win):
    """Ring put + neighbour accumulate + read-back, fenced rounds."""
    rank, size = ctx.rank, ctx.size
    rng = np.random.default_rng(rank)
    vals = rng.integers(0, 1000, size=COUNT).astype(float)
    win.fence()
    checksum = 0.0
    for _ in range(ROUNDS):
        win.put(vals, (rank + 1) % size)
        win.fence()
        win.accumulate(vals, (rank + 2) % size, op=SUM)
        win.fence()
        checksum += float(np.sum(win.get(rank)))
        win.fence()
    win.fence_end()
    win.free()
    return checksum


def _memory_run():
    rt = Runtime(core2_cluster(1), n_tasks=N_TASKS, timeout=120.0)

    def main(ctx):
        return _job(ctx, Win.allocate(ctx.comm_world, COUNT,
                                      chunk_elems=CHUNK))

    t0 = time.perf_counter()
    results = rt.run(main)
    return results, time.perf_counter() - t0


def _storage_run(tmp_path, ratio):
    rt = Runtime(core2_cluster(1), n_tasks=N_TASKS, timeout=120.0)
    rt.memory.cap_node(0, int(WINDOW_BYTES / ratio))
    store = ChunkStore.create(tmp_path / f"store-{ratio}")

    def main(ctx):
        return _job(ctx, Win.allocate_storage(
            ctx.comm_world, COUNT, store=store, name="bench",
            chunk_elems=CHUNK))

    t0 = time.perf_counter()
    results = rt.run(main)
    elapsed = time.perf_counter() - t0
    return results, elapsed, rt.metrics("storage"), store


@pytest.mark.parametrize("ratio", RATIOS, ids=lambda r: f"{r}x")
def test_storage_pressure_ratio(benchmark, ratio, tmp_path):
    """The 0.5x/2x/4x sweep: bit-equal to in-memory at every ratio,
    spill traffic only above 1x."""
    baseline, mem_s = _memory_run()
    results, elapsed, m, store = run_once(
        benchmark, _storage_run, tmp_path, ratio)

    assert results == baseline, "paging must be semantically invisible"
    if ratio > 1.0:
        assert m.spills > 0, f"{ratio}x over budget must page"
    else:
        assert m.spills == 0, "under-budget run must not page"
    assert store.epoch > 0, "every dirtying fence commits"

    overhead = elapsed / mem_s if mem_s > 0 else float("inf")
    benchmark.extra_info.update({
        "ratio": ratio,
        "spills": m.spills,
        "spill_bytes": m.spill_bytes,
        "faults": m.faults,
        "fault_bytes": m.fault_bytes,
        "chunk_writes": m.chunk_writes,
        "chunk_reads": m.chunk_reads,
        "paging_overhead_vs_memory": round(overhead, 3),
    })


def test_checkpoint_commit_cost(benchmark, tmp_path):
    """Fence-as-checkpoint cost: wall time per committed epoch for the
    4x-pressure job (the durability tax the paper's flexible-sharing
    model buys with the storage tier)."""
    results, elapsed, m, store = run_once(
        benchmark, _storage_run, tmp_path, 4.0)
    per_epoch = elapsed / store.epoch if store.epoch else float("inf")
    benchmark.extra_info.update({
        "epochs": store.epoch,
        "commits": m.commits,
        "s_per_epoch": round(per_epoch, 6),
    })
