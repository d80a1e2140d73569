"""Ablation: HLS vs the related-work alternatives (section VI).

Compares, on the same shared-table workload:

* **HLS** -- two pragmas, exact saving, no runtime overhead;
* **SBLLmalloc page merging** -- zero code change, near-equal saving on
  read-only data, but pays scan cycles, loses merged pages on writes
  (COW faults), and only works at page granularity;
* **MPI-3 shared windows** -- equal saving, but manual: split the node
  communicator, allocate collectively, index into the window.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.baselines import PageMerger
from repro.baselines.sbllmalloc import PAGE
from repro.hls import HLSProgram
from repro.machine import core2_cluster
from repro.runtime import Runtime
from repro.runtime.rma import Win

TABLE_ELEMS = 8 * PAGE // 8       # 8 pages of float64
TASKS = 8


def table_values() -> np.ndarray:
    return np.linspace(0.0, 1.0, TABLE_ELEMS)


def run_hls():
    rt = Runtime(core2_cluster(1), n_tasks=TASKS, timeout=10.0)
    prog = HLSProgram(rt)
    prog.declare("tbl", shape=(TABLE_ELEMS,), scope="node")

    def main(ctx):
        h = prog.attach(ctx)
        if h.single_enter("tbl"):
            h["tbl"][:] = table_values()
            h.single_done("tbl")
        return float(h["tbl"].sum())

    rt.run(main)
    raw = TASKS * TABLE_ELEMS * 8
    resident = prog.storage.hls_images_bytes()
    return {"raw": raw, "resident": resident, "overhead_cycles": 0.0}


def run_sbllmalloc():
    merger = PageMerger()
    arrays = []
    for rank in range(TASKS):
        arr = table_values()
        merger.register(rank, "tbl", arr)
        arrays.append(arr)
    merger.scan()
    # one task updates its copy -> COW faults split pages back out
    merger.write(1, "tbl", 0, np.array([9.0]))
    merger.scan()
    return {
        "raw": merger.raw_bytes(),
        "resident": merger.resident_bytes(),
        "overhead_cycles": merger.stats.overhead_cycles,
        "faults": merger.stats.unmerge_faults,
    }


def run_shared_window():
    rt = Runtime(core2_cluster(1), n_tasks=TASKS, timeout=10.0)

    def main(ctx):
        node_comm = ctx.comm_world.split_by_node()
        # manual recipe: rank 0 contributes the table, others nothing
        count = TABLE_ELEMS if node_comm.rank == 0 else 0
        win = Win.allocate_shared(node_comm, count)
        if node_comm.rank == 0:
            win.local()[:] = table_values()
        win.fence()
        return float(win.shared_query(0).sum())

    rt.run(main)
    raw = TASKS * TABLE_ELEMS * 8
    resident = TABLE_ELEMS * 8
    return {"raw": raw, "resident": resident, "overhead_cycles": 0.0}


@pytest.mark.parametrize(
    "name,runner",
    [("hls", run_hls), ("sbllmalloc", run_sbllmalloc),
     ("mpi3_windows", run_shared_window)],
)
def test_baseline(benchmark, name, runner):
    result = run_once(benchmark, runner)
    saved = result["raw"] - result["resident"]
    benchmark.extra_info["saved_kb"] = saved // 1024
    benchmark.extra_info["overhead_cycles"] = result["overhead_cycles"]
    assert saved > 0


def test_comparison_summary(benchmark):
    def run_all():
        return run_hls(), run_sbllmalloc(), run_shared_window()

    hls, sbll, win = run_once(benchmark, run_all)
    # HLS and windows achieve the exact 8->1 reduction
    assert hls["resident"] == TABLE_ELEMS * 8
    assert win["resident"] == TABLE_ELEMS * 8
    # page merging saves slightly less after the write (COW) and pays
    # scanning overhead
    assert sbll["resident"] > hls["resident"]
    assert sbll["overhead_cycles"] > 0
    assert sbll["faults"] >= 1
    benchmark.extra_info["hls_resident_kb"] = hls["resident"] // 1024
    benchmark.extra_info["sbll_resident_kb"] = sbll["resident"] // 1024
    benchmark.extra_info["sbll_overhead_cycles"] = sbll["overhead_cycles"]
