"""Copying vs zero-copy collectives at 8 / 32 / 128 tasks.

The paper's same-node copy elision (section IV-A) applied to
collectives: with ``sharing="shared"`` a delivery between tasks that
share an address space hands the payload out by reference.  The
``clones`` / ``clones_elided`` counters prove the claim; the timer shows
the wall-clock consequence per ``algorithm=`` default.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_collectives_scaling.py``.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import SUM, Runtime

ITERS = 5
PAYLOAD = 128  # doubles per task


def _allreduce_job(algorithm, sharing, n_tasks):
    """ITERS back-to-back allreduces of a PAYLOAD-double array."""
    machine = core2_cluster(max(1, n_tasks // 8))  # 8 PUs per node
    rt = Runtime(
        machine, n_tasks=n_tasks, algorithm=algorithm, sharing=sharing,
        timeout=120.0,
    )

    def main(ctx):
        x = np.full(PAYLOAD, float(ctx.rank))
        for _ in range(ITERS):
            x = ctx.comm_world.allreduce(x, SUM) / ctx.size
        return float(x[0])

    results = rt.run(main)
    return rt.collective_metrics.snapshot(), results


@pytest.mark.parametrize("n_tasks", [8, 32, 128])
def test_collectives_scaling(benchmark, n_tasks):
    def job():
        flat, flat_res = _allreduce_job("flat", "private", n_tasks)
        hier, hier_res = _allreduce_job("hierarchical", "shared", n_tasks)
        return flat, flat_res, hier, hier_res

    flat, flat_res, hier, hier_res = run_once(benchmark, job)

    # same answer on every rank, whatever the algorithm
    assert hier_res == flat_res

    benchmark.extra_info.update(
        n_tasks=n_tasks,
        flat_clones=flat["clones"],
        hier_clones=hier["clones"],
        hier_clones_elided=hier["clones_elided"],
    )

    # The zero-copy claim: a private allreduce clones every contribution
    # at the fold (n) and every delivery (n - 1); shared elides the
    # deliveries that stay on the fold owner's node (8 PUs per node).
    assert flat["clones"] == ITERS * (2 * n_tasks - 1)
    assert flat["clones_elided"] == 0
    assert hier["clones_elided"] == ITERS * 7
    assert hier["clones"] == flat["clones"] - hier["clones_elided"]


@pytest.mark.parametrize("n_tasks", [32, 128])
@pytest.mark.parametrize("algorithm", ["flat", "hierarchical"])
def test_allreduce_wallclock(benchmark, algorithm, n_tasks):
    """Timer-only companion: one line per (algorithm, n_tasks) cell for
    side-by-side comparison in the pytest-benchmark table."""
    metrics, _ = run_once(
        benchmark, _allreduce_job, algorithm, "private", n_tasks
    )
    benchmark.extra_info.update(
        algorithm=algorithm,
        n_tasks=n_tasks,
        clones=metrics["clones"],
        cells=metrics["icoll_cells"],
    )
