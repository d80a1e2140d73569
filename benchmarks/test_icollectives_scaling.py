"""Pipelined vs store-and-forward nonblocking collectives at 8/32/128.

The tentpole claim of the icoll engine (after Zhou et al.,
arXiv:2007.06892): splitting a large payload into chunks lets chunk
*k+1* stream into tree level *L* while chunk *k* drains level *L+1*, so
the makespan approaches ``(depth + chunks - 1)`` chunk-times instead of
store-and-forward's ``depth * payload``-times.  Wall clocks cannot show
this deterministically, so the engine models time instead: every cell
occupies its sending port for ``icoll_link_time_per_mib`` seconds per
MiB moved, the job runs under ``backend="coop"``, and the virtual clock
measures the schedule the dataflow DAG actually admits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_icollectives_scaling.py``.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import SUM, Runtime

#: modeled seconds of link occupancy per MiB moved by one cell
LINK_S_PER_MIB = 1.0
PAYLOAD_BYTES = 1 << 20
CHUNK_BYTES = 64 << 10
ALGOS = (("flat", 0), ("hierarchical", 0), ("pipelined", CHUNK_BYTES))


def _modeled_time(kind, n_tasks, payload_bytes, algorithm, chunk_bytes,
                  compute_s=0.0, compute_when="overlap"):
    """Virtual-clock makespan of one collective on the coop backend.

    ``compute_s`` models per-step application compute on rank 0:
    ``"overlap"`` sleeps between start and wait (the waiting ranks steal
    rank 0's cells meanwhile), ``"before"`` sleeps before depositing
    (the fully serialised baseline).  Returns ``(makespan_s, checksum)``.
    """
    machine = core2_cluster(max(1, n_tasks // 8))
    rt = Runtime(machine, n_tasks=n_tasks, timeout=600.0, backend="coop")
    rt.icoll_link_time_per_mib = LINK_S_PER_MIB
    count = payload_bytes // 8

    def main(ctx):
        c = ctx.comm_world
        data = np.arange(count, dtype=float) * (1.0 + 0.5 * ctx.rank)
        c.barrier()
        t0 = rt.now()
        if ctx.rank == 0 and compute_s and compute_when == "before":
            rt.task_sleep(compute_s)
        if kind == "ibcast":
            req = c.ibcast(data if ctx.rank == 0 else None, root=0,
                           algorithm=algorithm, chunk_bytes=chunk_bytes)
        elif kind == "iallreduce":
            req = c.iallreduce(data, SUM, algorithm=algorithm,
                               chunk_bytes=chunk_bytes)
        else:
            raise ValueError(kind)
        if ctx.rank == 0 and compute_s and compute_when == "overlap":
            rt.task_sleep(compute_s)
        out = req.wait()
        elapsed = rt.now() - t0
        return elapsed, float(np.sum(out))

    res = rt.run(main)
    makespan = max(e for e, _ in res)
    checksums = {c for _, c in res}
    assert len(checksums) == 1, "ranks disagree on the collective result"
    return makespan, checksums.pop()


@pytest.mark.parametrize("n_tasks", [8, 32, 128])
def test_pipelined_vs_store_and_forward(benchmark, n_tasks):
    """The headline rows: 1 MiB bcast + allreduce, all three algorithms.

    Acceptance: at 32+ tasks the pipelined schedule beats both
    store-and-forward variants on the same modeled network.
    """
    def job():
        rows = {}
        for op in ("ibcast", "iallreduce"):
            for algo, chunk in ALGOS:
                t, checksum = _modeled_time(
                    op, n_tasks, PAYLOAD_BYTES, algo, chunk
                )
                rows[(op, algo)] = (t, chunk, checksum)
        return rows

    rows = run_once(benchmark, job)

    benchmark.extra_info.update(
        n_tasks=n_tasks, payload_bytes=PAYLOAD_BYTES,
        modeled_time_s={f"{op}/{algo}": t
                        for (op, algo), (t, _, _) in rows.items()},
    )

    # bit-identical results whatever the schedule
    for op in ("ibcast", "iallreduce"):
        assert len({rows[(op, a)][2] for a, _ in ALGOS}) == 1, op

    if n_tasks >= 32:
        for op in ("ibcast", "iallreduce"):
            pipe = rows[(op, "pipelined")][0]
            assert pipe < rows[(op, "hierarchical")][0], (op, rows)
            assert pipe < rows[(op, "flat")][0], (op, rows)


def test_overlap_beats_serialised_compute(benchmark):
    """The nonblocking win itself: rank 0 owes ``compute_s`` of modeled
    application work per step.  Started *then* computed, the waiting
    ranks steal rank 0's cells and the makespan approaches
    ``max(compute, collective)``; computed *then* started, it is the
    full ``compute + collective`` sum."""
    n_tasks = 32

    def job():
        base, _ = _modeled_time("ibcast", n_tasks, PAYLOAD_BYTES,
                                "pipelined", CHUNK_BYTES)
        compute_s = base  # perfectly overlappable amount
        overlapped, _ = _modeled_time(
            "ibcast", n_tasks, PAYLOAD_BYTES, "pipelined", CHUNK_BYTES,
            compute_s=compute_s, compute_when="overlap",
        )
        serialised, _ = _modeled_time(
            "ibcast", n_tasks, PAYLOAD_BYTES, "pipelined", CHUNK_BYTES,
            compute_s=compute_s, compute_when="before",
        )
        return base, compute_s, overlapped, serialised

    base, compute_s, overlapped, serialised = run_once(benchmark, job)
    benchmark.extra_info.update(
        collective_s=base, compute_s=compute_s,
        overlapped_s=overlapped, serialised_s=serialised,
    )
    # the overlap must recover a real fraction of the compute time
    assert overlapped < serialised - 0.5 * compute_s, (
        base, compute_s, overlapped, serialised,
    )
