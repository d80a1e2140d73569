"""Cooperative scheduler at scale: 1k and 4k MPI tasks.

What the coop backend buys, made observable:

* **Task-count scaling** -- parked carriers cost nothing at runtime
  (one runner token, no GIL fights), so 1024- and 4096-task jobs run
  the full P2P + collective surface in seconds.  The smoke runs assert
  correctness at scale and record the scheduler counters.
* **Virtual time** -- simulated compute/latency (``ctx.sleep``) costs
  no wall clock under coop.  The acceptance benchmark is a sequential
  token pipeline with 10 ms of simulated per-hop latency: its wall
  clock under ``threads`` has a hard floor of ``n_tasks * hop`` (real
  sleeps on a real dependency chain, ~41 s at 4096 tasks), so the
  threads backend *cannot* complete inside the budget on any hardware,
  while the coop backend retires the identical job in scheduler time.
"""

import threading
import time

import pytest

from benchmarks.conftest import run_once
from repro.machine import core2_cluster
from repro.runtime import Runtime

#: simulated per-hop latency of the pipeline (virtual seconds)
HOP_S = 0.01
#: wall-clock budget the 4096-task pipeline must fit in; the threads
#: floor (4096 * HOP_S ~= 41 s of *sequential* real sleeps) cannot
BUDGET_S = 20.0


def _machine(n_tasks):
    return core2_cluster(max(1, n_tasks // 8))   # 8 PUs per node


def _smoke_job(n_tasks, schedule=None):
    """Ring shift + barriers + one allreduce: the P2P scaling pattern
    with a collective mixed in, at task counts the seed runtime's
    thread-per-task spawn loop never reached."""
    rt = Runtime(_machine(n_tasks), n_tasks=n_tasks, backend="coop",
                 schedule=schedule, timeout=300.0)

    def main(ctx):
        c = ctx.comm_world
        acc = ctx.rank
        for rnd in range(2):
            req = c.irecv(source=(ctx.rank - 1) % ctx.size, tag=rnd)
            c.send(acc, (ctx.rank + 1) % ctx.size, rnd)
            acc = req.wait()
            c.barrier()
        return (acc, c.allreduce(1))

    t0 = time.perf_counter()
    results = rt.run(main)
    elapsed = time.perf_counter() - t0
    return rt, results, elapsed


@pytest.mark.parametrize("n_tasks", [1024, 4096])
def test_coop_smoke_at_scale(benchmark, n_tasks):
    """1k / 4k tasks through P2P + collectives under the coop backend:
    correct values, sane scheduler counters."""
    rt, results, elapsed = run_once(benchmark, _smoke_job, n_tasks)

    # two ring shifts move each rank's token two steps
    assert all(
        results[r] == ((r - 2) % n_tasks, n_tasks) for r in range(n_tasks)
    )
    m = rt.metrics("sched")
    assert m.backend == "coop" and m.n_tasks == n_tasks
    assert m.context_switches >= n_tasks
    assert m.stall_recoveries == 0
    info = dict(
        elapsed_s=round(elapsed, 3),
        switches_per_s=round(m.context_switches / elapsed, 1),
        **m.snapshot(),
    )
    benchmark.extra_info.update(info)


def _pipeline_worker(hop_s):
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            ctx.sleep(hop_s)
            c.send(1, dest=1 % ctx.size)
            hops = c.recv(source=ctx.size - 1)
            return hops
        hops = c.recv(source=ctx.rank - 1)
        ctx.sleep(hop_s)
        c.send(hops + 1, dest=(ctx.rank + 1) % ctx.size)
        return hops
    return main


def test_coop_completes_the_pipeline_threads_cannot(benchmark):
    """The acceptance run: a 4096-hop sequential pipeline with HOP_S of
    simulated latency per hop.  The coop backend must finish inside
    BUDGET_S of wall clock (sleeps are virtual); the threads backend is
    given the same budget and must miss it -- its sleeps are real and
    strictly sequential, so its wall clock cannot beat n_tasks * HOP_S
    ~= 41 s regardless of core count."""
    n_tasks = 4096
    floor_s = n_tasks * HOP_S
    assert floor_s > BUDGET_S * 1.5, "budget must sit well under the floor"

    def coop_job():
        rt = Runtime(_machine(n_tasks), n_tasks=n_tasks, backend="coop",
                     timeout=2 * floor_s)
        t0 = time.perf_counter()
        results = rt.run(_pipeline_worker(HOP_S))
        return rt, results, time.perf_counter() - t0

    rt, results, coop_wall = run_once(benchmark, coop_job)
    assert results[0] == n_tasks, "token did not complete the ring"
    assert coop_wall < BUDGET_S, (
        f"coop pipeline took {coop_wall:.1f}s, budget {BUDGET_S}s"
    )
    # the simulated latency showed up on the virtual clock instead
    m = rt.metrics("sched")
    assert m.vtime >= floor_s

    # -- the threads attempt, same job, same budget, external watchdog
    rt2 = Runtime(_machine(n_tasks), n_tasks=n_tasks, timeout=2 * floor_s)
    done = threading.Event()

    def attempt():
        try:
            rt2.run(_pipeline_worker(HOP_S))
        except BaseException:
            pass                    # watchdog abort lands as AbortError
        finally:
            done.set()

    t0 = time.perf_counter()
    carrier = threading.Thread(target=attempt, daemon=True)
    carrier.start()
    finished = done.wait(timeout=min(BUDGET_S, 6.0))
    threads_wall = time.perf_counter() - t0
    if not finished:
        rt2.signal_abort()          # bring the 4096 threads down cleanly
        done.wait(timeout=120.0)
    carrier.join(timeout=120.0)
    assert not carrier.is_alive(), "threads job did not shut down"
    assert not finished, (
        f"threads backend beat its {floor_s:.0f}s sequential-sleep floor"
    )

    info = dict(
        n_tasks=n_tasks,
        hop_s=HOP_S,
        budget_s=BUDGET_S,
        simulated_latency_s=round(floor_s, 2),
        coop_wall_s=round(coop_wall, 3),
        coop_vtime_s=round(m.vtime, 3),
        threads_completed_in_budget=finished,
        threads_wall_s=round(threads_wall, 3),
    )
    benchmark.extra_info.update(info)


def test_seeded_schedules_scale(benchmark):
    """Schedule exploration stays usable at 1k tasks: a seeded random
    schedule over the smoke job completes and records a replayable
    trace of every decision."""
    rt, results, elapsed = run_once(
        benchmark, _smoke_job, 1024, "random:1"
    )
    assert all(r == ((i - 2) % 1024, 1024) for i, r in enumerate(results))
    trace = rt.schedule_trace()
    assert trace.policy == "random" and len(trace) > 0
    info = dict(
        n_tasks=1024,
        elapsed_s=round(elapsed, 3),
        decisions=len(trace),
        preemptions=rt.metrics("sched").preemptions,
    )
    benchmark.extra_info.update(info)
