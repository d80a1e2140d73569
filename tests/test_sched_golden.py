"""Golden schedule traces: the coop scheduler's decision sequence, pinned.

``tests/data/sched_golden/`` holds the canonical-JSON
:class:`ScheduleTrace` of four small workloads under three policies,
plus the scheduler counters of the same runs, recorded *before* the
runner-token handoff moved from the launcher thread into the carriers.
Any change to the scheduler's hot path must reproduce them byte for
byte: the order of policy decisions, where the virtual clock jumps and
which parks end by notify vs. timer are the determinism contract every
recorded trace, replay and coop result digest rests on.

Re-record (only when a change *means* to alter the schedule) with
``PYTHONPATH=src python tests/test_sched_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import Runtime
from repro.scheduler import dynamic_for
from repro.service.apps import DEFAULT_APPS

GOLDEN = Path(__file__).parent / "data" / "sched_golden"
N_TASKS = 16
SCHEDULES = ["fifo", "random:1", "random:7"]
COUNTERS = ["decisions", "context_switches", "parks", "notify_wakes",
            "timer_wakes", "preemptions"]


def _skewed_loop(rt):
    """A ``dynamic_for`` whose first eighth costs 8x (virtual seconds),
    so the light node drains early and claims from the heavy one."""
    n_iters = 4 * N_TASKS
    cost = 1e-4 * (1 + np.arange(n_iters) % 3)
    cost[: n_iters // 8] *= 8

    def main(ctx):
        done = [0]

        def body(lo, hi):
            ctx.sleep(float(cost[lo:hi].sum()))
            done[0] += hi - lo

        dynamic_for(ctx, n_iters, body, policy="fixed:2")
        return done[0]

    return main


WORKLOADS = {
    name: DEFAULT_APPS.get(name).factory
    for name in ("ring", "allreduce", "hls_table")
}
WORKLOADS["skewed_loop"] = _skewed_loop


def run_case(workload, schedule):
    rt = Runtime(core2_cluster(2), n_tasks=N_TASKS, timeout=30.0,
                 backend="coop", schedule=schedule)
    main = WORKLOADS[workload](rt)
    try:
        rt.run(main)
    finally:
        getattr(main, "cleanup", lambda: None)()
    m = rt.metrics("sched")
    return rt.schedule_trace(), {c: getattr(m, c) for c in COUNTERS}


def _trace_path(workload, schedule):
    return GOLDEN / f"{workload}-{schedule.replace(':', '')}.json"


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_schedule_matches_the_golden_trace(workload, schedule):
    trace, counters = run_case(workload, schedule)
    golden = _trace_path(workload, schedule).read_text(encoding="utf-8")
    assert trace.to_json() + "\n" == golden
    want = json.loads((GOLDEN / "counters.json").read_text(encoding="utf-8"))
    assert counters == want[f"{workload}-{schedule}"]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for wl in sorted(WORKLOADS):
        for sch in SCHEDULES:
            tr, recorded[f"{wl}-{sch}"] = run_case(wl, sch)
            tr.dump(_trace_path(wl, sch))
    (GOLDEN / "counters.json").write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
