"""Scheduler counters: what the cooperative backend did with the CPU.

``SchedMetrics.from_runtime(rt)`` -- or ``rt.metrics("sched")`` -- reads
the :class:`~repro.runtime.sched.coop.CoopScheduler` counters of one
runtime: how many context switches and explicit scheduling decisions
were made, how many parks ended by notify vs. virtual-clock timer, the
deepest run queue, and how many preemption checkpoints actually
preempted.  Under the threads backend the OS owns the interleaving, so
every counter is zero and ``backend`` says so -- the snapshot stays
comparable across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.metrics.report import Record


@dataclass
class SchedMetrics(Record):
    """One runtime's scheduler counter snapshot."""

    TITLE = "sched metrics"
    ROUND = {"vtime": 6}

    #: execution backend name ("threads" or "coop")
    backend: str = "threads"
    #: tasks the last run scheduled
    n_tasks: int = 0
    #: runner-token handoffs (every dispatch of a task)
    context_switches: int = 0
    #: recorded policy decisions (the schedule-trace length)
    decisions: int = 0
    #: parks of any kind (condition waits, sleeps, backoff yields)
    parks: int = 0
    #: parks ended by an explicit notify
    notify_wakes: int = 0
    #: parks ended by the virtual clock reaching their deadline
    timer_wakes: int = 0
    #: preemption checkpoints that requeued the running task
    preemptions: int = 0
    #: deepest run queue observed
    max_runq_depth: int = 0
    #: stalls turned into DeadlockError (whole job parked, no timer)
    stall_recoveries: int = 0
    #: final virtual-clock reading (seconds; 0.0 under threads)
    vtime: float = 0.0

    @classmethod
    def from_runtime(cls, runtime: Any) -> "SchedMetrics":
        backend = getattr(runtime, "_backend", None)
        sched = getattr(backend, "sched", None)
        if sched is None:
            # threads backend: the OS scheduler is opaque
            return cls(
                backend=getattr(runtime, "execution_backend", "threads"),
                n_tasks=getattr(runtime, "n_tasks", 0),
            )
        return cls(
            backend=getattr(runtime, "execution_backend", "coop"),
            **{name: getattr(sched, name) for name in _SCHED_COUNTERS},
        )


#: every field but ``backend``: the coop scheduler keeps each under the
#: same name
_SCHED_COUNTERS = tuple(
    f.name for f in fields(SchedMetrics) if f.name != "backend"
)


__all__ = ["SchedMetrics"]
