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

from dataclasses import dataclass
from typing import Any, Dict

from repro.metrics.report import Table


@dataclass
class SchedMetrics:
    """One runtime's scheduler counter snapshot."""

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
            n_tasks=sched.n_tasks,
            context_switches=sched.context_switches,
            decisions=sched.decisions,
            parks=sched.parks,
            notify_wakes=sched.notify_wakes,
            timer_wakes=sched.timer_wakes,
            preemptions=sched.preemptions,
            max_runq_depth=sched.max_runq_depth,
            stall_recoveries=sched.stall_recoveries,
            vtime=sched.vtime,
        )

    # ----------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "n_tasks": self.n_tasks,
            "context_switches": self.context_switches,
            "decisions": self.decisions,
            "parks": self.parks,
            "notify_wakes": self.notify_wakes,
            "timer_wakes": self.timer_wakes,
            "preemptions": self.preemptions,
            "max_runq_depth": self.max_runq_depth,
            "stall_recoveries": self.stall_recoveries,
            "vtime": round(self.vtime, 6),
        }

    def render(self) -> str:
        table = Table(["counter", "value"], title="sched metrics")
        for key, value in self.snapshot().items():
            table.add_row(key, value)
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SchedMetrics(backend={self.backend!r}, "
            f"switches={self.context_switches}, parks={self.parks}, "
            f"runq_max={self.max_runq_depth})"
        )


__all__ = ["SchedMetrics"]
