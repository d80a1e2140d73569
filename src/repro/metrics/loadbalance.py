"""Load-balance metrics for self-scheduled loops.

Every ``dynamic_for`` loop gathers one row per task (busy/idle time,
chunks claimed on the task's own node vs on other nodes, finish time)
and rank 0 registers the resulting
:class:`~repro.scheduler.api.LoopReport` on the runtime.
``LoadBalanceMetrics.from_runtime(rt)`` -- or
``rt.metrics("loadbalance")`` -- aggregates those reports; the headline
figure is the coefficient of variation of task finish times (0 = a
perfectly balanced loop), which the benchmarks compare between the
static oracle and the dynamic policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.metrics.report import Record


@dataclass
class LoadBalanceMetrics(Record):
    """Aggregated accounting of every self-scheduled loop a runtime ran."""

    TITLE = "load-balance metrics"
    DERIVED = {
        "loops": ("chunks",),
        "idle_s": ("busy_fraction", "mean_finish_cov", "mean_work_cov"),
    }
    ROUND = {
        "busy_s": 6, "idle_s": 6, "busy_fraction": 3, "mean_finish_cov": 4,
        "mean_work_cov": 4,
    }
    HIDDEN = frozenset({"finish_cov", "busy_cov", "work_cov", "reports"})

    #: dynamic_for loops reported (rank-0 registrations)
    loops: int = 0
    #: chunks executed, claimed on the executing task's own node or
    #: on another node
    chunks_local: int = 0
    remote_claims: int = 0
    #: iterations executed across all loops and tasks
    iterations: int = 0
    #: summed per-task busy / idle seconds (runtime clock)
    busy_s: float = 0.0
    idle_s: float = 0.0
    #: per-loop c.o.v. of task finish times (the imbalance headline),
    #: busy time, and deterministic work units
    finish_cov: List[float] = field(default_factory=list)
    busy_cov: List[float] = field(default_factory=list)
    work_cov: List[float] = field(default_factory=list)
    #: the registered reports themselves, for drill-down
    reports: List[Any] = field(default_factory=list)

    @classmethod
    def from_runtime(cls, runtime: Any) -> "LoadBalanceMetrics":
        m = cls()
        for rep in runtime.loop_reports():
            m.loops += 1
            m.reports.append(rep)
            m.finish_cov.append(rep.finish_cov)
            m.busy_cov.append(rep.busy_cov)
            m.work_cov.append(rep.work_cov)
            for row in rep.rows:
                for key in _ROW_KEYS:
                    setattr(m, key, getattr(m, key) + row[key])
        return m

    # ------------------------------------------------------------- derived
    @property
    def chunks(self) -> int:
        return self.chunks_local + self.remote_claims

    @property
    def mean_finish_cov(self) -> float:
        if not self.finish_cov:
            return 0.0
        return sum(self.finish_cov) / len(self.finish_cov)

    @property
    def mean_work_cov(self) -> float:
        if not self.work_cov:
            return 0.0
        return sum(self.work_cov) / len(self.work_cov)

    @property
    def busy_fraction(self) -> float:
        total = self.busy_s + self.idle_s
        return self.busy_s / total if total > 0 else 0.0

#: the per-task row counters summed over every loop, named as the rows
#: (``LoopStats``) name them
_ROW_KEYS = ("chunks_local", "remote_claims", "iterations", "busy_s",
             "idle_s")


__all__ = ["LoadBalanceMetrics"]
