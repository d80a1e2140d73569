"""Chaos counters: the fault-injection story of one run.

The chaos harness (:mod:`repro.faults`) is only useful if its effects
are observable: how many injections actually fired (a plan whose specs
never trigger tests nothing), how many blocked operations the abort
broadcast terminated, how often the comm-buffer retry path saved a
send, and how long the job took to come down once the abort was raised.
``FaultMetrics.from_runtime(rt)`` -- or ``rt.metrics("faults")`` --
aggregates all of it into one snapshot, the same pattern as
:class:`~repro.metrics.p2p.P2PMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.metrics.report import Record


@dataclass
class FaultMetrics(Record):
    """One runtime's aggregated chaos counters."""

    TITLE = "fault metrics"
    ROUND = {"recovery_latency_s": 6}

    #: was a fault plan installed at all?
    chaos: bool = False
    #: seed of the installed plan (None: hand-built or no plan)
    plan_seed: Optional[int] = None
    #: specs in the installed plan
    plan_specs: int = 0
    #: the injector's ``snapshot()``, same names: injection-site hits
    #: observed (counter increments) and injections actually fired,
    #: total and per action
    hits: int = 0
    injections: int = 0
    fired: Dict[str, int] = field(default_factory=dict)
    #: blocked operations terminated with AbortError by the abort signal
    aborts_propagated: int = 0
    #: comm-buffer allocation retries (transient exhaustion survived)
    alloc_retries: int = 0
    #: seconds from abort to the last task terminating (None: no abort)
    recovery_latency_s: Optional[float] = None

    @classmethod
    def from_runtime(cls, runtime: Any) -> "FaultMetrics":
        injector = getattr(runtime, "faults", None)
        if injector is None:
            m = cls()
        else:
            m = cls(chaos=True, plan_seed=injector.plan.seed,
                    plan_specs=len(injector.plan), **injector.snapshot())
        flag = getattr(runtime, "abort_flag", None)
        m.aborts_propagated = getattr(flag, "propagated", 0)
        m.alloc_retries = getattr(runtime, "comm_alloc_retries", 0)
        m.recovery_latency_s = getattr(runtime, "abort_recovery_s", None)
        return m


__all__ = ["FaultMetrics"]
