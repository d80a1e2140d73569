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

from repro.metrics.report import Table


@dataclass
class FaultMetrics:
    """One runtime's aggregated chaos counters."""

    #: was a fault plan installed at all?
    chaos: bool = False
    #: seed of the installed plan (None: hand-built or no plan)
    plan_seed: Optional[int] = None
    #: specs in the installed plan
    plan_specs: int = 0
    #: injection-site hits observed (counter increments)
    hits: int = 0
    #: injections actually fired, total and per action
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
        m = cls()
        injector = getattr(runtime, "faults", None)
        if injector is not None:
            snap = injector.snapshot()
            m.chaos = True
            m.plan_seed = injector.plan.seed
            m.plan_specs = len(injector.plan)
            m.hits = snap["hits"]
            m.injections = snap["injections"]
            m.fired = snap["fired"]
        flag = getattr(runtime, "abort_flag", None)
        m.aborts_propagated = getattr(flag, "propagated", 0)
        m.alloc_retries = getattr(runtime, "comm_alloc_retries", 0)
        m.recovery_latency_s = getattr(runtime, "abort_recovery_s", None)
        return m

    # ----------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, Any]:
        return {
            "chaos": self.chaos,
            "plan_seed": self.plan_seed,
            "plan_specs": self.plan_specs,
            "hits": self.hits,
            "injections": self.injections,
            "fired": dict(self.fired),
            "aborts_propagated": self.aborts_propagated,
            "alloc_retries": self.alloc_retries,
            "recovery_latency_s": (
                None if self.recovery_latency_s is None
                else round(self.recovery_latency_s, 6)
            ),
        }

    def render(self) -> str:
        table = Table(["counter", "value"], title="fault metrics")
        snap = self.snapshot()
        fired = snap.pop("fired")
        for key, value in snap.items():
            table.add_row(key, value)
        for action in sorted(fired):
            table.add_row(f"fired[{action}]", fired[action])
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultMetrics(chaos={self.chaos}, injections={self.injections}, "
            f"aborts_propagated={self.aborts_propagated}, "
            f"alloc_retries={self.alloc_retries})"
        )


__all__ = ["FaultMetrics"]
