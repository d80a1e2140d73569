"""Declarative job specifications.

A :class:`JobSpec` is everything the service needs to run one job:
which app (a name in the :mod:`repro.service.apps` registry), on what
simulated machine, with which runtime policies (sharing, execution
backend, collective algorithm, schedule policy), under which fault
plan, and with what declared resource footprint -- the number the
admission controller checks against the service's memory capacity.

Specs round-trip through canonical JSON (sorted keys, compact
separators, the repo-wide convention), so jobs can be submitted over
the observability endpoint or stored as artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.faults.plan import FaultPlan
from repro.machine.presets import (
    nehalem_ex_node,
    small_test_machine,
)
from repro.machine.topology import Machine, build_machine
from repro.runtime.errors import MPIError
from repro.runtime.runtime import check_policies
from repro.runtime.sched.backend import check_backend

#: default declared footprint when the spec does not carry one (covers
#: the runtime's own comm pools for small jobs)
DEFAULT_FOOTPRINT = 64 << 20


@dataclass(frozen=True)
class JobSpec:
    """One declarative job submission."""

    app: str                                  # app-registry name
    n_tasks: int = 2
    params: Dict[str, Any] = field(default_factory=dict)  # app kwargs
    preset: str = "flat"                      # machine preset (see machine_for)
    sharing: str = "private"                  # "private" | "shared"
    backend: str = "threads"                  # "threads" | "coop"
    algorithm: Optional[str] = None           # collective algorithm
    schedule: Optional[str] = None            # coop schedule policy spec
    fault_plan: Optional[FaultPlan] = None    # chaos plan for this job
    footprint_bytes: int = DEFAULT_FOOTPRINT  # declared resource footprint
    timeout: float = 30.0                     # runtime deadlock watchdog

    def __post_init__(self) -> None:
        if not self.app:
            raise ValueError("job spec needs an app name")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.footprint_bytes < 0:
            raise ValueError("footprint_bytes must be >= 0")
        # the runtime's own checks, so a bad spec is refused at submit
        # rather than failing on a worker; the machine is not built
        self._machine_builder()
        check_policies(self.algorithm, self.sharing)
        check_backend(self.backend, self.schedule)

    # ------------------------------------------------------------- machine
    def machine_for(self) -> Machine:
        """Build the simulated machine this spec names.

        Presets: ``flat`` (one node, one core per task), ``flat:<n>``
        (``n`` such nodes), ``small`` (the 2-socket unit-test machine),
        ``nehalem`` or ``nehalem:<scale>`` (the paper's 4-socket node,
        scaled down).
        """
        return self._machine_builder()()

    def _machine_builder(self) -> Callable[[], Machine]:
        """The preset's machine constructor, unbuilt; raises
        :class:`MPIError` for a preset it does not know."""
        preset = self.preset or "flat"
        name, colon, arg = preset.partition(":")
        if colon and not (arg.isdecimal() and int(arg) > 0):
            raise MPIError(f"unknown machine preset {self.preset!r}")
        count = int(arg) if colon else None
        if name == "flat":
            n_nodes = count or 1
            return partial(
                build_machine, n_nodes=n_nodes, sockets_per_node=1,
                cores_per_socket=-(-self.n_tasks // n_nodes),  # ceil
                caches=(), name="flat" if count is None else f"flat{count}",
            )
        if preset == "small":
            return small_test_machine
        if name == "nehalem":
            return partial(nehalem_ex_node, scale=count or 64)
        raise MPIError(f"unknown machine preset {self.preset!r}")

    # --------------------------------------------------------------- (de)ser
    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["params"] = dict(self.params)
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    def to_json(self) -> str:
        """Canonical JSON: equal specs serialise identically."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        data = dict(data)
        plan = data.get("fault_plan")
        if plan is not None and not isinstance(plan, FaultPlan):
            data["fault_plan"] = FaultPlan.from_dict(plan)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))


__all__ = ["DEFAULT_FOOTPRINT", "JobSpec"]
