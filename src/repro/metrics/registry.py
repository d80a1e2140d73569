"""The unified metrics snapshot registry.

Eight subsystems (p2p, collectives, rma, sched, faults, memory,
storage, loadbalance) each have their own snapshot class.  A
multi-tenant job service (:mod:`repro.service`) wants *one*
machine-readable snapshot per job it can stream from an observability
endpoint -- so this module registers every subsystem behind one table
and one entry point:

* :data:`SUBSYSTEMS` -- ordered ``name -> builder`` table.  A builder
  takes a runtime and returns the subsystem's metrics object.
* :func:`build_subsystem` -- one subsystem's metrics object;
  ``Runtime.metrics(name)`` returns this.
* :func:`build_snapshot` -- a :class:`MetricsSnapshot` covering every
  registered subsystem, with the JSON-ready dict frozen at build time.
  ``Runtime.metrics()`` returns this.

Every metrics class exposes ``snapshot() -> dict`` of plain
JSON-serialisable values; :meth:`MetricsSnapshot.to_json` renders the
whole thing canonically (sorted keys, compact separators) so equal
snapshots serialise to the identical string -- the convention
``FaultPlan`` and ``ScheduleTrace`` established.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Callable, Dict, Tuple

from repro.metrics.faults import FaultMetrics
from repro.metrics.loadbalance import LoadBalanceMetrics
from repro.metrics.memory import MemoryMetrics
from repro.metrics.p2p import P2PMetrics
from repro.metrics.rma import RMAMetrics
from repro.metrics.sched import SchedMetrics
from repro.metrics.storage import StorageMetrics

#: every metrics subsystem, in canonical order
SUBSYSTEMS: Dict[str, Callable[[Any], Any]] = {
    "p2p": P2PMetrics.from_runtime,
    # the live per-runtime counter object; its snapshot() is the frozen
    # view MetricsSnapshot keeps
    "collectives": attrgetter("collective_metrics"),
    "rma": RMAMetrics.from_runtime,
    "sched": SchedMetrics.from_runtime,
    "faults": FaultMetrics.from_runtime,
    "memory": MemoryMetrics.from_runtime,
    "storage": StorageMetrics.from_runtime,
    "loadbalance": LoadBalanceMetrics.from_runtime,
}

#: subsystem names, in registry order
SUBSYSTEM_NAMES: Tuple[str, ...] = tuple(SUBSYSTEMS)


def build_subsystem(name: str, runtime) -> Any:
    """One subsystem's metrics object."""
    try:
        builder = SUBSYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown metrics subsystem {name!r}; "
            f"registered: {', '.join(SUBSYSTEMS)}"
        ) from None
    return builder(runtime)


class MetricsSnapshot:
    """Point-in-time metrics over every registered subsystem.

    ``objects`` holds the per-subsystem metrics instances; ``data`` the
    JSON-ready dicts,
    frozen when the snapshot was built.  Subsystems are also reachable
    as attributes: ``snap.p2p``, ``snap.memory``, ...
    """

    def __init__(self, objects: Dict[str, Any], data: Dict[str, Dict]) -> None:
        self.objects = objects
        self.data = data

    def __getattr__(self, name: str) -> Any:
        objects = self.__dict__.get("objects", {})
        if name in objects:
            return objects[name]
        raise AttributeError(name)

    def get(self, name: str) -> Any:
        """The metrics object of one subsystem."""
        return self.objects[name]

    def subsystems(self) -> Tuple[str, ...]:
        return tuple(self.objects)

    def snapshot(self) -> Dict[str, Dict]:
        """The full snapshot as one nested JSON-serialisable dict."""
        return {name: dict(d) for name, d in self.data.items()}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators): equal
        snapshots serialise to the identical string."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def render(self) -> str:
        lines = ["metrics snapshot:"]
        for obj in self.objects.values():
            lines.extend("  " + line for line in obj.render().splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsSnapshot(subsystems={list(self.objects)})"


def build_snapshot(runtime) -> MetricsSnapshot:
    """A :class:`MetricsSnapshot` of ``runtime`` covering every
    subsystem in :data:`SUBSYSTEMS` (what ``Runtime.metrics()``
    returns)."""
    objects: Dict[str, Any] = {}
    data: Dict[str, Dict] = {}
    for name, builder in SUBSYSTEMS.items():
        obj = builder(runtime)
        objects[name] = obj
        data[name] = obj.snapshot()
    return MetricsSnapshot(objects, data)


__all__ = [
    "MetricsSnapshot",
    "SUBSYSTEMS",
    "SUBSYSTEM_NAMES",
    "build_snapshot",
    "build_subsystem",
]
