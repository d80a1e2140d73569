"""Fault injection and schedule perturbation (chaos harness).

The runtime's concurrency surface -- indexed P2P matching, hierarchical
collective sweeps, HLS scope synchronisation -- is exercised in tests
by *provoking* the rare schedules production would eventually find: a
:class:`FaultPlan` registers deterministic, seeded injections (message
delivery delay and reorder, task crash at the Nth runtime call, slow
receivers, spurious condition wakeups, payload-clone failure, transient
comm-buffer exhaustion) and a :class:`FaultInjector` fires them from
``Runtime.probe``, the one hook every instrumented site calls.

Design rules:

* **zero cost when off** -- every site guards on a single attribute
  check (``runtime.probe is None``); an idle runtime executes no
  injection code at all;
* **deterministic** -- injections key on per-``(site, task)`` hit
  counters, which depend only on each task's own call sequence, never
  on cross-task interleaving; the same plan over the same workload
  fires the same injections;
* **replayable** -- plans serialize to JSON
  (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`) so the
  failing member of a seeded chaos sweep can be recorded as an artifact
  and replayed bit-for-bit.

Quick use::

    from repro.faults import FaultPlan

    plan = FaultPlan.random(seed=7, n_tasks=8)      # seeded chaos
    rt = Runtime(machine, n_tasks=8)
    rt.install_faults(plan)
    rt.run(main)            # clean result or clean AbortError -- never a hang
    print(rt.metrics("faults").render())
"""

from repro.faults.plan import ACTIONS, SITES, FaultPlan, FaultSpec
from repro.faults.inject import ANY_TASK, FaultInjector
from repro.faults.artifact import ChaosArtifact

__all__ = [
    "ACTIONS",
    "ANY_TASK",
    "ChaosArtifact",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "SITES",
]
