"""Schedule policies and canonical schedule traces.

The cooperative scheduler (:mod:`repro.runtime.sched.coop`) makes one
explicit decision per context switch: *which runnable task runs next*.
A :class:`SchedulePolicy` owns that decision, and because every other
source of nondeterminism is scheduler-mediated (parks, timer wakes on
the virtual clock, preemption checkpoints), the decision sequence fully
determines the execution -- the same contract :class:`FaultPlan
<repro.faults.plan.FaultPlan>` gives the chaos harness.

Three policies ship:

* :class:`FifoPolicy` -- run the longest-runnable task; tasks run from
  park point to park point with no preemption.  The fast default.
* :class:`RandomPolicy` -- a seeded uniform draw over the runnable set
  at every decision, *plus* preemption at every scheduler checkpoint
  (message sends), so seeded runs explore genuinely different
  interleavings.  Same seed, same schedule.
* :class:`ReplayPolicy` -- re-issue a recorded :class:`ScheduleTrace`
  decision for decision; any divergence raises
  :class:`~repro.runtime.errors.ScheduleReplayError` instead of
  silently exploring a different schedule.

The scheduler records every decision into a :class:`ScheduleTrace`
regardless of policy, so *any* run -- including a replay -- can be
replayed bit-for-bit.  Traces are value objects with canonical JSON
(sorted keys, fixed field order), mirroring ``FaultPlan.to_json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.runtime.errors import MPIError, ScheduleReplayError


@dataclass
class ScheduleTrace:
    """A recorded schedule: the rank chosen at every decision point.

    ``preemptive`` is part of the trace because it changes *where*
    decision points occur: a preemptive recording yields at every
    checkpoint, so its replay must too, or the decision streams would
    not line up.
    """

    policy: str = "fifo"
    seed: Optional[int] = None
    preemptive: bool = False
    n_tasks: int = 0
    #: chosen task rank, one entry per scheduler decision
    events: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "version": 1,
            "policy": self.policy,
            "seed": self.seed,
            "preemptive": self.preemptive,
            "n_tasks": self.n_tasks,
            "events": list(self.events),
        }

    def to_json(self) -> str:
        """Canonical JSON: equal traces produce the identical string."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleTrace":
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported schedule-trace version {version}")
        return cls(
            policy=data.get("policy", "fifo"),
            seed=data.get("seed"),
            preemptive=bool(data.get("preemptive", False)),
            n_tasks=int(data.get("n_tasks", 0)),
            events=[int(e) for e in data.get("events", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> None:
        """Write the trace to ``path`` (the CI failing-schedule artifact)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ScheduleTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class SchedulePolicy:
    """Decides which runnable task runs at each context switch."""

    name = "policy"
    #: does this policy yield at scheduler checkpoints (message sends)?
    #: Preemption widens the explored schedule space; it also changes
    #: where decision points fall, so the flag is recorded in the trace.
    preemptive = False
    #: the seed the policy draws from (None for deterministic policies)
    seed: Optional[int] = None

    def reset(self) -> None:
        """Rewind to the initial state (called once per ``Runtime.run``
        launch, so back-to-back runs on one runtime are independently
        reproducible)."""

    def pick(self, runnable: Sequence[int]) -> int:
        """Choose the next task from ``runnable`` (non-empty, ordered
        by wake time -- index 0 has been runnable the longest)."""
        raise NotImplementedError

    def pick_index(self, runq: Sequence) -> int:
        """Choose the next task as an *index* into ``runq`` (a non-empty
        sequence of tasks with ``.rank``, same wake-time order as
        :meth:`pick` sees).  This is the scheduler's hot path: the fifo
        and random policies override it with O(1) selection so a
        dispatch never materialises the runnable set.  The default
        defers to :meth:`pick`, so replay and custom policies only need
        the rank-based method."""
        ranks = tuple(t.rank for t in runq)
        return ranks.index(self.pick(ranks))


class FifoPolicy(SchedulePolicy):
    """Run the longest-runnable task; no preemption."""

    name = "fifo"

    def pick(self, runnable: Sequence[int]) -> int:
        return runnable[0]

    def pick_index(self, runq: Sequence) -> int:
        return 0


class RandomPolicy(SchedulePolicy):
    """Seeded uniform draw over the runnable set, with checkpoint
    preemption.  The schedule is a pure function of the seed."""

    name = "random"
    preemptive = True

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def pick(self, runnable: Sequence[int]) -> int:
        return runnable[self._rng.randrange(len(runnable))]

    def pick_index(self, runq: Sequence) -> int:
        # the same single randrange draw as pick(), so a given seed
        # produces the identical schedule through either entry point
        return self._rng.randrange(len(runq))


class ReplayPolicy(SchedulePolicy):
    """Re-issue the decisions of a recorded :class:`ScheduleTrace`."""

    name = "replay"

    def __init__(self, trace: ScheduleTrace) -> None:
        self.trace = trace
        self.preemptive = trace.preemptive
        self.seed = trace.seed
        self._step = 0

    def reset(self) -> None:
        self._step = 0

    def pick(self, runnable: Sequence[int]) -> int:
        if self._step >= len(self.trace.events):
            raise ScheduleReplayError(
                f"schedule trace exhausted at decision {self._step} with "
                f"runnable set {list(runnable)} -- the replayed workload "
                f"made more scheduling decisions than the recording"
            )
        choice = self.trace.events[self._step]
        if choice not in runnable:
            raise ScheduleReplayError(
                f"schedule replay diverged at decision {self._step}: trace "
                f"chose task {choice} but the runnable set is "
                f"{list(runnable)} -- workload or fault plan differs from "
                f"the recording"
            )
        self._step += 1
        return choice


def make_policy(
    spec: Union[None, str, SchedulePolicy, ScheduleTrace],
) -> SchedulePolicy:
    """Build a policy from a spec: ``None``/``"fifo"``, ``"random:SEED"``
    (bare ``"random"`` seeds 0), a recorded :class:`ScheduleTrace`, or
    an already-built policy object."""
    if spec is None:
        return FifoPolicy()
    if isinstance(spec, SchedulePolicy):
        return spec
    if isinstance(spec, ScheduleTrace):
        return ReplayPolicy(spec)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name == "fifo":
            return FifoPolicy()
        if name == "random":
            try:
                return RandomPolicy(int(arg) if arg else 0)
            except ValueError:
                raise MPIError(
                    f"random schedule needs an integer seed, got {arg!r}"
                ) from None
        raise MPIError(
            f"unknown schedule policy {name!r} (use 'fifo', 'random:SEED', "
            f"a ScheduleTrace, or a SchedulePolicy instance)"
        )
    raise MPIError(f"cannot build a schedule policy from {spec!r}")


__all__ = [
    "FifoPolicy",
    "RandomPolicy",
    "ReplayPolicy",
    "SchedulePolicy",
    "ScheduleTrace",
    "make_policy",
]
