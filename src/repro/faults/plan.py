"""Fault plans: what to inject, where, and when.

A plan is a plain list of :class:`FaultSpec` records.  Each spec names
an injection *site* (a stable string identifying one hook in the
runtime), an *action*, the task it applies to, and the hit window it
fires in: the per-``(site, task)`` hit counter must land in
``[nth, nth + count)``.  Because the counter tracks only the task's own
call sequence, a spec fires at the same program point in every run of
the same workload -- the determinism the record/replay workflow rests
on.

Plans are value objects: equality is structural, and ``to_json`` is
canonical (sorted keys, fixed field order) so two equal plans serialize
to the identical string.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: injection sites -> the actions each site understands.  Sites are the
#: stable contract between plans and the runtime hooks; adding a site
#: means adding a ``Runtime.probe`` call at the matching code path.
SITES: Dict[str, Tuple[str, ...]] = {
    # message delivery: sender side of Runtime.post_message
    "p2p.post": ("delay", "crash", "reorder", "wake", "clone_fail"),
    # receiver entry of Mailbox.receive (slow receiver / crash mid-recv)
    "p2p.recv": ("delay", "crash"),
    # eager comm-buffer allocation attempt (transient exhaustion)
    "p2p.alloc": ("transient",),
    # per-rank entry of a blocking collective (repro.runtime.icoll)
    "coll.sweep": ("delay", "crash", "wake"),
    # once per rank on a nonblocking collective's deposit, and once per
    # dataflow cell an executor runs (blocking or not)
    "coll.ichunk": ("delay", "crash", "wake"),
    # HLS scope synchronisation directives
    "hls.barrier": ("delay", "crash", "wake"),
    "hls.single": ("delay", "crash", "wake"),
    "hls.nowait": ("delay", "crash", "wake"),
    # one-sided windows (repro.runtime.rma): origin side of put /
    # accumulate, origin side of get, and every epoch call
    # (fence / post / start / complete / wait / lock / unlock)
    "rma.put": ("delay", "crash", "wake"),
    "rma.get": ("delay", "crash", "wake"),
    "rma.epoch": ("delay", "crash", "wake"),
    # loop self-scheduling (repro.scheduler): before a chunk-claim
    # fetch-and-add
    "sched.claim": ("delay", "crash", "wake"),
    # chunk stores (repro.storage): before a chunk read, before a chunk
    # (spill/flush) write, and before a manifest commit -- the commit is
    # atomic on disk, so a crash at storage.flush leaves the previous
    # checkpoint intact (what the chaos restart battery asserts)
    "storage.read": ("delay", "crash", "wake"),
    "storage.write": ("delay", "crash", "wake"),
    "storage.flush": ("delay", "crash", "wake"),
}

#: all actions any site understands
ACTIONS: Tuple[str, ...] = tuple(
    sorted({a for actions in SITES.values() for a in actions})
)

#: generation weights for :meth:`FaultPlan.random` -- perturbations
#: dominate, hard failures are a sizeable minority
_ACTION_WEIGHTS: Dict[str, float] = {
    "delay": 4.0,
    "reorder": 2.0,
    "wake": 2.0,
    "crash": 2.0,
    "clone_fail": 1.0,
    "transient": 1.0,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injection: fire ``action`` at hits ``nth .. nth+count-1`` of
    ``site`` by ``task`` (``task == -1`` matches every task's counter).

    ``param`` is the action's knob: seconds to sleep for ``delay``,
    seconds a reordered envelope may be held for ``reorder``; unused
    otherwise.  ``victim`` aims ``wake`` at a specific task's mailbox
    (``-1``: the spurious waker the call site supplies, falling back to
    the hitting task's own mailbox)."""

    site: str
    action: str
    task: int = -1
    nth: int = 1
    count: int = 1
    param: float = 0.0
    victim: int = -1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown injection site {self.site!r}")
        if self.action not in SITES[self.site]:
            raise ValueError(
                f"site {self.site!r} does not support action {self.action!r} "
                f"(supports {SITES[self.site]})"
            )
        if self.nth < 1:
            raise ValueError("nth is 1-based: first hit is nth=1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.param < 0:
            raise ValueError("param must be >= 0")

    def applies(self, task: int, n: int) -> bool:
        """Does this spec fire on hit number ``n`` by ``task``?"""
        if self.task != -1 and self.task != task:
            return False
        return self.nth <= n < self.nth + self.count


@dataclass
class FaultPlan:
    """A deterministic, serializable set of injections."""

    specs: List[FaultSpec] = field(default_factory=list)
    #: the seed the plan was generated from (None for hand-built plans);
    #: carried for provenance in recorded artifacts
    seed: Optional[int] = None

    # -------------------------------------------------------------- building
    @classmethod
    def single(cls, site: str, action: str, **kwargs) -> "FaultPlan":
        """A one-spec plan (convenience for targeted tests)."""
        return cls([FaultSpec(site=site, action=action, **kwargs)])

    @classmethod
    def random(
        cls,
        seed: int,
        n_tasks: int,
        *,
        n_faults: int = 6,
        sites: Optional[Sequence[str]] = None,
        max_nth: int = 12,
        max_delay: float = 0.01,
        crash_rate: Optional[float] = None,
    ) -> "FaultPlan":
        """A seeded random plan: ``n_faults`` specs drawn over ``sites``
        (default: every registered site) and ``n_tasks`` ranks.

        The draw is fully determined by ``seed`` -- the chaos sweep's
        contract is that re-running a seed reproduces the plan exactly.
        ``crash_rate`` overrides the default action mix with an explicit
        probability of hard-failure actions (crash/clone_fail).
        """
        rng = random.Random(seed)
        pool = list(sites) if sites is not None else list(SITES)
        for s in pool:
            if s not in SITES:
                raise ValueError(f"unknown injection site {s!r}")
        specs: List[FaultSpec] = []
        for _ in range(n_faults):
            site = rng.choice(pool)
            actions = SITES[site]
            if crash_rate is not None:
                hard = [a for a in actions if a in ("crash", "clone_fail")]
                soft = [a for a in actions if a not in ("crash", "clone_fail")]
                if hard and (not soft or rng.random() < crash_rate):
                    action = rng.choice(hard)
                else:
                    action = rng.choice(soft)
            else:
                weights = [_ACTION_WEIGHTS[a] for a in actions]
                action = rng.choices(actions, weights=weights, k=1)[0]
            specs.append(
                FaultSpec(
                    site=site,
                    action=action,
                    task=rng.randrange(-1, n_tasks),
                    nth=rng.randrange(1, max_nth + 1),
                    count=rng.randrange(1, 4),
                    param=round(rng.uniform(0.0, max_delay), 6),
                    victim=rng.randrange(-1, n_tasks),
                )
            )
        return cls(specs, seed=seed)

    # --------------------------------------------------------------- queries
    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted({s.site for s in self.specs}))

    def has_action(self, *actions: str) -> bool:
        return any(s.action in actions for s in self.specs)

    # ----------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        return {
            "version": 1,
            "seed": self.seed,
            "specs": [asdict(s) for s in self.specs],
        }

    def to_json(self) -> str:
        """Canonical JSON: equal plans produce the identical string."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault-plan version {version}")
        specs = [FaultSpec(**spec) for spec in data.get("specs", [])]
        return cls(specs, seed=data.get("seed"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> None:
        """Write the plan to ``path`` (the CI failing-seed artifact)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


__all__ = ["ACTIONS", "SITES", "FaultPlan", "FaultSpec"]
