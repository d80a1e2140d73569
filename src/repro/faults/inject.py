"""The fault injector: plan execution at runtime hook sites.

Hook contract: sites call the runtime's probe, which calls
:meth:`FaultInjector.hit` first when a plan is installed::

    p = runtime.probe
    if p is not None:
        p(site, task, wake=waker, **fields)    # may sleep or raise
        # delivery site only:
        act = p("p2p.post", src)               # may return ("reorder", hold)

``hit`` handles most actions internally -- ``delay`` sleeps, ``crash``
raises :class:`~repro.runtime.errors.InjectedCrash`, ``clone_fail``
raises :class:`~repro.runtime.errors.PayloadCloneError`, ``transient``
raises :class:`~repro.runtime.errors.TransientCommError`, ``wake``
spuriously notifies a parked waiter -- so call sites stay one line.
Only ``reorder`` needs cooperation: the mailbox holds the envelope back
(see :meth:`repro.runtime.message.Mailbox.post`).

Determinism: every hit increments a per-``(site, task)`` counter under
the injector lock; a spec fires when the counter lands in its window.
The counter depends only on the hitting task's own call sequence, so
the fired-injection log is schedule-independent for workloads whose
per-task call sequences are deterministic -- the property the
record/replay test asserts bit-for-bit.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.errors import (
    InjectedCrash,
    PayloadCloneError,
    TransientCommError,
)

#: spec ``task`` value matching every rank
ANY_TASK = -1

#: one fired injection: (site, task, hit number, action)
FiredInjection = Tuple[str, int, int, str]


class FaultInjector:
    """Executes one :class:`FaultPlan` against one runtime."""

    def __init__(self, plan: FaultPlan, runtime: Optional[Any] = None) -> None:
        self.plan = plan
        self.runtime = runtime
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, int], int] = {}
        #: specs indexed by site -- the hot-path lookup
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in plan:
            self._by_site.setdefault(spec.site, []).append(spec)
        #: every injection fired, in firing order (lock-serialised);
        #: sort for cross-run comparison -- per-entry content is
        #: deterministic, global interleaving is not
        self.log: List[FiredInjection] = []
        #: fired-injection tally per action
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------ state
    @property
    def injections(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "injections": sum(self.fired.values()),
                "fired": dict(self.fired),
                "hits": sum(self._counts.values()),
            }

    # ------------------------------------------------------------------- hit
    def hit(
        self,
        site: str,
        task: int,
        wake: Optional[Callable[[], None]] = None,
        **fields: Any,
    ) -> Optional[Tuple[str, float]]:
        """Announce one hook hit; fire every matching spec (a site's
        trace ``fields`` play no part, a trace-only site has no specs).

        Returns ``("reorder", hold_seconds)`` when a reorder fired (the
        mailbox implements the holdback), else ``None``.  May sleep
        (``delay``) or raise (``crash``/``clone_fail``/``transient``).
        """
        specs = self._by_site.get(site)
        if not specs:
            return None
        with self._lock:
            key = (site, task)
            n = self._counts.get(key, 0) + 1
            self._counts[key] = n
            matched = [s for s in specs if s.applies(task, n)]
            for spec in matched:
                self.fired[spec.action] = self.fired.get(spec.action, 0) + 1
                self.log.append((site, task, n, spec.action))
        result: Optional[Tuple[str, float]] = None
        for spec in matched:
            act = spec.action
            if act == "delay":
                # route through the runtime's task sleep so a coop task
                # parks on the virtual clock instead of blocking the
                # single runner (and so delays are deterministic under
                # schedule record/replay)
                sleep = getattr(self.runtime, "task_sleep", None) or time.sleep
                sleep(spec.param)
            elif act == "crash":
                raise InjectedCrash(
                    f"injected crash at {site} hit {n} (task {task})"
                )
            elif act == "clone_fail":
                raise PayloadCloneError(
                    f"injected payload-clone failure at {site} hit {n} "
                    f"(task {task})"
                )
            elif act == "transient":
                raise TransientCommError(
                    f"injected comm-buffer exhaustion at {site} hit {n} "
                    f"(task {task})"
                )
            elif act == "wake":
                self._spurious_wake(spec, task, wake)
            elif act == "reorder":
                result = ("reorder", spec.param)
        return result

    # ---------------------------------------------------------------- actions
    def _spurious_wake(
        self,
        spec: FaultSpec,
        task: int,
        wake: Optional[Callable[[], None]],
    ) -> None:
        """Spurious condition wakeup: notify a victim mailbox, or the
        call site's own parked waiters when it supplied a waker."""
        if spec.victim >= 0 and self.runtime is not None:
            if spec.victim < self.runtime.n_tasks:
                self.runtime.mailbox(spec.victim).wake()
            return
        if wake is not None:
            wake()
            return
        if self.runtime is not None and 0 <= task < self.runtime.n_tasks:
            self.runtime.mailbox(task).wake()

    def sorted_log(self) -> List[FiredInjection]:
        """The fired-injection log in canonical order (the unit the
        replay test compares bit-for-bit)."""
        with self._lock:
            return sorted(self.log)


__all__ = ["ANY_TASK", "FaultInjector", "FiredInjection"]
