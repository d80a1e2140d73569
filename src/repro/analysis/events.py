"""Trace events for the happens-before analysis (paper section III).

A trace is one recorded execution of an MPI program: per task, the
ordered sequence of *events* -- global-variable reads/writes, message
sends/receives, and collective episodes.  Event identity is
``(task, index)`` with ``index`` the position in the task's program
order; the happens-before relation is then derived from program order
plus the synchronisation edges the events encode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple


class EventKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    SEND = "send"
    RECV = "recv"
    COLLECTIVE = "collective"
    HLS_SYNC = "hls_sync"
    #: one-sided access (put/get/accumulate); ``peer`` is the target,
    #: ``win`` the window id, ``op`` the access kind
    RMA = "rma"
    #: RMA epoch boundary (fence/post/start/complete/wait/lock/...);
    #: ``op`` names the call, ``group``/``peer`` its targets
    EPOCH = "epoch"


@dataclass(frozen=True)
class Event:
    """One event in one task's program order."""

    task: int
    index: int
    kind: EventKind
    # variable access fields
    var: Optional[str] = None
    value: Optional[Hashable] = None
    # message fields: (src, dst, tag, seq) identify the matching pair
    peer: Optional[int] = None
    tag: Optional[int] = None
    seq: Optional[int] = None
    # collective/HLS fields: (context, epoch) identify the episode
    context: Optional[Hashable] = None
    epoch: Optional[int] = None
    op: Optional[str] = None
    group: Optional[Tuple[int, ...]] = None
    # RMA fields: the window the access/epoch call belongs to
    win: Optional[int] = None

    @property
    def eid(self) -> Tuple[int, int]:
        return (self.task, self.index)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind in (EventKind.READ, EventKind.WRITE):
            return f"t{self.task}#{self.index}:{self.kind.value}({self.var}={self.value})"
        if self.kind in (EventKind.SEND, EventKind.RECV):
            return f"t{self.task}#{self.index}:{self.kind.value}(peer={self.peer}, tag={self.tag})"
        return f"t{self.task}#{self.index}:{self.kind.value}({self.op}@{self.context}.{self.epoch})"


class Trace:
    """Per-task event sequences with a builder API.

    Build either programmatically (unit tests, synthetic schedules) or
    through :class:`~repro.analysis.tracing.Tracer` hooked into a live
    runtime.
    """

    def __init__(self, n_tasks: int) -> None:
        if n_tasks < 1:
            raise ValueError("trace needs at least one task")
        self.n_tasks = n_tasks
        self.events: List[List[Event]] = [[] for _ in range(n_tasks)]

    # ----------------------------------------------------------------- build
    def _append(self, task: int, **kw: Any) -> Event:
        ev = Event(task=task, index=len(self.events[task]), **kw)
        self.events[task].append(ev)
        return ev

    def read(self, task: int, var: str, value: Hashable) -> Event:
        return self._append(task, kind=EventKind.READ, var=var, value=value)

    def write(self, task: int, var: str, value: Hashable) -> Event:
        return self._append(task, kind=EventKind.WRITE, var=var, value=value)

    def send(self, task: int, dst: int, *, tag: int = 0, seq: int = 0) -> Event:
        return self._append(task, kind=EventKind.SEND, peer=dst, tag=tag, seq=seq)

    def recv(self, task: int, src: int, *, tag: int = 0, seq: int = 0) -> Event:
        return self._append(task, kind=EventKind.RECV, peer=src, tag=tag, seq=seq)

    def collective(
        self,
        task: int,
        *,
        context: int = 0,
        epoch: int,
        op: str = "barrier",
        group: Optional[Sequence[int]] = None,
    ) -> Event:
        return self._append(
            task, kind=EventKind.COLLECTIVE, context=context, epoch=epoch,
            op=op, group=tuple(group) if group is not None else None,
        )

    def hls_sync(self, task: int, *, context: Hashable, epoch: int,
                 op: str) -> Event:
        """``task``'s part in one HLS directive episode."""
        return self._append(task, kind=EventKind.HLS_SYNC, context=context,
                            epoch=epoch, op=op)

    def rma(
        self,
        task: int,
        *,
        win: int,
        op: str,
        target: int,
        nbytes: Optional[int] = None,
    ) -> Event:
        """A one-sided access (put/get/accumulate) by ``task``."""
        return self._append(
            task, kind=EventKind.RMA, win=win, op=op, peer=target,
            value=nbytes,
        )

    def epoch_call(
        self,
        task: int,
        *,
        win: int,
        op: str,
        target: Optional[int] = None,
        group: Optional[Sequence[int]] = None,
    ) -> Event:
        """An RMA epoch boundary (fence/post/start/complete/wait/lock)."""
        return self._append(
            task, kind=EventKind.EPOCH, win=win, op=op, peer=target,
            group=tuple(group) if group is not None else None,
        )

    def barrier_all(self, *, context: int = 0, epoch: int) -> List[Event]:
        """Convenience: a barrier episode joined by every task."""
        return [
            self.collective(t, context=context, epoch=epoch, op="barrier")
            for t in range(self.n_tasks)
        ]

    # ------------------------------------------------------------------ query
    def all_events(self) -> List[Event]:
        return [ev for seq in self.events for ev in seq]

    def accesses(self, var: str) -> List[Event]:
        return [
            ev for ev in self.all_events()
            if ev.var == var and ev.kind in (EventKind.READ, EventKind.WRITE)
        ]

    def writes(self, var: str) -> List[Event]:
        return [ev for ev in self.accesses(var) if ev.kind is EventKind.WRITE]

    def reads(self, var: str) -> List[Event]:
        return [ev for ev in self.accesses(var) if ev.kind is EventKind.READ]

    def variables(self) -> List[str]:
        seen: Dict[str, None] = {}
        for ev in self.all_events():
            if ev.var is not None:
                seen.setdefault(ev.var, None)
        return list(seen)

    def __len__(self) -> int:
        return sum(len(s) for s in self.events)


__all__ = ["Event", "EventKind", "Trace"]
