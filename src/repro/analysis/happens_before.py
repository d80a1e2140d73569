"""The happens-before relation (paper section III-A).

"We say that a ≺ b if a is executed before b in all schedules
compatible with the partial order defined by the synchronizations of
the parallel program.  If neither a ≺ b nor b ≺ a, we say that a
happens in parallel with b, a ∥ b." (Lamport [6])

The precedence graph is built from three edge families:

* **program order**: consecutive events of one task;
* **messages**: a send precedes its matching receive (matched on
  ``(src, dst, tag, seq)``);
* **collectives**: every participant's episode event precedes every
  participant's *next* event.  This matches both MPI barriers and this
  repository's shared-memory collectives (whose data collectives are
  write -> barrier -> read -> barrier and therefore barrier-strength).

Precedence queries use vector clocks computed in one topological pass
over the DAG (networkx), so ``precedes`` is O(1) after construction.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.analysis.events import Event, EventKind, Trace


class TraceError(ValueError):
    """Inconsistent trace (unmatched message, mismatched episode...)."""


class HappensBefore:
    """Precedence oracle over one trace."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.graph = nx.DiGraph()
        self._build()
        self._clocks: Dict[Hashable, np.ndarray] = {}
        self._compute_clocks()

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        g = self.graph
        tr = self.trace
        for seq in tr.events:
            for ev in seq:
                g.add_node(ev.eid)
            for a, b in zip(seq, seq[1:]):
                g.add_edge(a.eid, b.eid)

        # message edges
        sends: Dict[Tuple[int, int, int, int], Event] = {}
        recvs: Dict[Tuple[int, int, int, int], Event] = {}
        for ev in tr.all_events():
            if ev.kind is EventKind.SEND:
                key = (ev.task, ev.peer, ev.tag, ev.seq)
                if key in sends:
                    raise TraceError(f"duplicate send key {key}")
                sends[key] = ev
            elif ev.kind is EventKind.RECV:
                key = (ev.peer, ev.task, ev.tag, ev.seq)
                if key in recvs:
                    raise TraceError(f"duplicate recv key {key}")
                recvs[key] = ev
        for key, r in recvs.items():
            s = sends.get(key)
            if s is None:
                raise TraceError(f"recv {r} has no matching send (key {key})")
            g.add_edge(s.eid, r.eid)

        # collective episodes: virtual node per (context, epoch)
        episodes: Dict[Tuple[int, int], List[Event]] = {}
        for ev in tr.all_events():
            if ev.kind in (EventKind.COLLECTIVE, EventKind.HLS_SYNC):
                episodes.setdefault((ev.context, ev.epoch), []).append(ev)
        for (ctx, epoch), members in episodes.items():
            vnode = ("episode", ctx, epoch)
            g.add_node(vnode)
            for ev in members:
                g.add_edge(ev.eid, vnode)
                nxt = self._next_of(ev)
                if nxt is not None:
                    g.add_edge(vnode, nxt.eid)

        if not nx.is_directed_acyclic_graph(g):
            raise TraceError("synchronizations form a cycle; trace impossible")

    def _next_of(self, ev: Event) -> Optional[Event]:
        seq = self.trace.events[ev.task]
        return seq[ev.index + 1] if ev.index + 1 < len(seq) else None

    # ------------------------------------------------------------------ clocks
    def _compute_clocks(self) -> None:
        n = self.trace.n_tasks
        for node in nx.topological_sort(self.graph):
            clock = np.zeros(n, dtype=np.int64)
            for pred in self.graph.predecessors(node):
                np.maximum(clock, self._clocks[pred], out=clock)
            if not (isinstance(node, tuple) and node and node[0] == "episode"):
                task, index = node
                clock[task] = index + 1
            self._clocks[node] = clock

    # ------------------------------------------------------------------ query
    def precedes(self, a: Event, b: Event) -> bool:
        """a ≺ b (strict)."""
        if a.eid == b.eid:
            return False
        return int(self._clocks[b.eid][a.task]) >= a.index + 1

    def parallel(self, a: Event, b: Event) -> bool:
        """a ∥ b."""
        return (
            a.eid != b.eid
            and not self.precedes(a, b)
            and not self.precedes(b, a)
        )

    def clock(self, ev: Event) -> np.ndarray:
        return self._clocks[ev.eid].copy()


def rma_epoch_violations(trace: Trace) -> List[Tuple[Event, str]]:
    """Offline RMA epoch-misuse detection over one trace.

    Replays each task's program order tracking the origin-side epoch
    state per window -- fence epochs (``fence`` opens, ``fence_end``
    closes), PSCW access epochs (``start`` opens for its group,
    ``complete`` closes) and passive-target locks (``lock_*``/
    ``lock_all`` open per target, ``unlock``/``unlock_all`` close) --
    and reports every :attr:`EventKind.RMA` access not covered by an
    open epoch for its target, the same rule the runtime enforces
    online with :class:`~repro.runtime.errors.RMAEpochError`.
    """
    violations: List[Tuple[Event, str]] = []
    for seq in trace.events:
        fence_open: Dict[int, bool] = {}
        started: Dict[int, Tuple[int, ...]] = {}
        locks: Dict[int, set] = {}
        lock_all: Dict[int, bool] = {}
        for ev in seq:
            win = ev.win if ev.win is not None else -1
            if ev.kind is EventKind.EPOCH:
                op = ev.op or ""
                if op == "fence":
                    fence_open[win] = True
                elif op == "fence_end":
                    fence_open[win] = False
                elif op == "start":
                    started[win] = ev.group or ()
                elif op == "complete":
                    started.pop(win, None)
                elif op.startswith("lock_") and op != "lock_all":
                    locks.setdefault(win, set()).add(ev.peer)
                elif op == "unlock":
                    locks.get(win, set()).discard(ev.peer)
                elif op == "lock_all":
                    lock_all[win] = True
                elif op == "unlock_all":
                    lock_all[win] = False
            elif ev.kind is EventKind.RMA:
                covered = (
                    fence_open.get(win, False)
                    or ev.peer in started.get(win, ())
                    or lock_all.get(win, False)
                    or ev.peer in locks.get(win, set())
                )
                if not covered:
                    violations.append((
                        ev,
                        f"{ev.op} to target {ev.peer} on window {win} "
                        f"outside any access epoch",
                    ))
    return violations


__all__ = ["HappensBefore", "TraceError", "rma_epoch_violations"]
