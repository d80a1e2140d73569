"""Point-to-point path counters.

The indexed matcher and the zero-copy delivery path are performance
claims; this module makes them observable.  Counters live where the
events happen -- matcher comparison counts on each mailbox, traffic and
copy counters in the runtime's per-task :class:`CommStats` shards --
and are *aggregated on read*, so the message hot path never takes a
global metrics lock (the PR 2 sharded-counter design).

``P2PMetrics.from_runtime(rt)`` takes the snapshot; ``snapshot()``
returns it as a plain dict for benchmark ``extra_info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.metrics.report import Record


@dataclass
class P2PMetrics(Record):
    """One runtime's aggregated point-to-point counters."""

    TITLE = "p2p metrics"
    DERIVED = {"comparisons": ("comparisons_per_delivery",)}
    ROUND = {"comparisons_per_delivery": 3}

    #: matcher algorithm of the runtime's mailboxes
    matcher: str = "indexed"
    #: envelopes posted to / matched out of all mailboxes
    posted: int = 0
    delivered: int = 0
    pending: int = 0
    #: matcher match-step count: envelopes examined (linear) or bucket
    #: lookups (indexed) -- same unit, directly comparable
    comparisons: int = 0
    #: times a parked receiver was woken (the mailboxes' ``parks``)
    wakeups: int = 0
    # traffic / copy counters: Runtime.stats' CommStats fields, same names
    messages: int = 0
    bytes: int = 0
    intra_node: int = 0
    inter_node: int = 0
    send_copies: int = 0
    recv_copies: int = 0
    elided: int = 0
    elided_bytes: int = 0

    @classmethod
    def from_runtime(cls, runtime: Any) -> "P2PMetrics":
        """Aggregate the per-mailbox and per-task-shard counters of one
        runtime into a snapshot."""
        m = cls(matcher=runtime.mailbox(0).matcher.algorithm,
                **vars(runtime.stats))
        for rank in range(runtime.n_tasks):
            mbox = runtime.mailbox(rank)
            m.posted += mbox.posted
            m.delivered += mbox.delivered
            m.pending += mbox.pending_count()
            m.comparisons += mbox.matcher.comparisons
            m.wakeups += mbox.parks
        return m

    # ------------------------------------------------------------- derived
    @property
    def comparisons_per_delivery(self) -> float:
        """Mean matcher steps per successful match (1.0 is the indexed
        matcher's exact-receive ideal; the linear matcher pays O(pending))."""
        return self.comparisons / self.delivered if self.delivered else 0.0


__all__ = ["P2PMetrics"]
