"""Collective-operation counters.

What the collective engine (:mod:`repro.runtime.icoll`) did, observably:
``clones`` counts payload copies actually performed, ``clones_elided``
copies skipped by the zero-copy fast path; an *episode* is one
collective on one communicator, counted under the cell shape it was
planned with, and ``icoll_cells`` / ``icoll_steals`` count the cells
those episodes executed and how many ran on a rank other than their
owner.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.metrics.report import Table


class CollectiveMetrics:
    """Aggregated counters for one runtime's collectives (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: payload clones actually performed (copies of mutable payloads)
        self.clones = 0
        #: clones skipped by the zero-copy fast path
        self.clones_elided = 0
        #: planned collective episodes, blocking and nonblocking, per
        #: algorithm ("flat" | "hierarchical" | "pipelined")
        self.icoll_episodes: Dict[str, int] = {}
        #: dataflow cells executed by the engine
        self.icoll_cells = 0
        #: cells executed by a rank other than their owner (work
        #: stealing: a waiting rank progressing a busy peer's cells)
        self.icoll_steals = 0

    # ------------------------------------------------------------- recording
    def note_icoll_episode(self, algorithm: str) -> None:
        with self._lock:
            self.icoll_episodes[algorithm] = (
                self.icoll_episodes.get(algorithm, 0) + 1
            )

    def note_icoll_cell(self, *, stolen: bool) -> None:
        with self._lock:
            self.icoll_cells += 1
            if stolen:
                self.icoll_steals += 1

    def note_clone(self) -> None:
        with self._lock:
            self.clones += 1

    def note_elision(self) -> None:
        with self._lock:
            self.clones_elided += 1

    # ------------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "clones": self.clones,
                "clones_elided": self.clones_elided,
                "icoll_episodes": dict(self.icoll_episodes),
                "icoll_cells": self.icoll_cells,
                "icoll_steals": self.icoll_steals,
            }

    def render(self) -> str:
        table = Table(["counter", "value"], title="collective metrics")
        table.add_row("clones", self.clones)
        table.add_row("clones elided", self.clones_elided)
        for label in sorted(self.icoll_episodes):
            table.add_row(f"icoll episodes[{label}]", self.icoll_episodes[label])
        table.add_row("icoll cells", self.icoll_cells)
        table.add_row("icoll cells stolen", self.icoll_steals)
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CollectiveMetrics(episodes={self.icoll_episodes}, "
            f"cells={self.icoll_cells}, clones={self.clones}, "
            f"elided={self.clones_elided})"
        )


__all__ = ["CollectiveMetrics"]
