"""Per-node memory sampling, following the paper's protocol.

"The memory consumption of the application plus the MPI runtime is
measured every 0.1s on each node.  [...] the memory consumption is
stable after a start-up phase thus only the average over time is
reported.  This measure is then averaged on all nodes, the maximum on
all nodes is also presented."  (section V-B)

Applications call :meth:`MemorySampler.sample` at simulated time points
(e.g. once per timestep); :meth:`MemorySampler.report` then skips the
start-up samples and produces the per-node averages, their mean and
their max -- the ``avg. mem.`` / ``max. mem.`` columns of Tables II-IV.

The arena layer (:mod:`repro.memory`) additionally lets every report
say *where* the bytes live: :class:`MemoryMetrics` (the value of
``Runtime.metrics("memory")``) snapshots live bytes per node, per
hierarchy level (``node`` / ``numa`` / ``cache(L)`` / ``core`` /
``task`` / ``segment``) and per allocation kind, and the sampler
carries a time-averaged per-level breakdown into :class:`MemoryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class MemoryMetrics:
    """Point-in-time snapshot of a runtime's live simulated memory.

    ``by_level`` buckets live bytes by hierarchy level machine-wide;
    ``per_node_by_level`` restricts the same breakdown to one node, and
    its values sum to that node's ``per_node`` entry."""

    per_node: Dict[int, int]                       # node -> live bytes
    by_level: Dict[str, int]                       # level -> live bytes
    by_kind: Dict[str, int]                        # kind -> live bytes
    per_node_by_level: Dict[int, Dict[str, int]]   # node -> level -> bytes

    @classmethod
    def from_runtime(cls, runtime) -> "MemoryMetrics":
        mm = runtime.memory
        nodes = sorted({runtime.node_of(r) for r in range(runtime.n_tasks)})
        return cls(
            per_node={n: mm.node_live_bytes(n) for n in nodes},
            by_level=mm.live_by_level(),
            by_kind=mm.live_by_kind(),
            per_node_by_level={n: mm.live_by_level(n) for n in nodes},
        )

    @property
    def total_bytes(self) -> int:
        return sum(self.per_node.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dict for the unified metrics registry (node keys
        stringified for JSON round-tripping)."""
        return {
            "total_bytes": self.total_bytes,
            "per_node": {str(n): b for n, b in self.per_node.items()},
            "by_level": dict(self.by_level),
            "by_kind": dict(self.by_kind),
            "per_node_by_level": {
                str(n): dict(levels)
                for n, levels in self.per_node_by_level.items()
            },
        }

    def render(self) -> str:
        lines = ["memory metrics:"]
        for node in sorted(self.per_node):
            levels = self.per_node_by_level.get(node, {})
            detail = ", ".join(
                f"{lvl}={levels[lvl]}B" for lvl in sorted(levels)
            )
            lines.append(
                f"  node {node}: {self.per_node[node]}B"
                + (f" ({detail})" if detail else "")
            )
        if self.by_kind:
            lines.append("  by kind: " + ", ".join(
                f"{k}={self.by_kind[k]}B" for k in sorted(self.by_kind)
            ))
        return "\n".join(lines)


@dataclass(frozen=True)
class MemoryReport:
    """Aggregated memory statistics of one run."""

    per_node_avg: Dict[int, float]     # bytes, time-averaged per node
    avg_bytes: float                   # mean over nodes
    max_bytes: float                   # max over nodes
    samples: int
    #: time-averaged live bytes per hierarchy level (machine-wide);
    #: empty when the sampled runtime predates the arena layer
    by_level_avg: Dict[str, float] = field(default_factory=dict)
    #: per-level breakdown of the final sample, per node
    per_node_by_level: Dict[int, Dict[str, int]] = field(default_factory=dict)

    @property
    def avg_mb(self) -> float:
        return self.avg_bytes / (1 << 20)

    @property
    def max_mb(self) -> float:
        return self.max_bytes / (1 << 20)


class MemorySampler:
    """Records node memory over (simulated) time for one runtime.

    The set of occupied nodes is recomputed at every :meth:`sample`
    call: task placement can change between samples (``set_task_pu``),
    and a sampler constructed before tasks spread out would otherwise
    keep charging the initial node set forever.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self._series: Dict[int, List[float]] = {}
        self._level_series: Dict[str, List[float]] = {}
        self._level_samples = 0
        self._last_by_level: Dict[int, Dict[str, int]] = {}

    def _nodes(self) -> List[int]:
        rt = self.runtime
        return sorted({rt.node_of(r) for r in range(rt.n_tasks)})

    def sample(self, t: Optional[float] = None) -> None:
        """Record the current consumption of every occupied node."""
        del t  # the paper samples on wall-clock; we sample per call
        for node in self._nodes():
            self._series.setdefault(node, []).append(
                float(self.runtime.node_live_bytes(node))
            )
        mm = getattr(self.runtime, "memory", None)
        if mm is not None:
            for level, size in mm.live_by_level().items():
                self._level_series.setdefault(level, []).append(float(size))
            self._level_samples += 1
            self._last_by_level = {
                node: mm.live_by_level(node) for node in self._nodes()
            }

    def report(self, *, skip_startup: int = 1) -> MemoryReport:
        """Aggregate; ``skip_startup`` drops the first samples of each
        node (the paper reports the stable post-startup average).

        A node whose series has ``skip_startup`` samples or fewer falls
        back to its untrimmed series -- trimming would leave an empty
        list and a mean over zero samples."""
        if skip_startup < 0:
            raise ValueError(f"skip_startup must be >= 0, got {skip_startup}")
        if not self._series:
            raise ValueError("no samples recorded")
        per_node: Dict[int, float] = {}
        count = 0
        for node, series in self._series.items():
            tail = series[skip_startup:]
            if not tail:
                tail = series
            per_node[node] = float(np.mean(tail))
            count += len(series)
        values = list(per_node.values())
        by_level_avg: Dict[str, float] = {}
        for level, series in self._level_series.items():
            # A level absent early on (e.g. RMA mirrors appearing late)
            # has a shorter series; average what was seen, trimming the
            # same startup prefix when the series is long enough.
            tail = series[skip_startup:] if len(series) > skip_startup else series
            by_level_avg[level] = float(np.mean(tail))
        return MemoryReport(
            per_node_avg=per_node,
            avg_bytes=float(np.mean(values)),
            max_bytes=float(np.max(values)),
            samples=count,
            by_level_avg=by_level_avg,
            per_node_by_level=dict(self._last_by_level),
        )


__all__ = ["MemoryMetrics", "MemorySampler", "MemoryReport"]
