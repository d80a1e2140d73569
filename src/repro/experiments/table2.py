"""Table II: execution time and memory consumption for EulerMHD.

Paper reference (8-core Core2 nodes, 4096^2 mesh, 128MB EOS table):

    | # cores | MPI      | time(s) | avg mem (MB) | max mem (MB) |
    | 256     | MPC HLS  | 145     | 651          | 672          |
    |         | MPC      | 146     | 1570         | 1590         |
    |         | Open MPI | 135     | 1715         | 1786         |
    | 512     | MPC HLS  | 73      | 490          | 550          |
    |         | MPC      | 73      | 1417         | 1466         |
    |         | Open MPI | 68      | 1573         | 1732         |
    | 736     | MPC HLS  | 51      | 455          | 531          |
    |         | MPC      | 51      | 1375         | 1448         |
    |         | Open MPI | 47      | 1574         | 1796         |

Expected shape: HLS saves ~7 x 128MB ~ 900MB/node at every core count;
MPC uses less than Open MPI with a gap growing with cores; HLS time
overhead negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.apps.driver import AppConfig, AppRunResult
from repro.apps.eulermhd import EulerMHDConfig, run_eulermhd
from repro.metrics import Table

PAPER = {
    (256, "MPC HLS"): (145, 651, 672),
    (256, "MPC"): (146, 1570, 1590),
    (256, "Open MPI"): (135, 1715, 1786),
    (512, "MPC HLS"): (73, 490, 550),
    (512, "MPC"): (73, 1417, 1466),
    (512, "Open MPI"): (68, 1573, 1732),
    (736, "MPC HLS"): (51, 455, 531),
    (736, "MPC"): (51, 1375, 1448),
    (736, "Open MPI"): (47, 1574, 1796),
}

VARIANTS: List[Tuple[str, str, bool]] = [
    ("MPC HLS", "mpc", True),
    ("MPC", "mpc", False),
    ("Open MPI", "openmpi", False),
]


@dataclass
class MemoryTableResult:
    """Measured rows of one memory table (II, III or IV)."""

    title: str
    paper: Dict[Tuple[int, str], Tuple[float, float, float]]
    rows: Dict[Tuple[int, str], AppRunResult]

    def render(self) -> str:
        t = Table(
            ["# cores", "MPI", "time (s)", "avg mem (MB)", "max mem (MB)",
             "paper (t/avg/max)"],
            title=self.title,
        )
        for (cores, label), res in sorted(self.rows.items()):
            p = self.paper.get((cores, label))
            t.add_row(
                cores, label,
                f"{res.modeled_time_s:.0f}",
                f"{res.mem.avg_mb:.0f}",
                f"{res.mem.max_mb:.0f}",
                f"{p[0]}/{p[1]}/{p[2]}" if p else "-",
            )
        return t.render()

    def breakdown_report(self) -> str:
        """Where each variant's bytes live: end-of-run live bytes per
        hierarchy level (from ``AppRunResult.memory_metrics``)."""
        lines = [f"{self.title} -- per-level live bytes"]
        for (cores, label), res in sorted(self.rows.items()):
            mm = res.memory_metrics
            if mm is None:
                continue
            detail = ", ".join(
                f"{lvl}={mm.by_level[lvl] / (1 << 20):.1f}MB"
                for lvl in sorted(mm.by_level)
            )
            lines.append(f"  {cores} cores, {label}: {detail}")
        return "\n".join(lines)


def run_memory_table(
    *,
    title: str,
    paper: Dict[Tuple[int, str], Tuple[float, float, float]],
    config: Callable[..., AppConfig],
    run: Callable[[AppConfig], AppRunResult],
    core_counts: Sequence[int],
    **config_overrides,
) -> MemoryTableResult:
    """Regenerate one of Tables II-IV: every variant at every core count
    (``core_counts`` must be multiples of 8)."""
    rows: Dict[Tuple[int, str], AppRunResult] = {}
    for cores in core_counts:
        if cores % 8:
            raise ValueError("core counts must be multiples of 8 (8/node)")
        for label, runtime, hls in VARIANTS:
            cfg = config(
                n_nodes=cores // 8, runtime=runtime, hls=hls, **config_overrides
            )
            rows[(cores, label)] = run(cfg)
    return MemoryTableResult(title=title, paper=paper, rows=rows)


def run_table2(
    *, core_counts: Sequence[int] = (256, 512, 736), **config_overrides
) -> MemoryTableResult:
    """Regenerate Table II (``core_counts`` must be multiples of 8)."""
    return run_memory_table(
        title="Table II -- EulerMHD time and memory per node",
        paper=PAPER, config=EulerMHDConfig, run=run_eulermhd,
        core_counts=core_counts, **config_overrides,
    )


if __name__ == "__main__":  # pragma: no cover
    result = run_table2()
    print(result.render())
    print(result.breakdown_report())
