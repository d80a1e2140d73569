"""Table IV: execution time and memory consumption for Tachyon.

Paper reference (736 cores; scene 377MB + image 183MB = 560MB/task):

    | # cores | MPI      | time(s) | avg mem (MB) | max mem (MB) |
    | 736     | MPC HLS  | 83      | 748          | 931          |
    |         | MPC      | 88      | 4786         | 4975         |
    |         | Open MPI | 89      | 4885         | 5118         |

Expected shape: HLS saves ~7 x 560MB ~ 3.9GB/node, and is *faster* than
both baselines because sharing the image removes the intra-node copies
on rank 0's node (the copy-elision path, measured via ``comm.elided``).
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.tachyon import TachyonConfig, run_tachyon
from repro.experiments.table2 import MemoryTableResult, run_memory_table

PAPER = {
    (736, "MPC HLS"): (83, 748, 931),
    (736, "MPC"): (88, 4786, 4975),
    (736, "Open MPI"): (89, 4885, 5118),
}


def run_table4(
    *, core_counts: Sequence[int] = (736,), **config_overrides
) -> MemoryTableResult:
    """Regenerate Table IV."""
    return run_memory_table(
        title="Table IV -- Tachyon time and memory per node",
        paper=PAPER, config=TachyonConfig, run=run_tachyon,
        core_counts=core_counts, **config_overrides,
    )


if __name__ == "__main__":  # pragma: no cover
    result = run_table4()
    print(result.render())
    print(result.breakdown_report())
