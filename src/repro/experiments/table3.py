"""Table III: execution time and memory consumption for Gadget-2.

Paper reference (256 cores):

    | # cores | MPI      | time(s) | avg mem (MB) | max mem (MB) |
    | 256     | MPC HLS  | 1540    | 703          | 747          |
    |         | MPC      | 1540    | 938          | 988          |
    |         | Open MPI | 1438    | 1731         | 1742         |

Expected shape: HLS saves ~7 x 33MB ~ 230MB/node; the Open MPI column
is far above MPC because Gadget's all-pairs communication pattern
instantiates eager buffers for every connection; HLS time overhead
negligible.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.gadget import GadgetConfig, run_gadget
from repro.experiments.table2 import MemoryTableResult, run_memory_table

PAPER = {
    (256, "MPC HLS"): (1540, 703, 747),
    (256, "MPC"): (1540, 938, 988),
    (256, "Open MPI"): (1438, 1731, 1742),
}


def run_table3(
    *, core_counts: Sequence[int] = (256,), **config_overrides
) -> MemoryTableResult:
    """Regenerate Table III."""
    return run_memory_table(
        title="Table III -- Gadget-2 time and memory per node",
        paper=PAPER, config=GadgetConfig, run=run_gadget,
        core_counts=core_counts, **config_overrides,
    )


if __name__ == "__main__":  # pragma: no cover
    result = run_table3()
    print(result.render())
    print(result.breakdown_report())
