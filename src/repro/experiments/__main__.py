"""Run every experiment and print the paper-style tables.

Usage::

    python -m repro.experiments            # quick versions
    python -m repro.experiments --full     # paper-scale sweeps (~2 minutes)
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_intro_hybrid,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    full = "--full" in args
    jobs = [
        ("Intro (hybrid trade-off)", lambda: run_intro_hybrid()),
        ("Figure 1", lambda: run_figure1()),
        ("Figure 2", lambda: run_figure2()),
        (
            "Table I",
            (lambda: run_table1()) if full
            else (lambda: run_table1(sizes=("small",))),
        ),
        (
            "Figure 3",
            (lambda: run_figure3()) if full
            else (lambda: run_figure3(sizes=(16, 40, 64), tasks=16)),
        ),
        (
            "Table II",
            (lambda: run_table2()) if full
            else (lambda: run_table2(core_counts=(256,))),
        ),
        ("Table III", lambda: run_table3()),
        (
            "Table IV",
            (lambda: run_table4()) if full
            else (lambda: run_table4(core_counts=(256,))),
        ),
    ]
    for name, job in jobs:
        t0 = time.monotonic()
        result = job()
        dt = time.monotonic() - t0
        print(f"\n=== {name} ({dt:.1f}s) " + "=" * 40)
        print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
