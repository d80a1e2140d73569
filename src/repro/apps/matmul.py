"""Matrix multiplication with a common matrix -- the Figure 3 benchmark.

Section V-A2: each MPI task repeatedly performs C <- A.B + C where B is
common to all tasks (listing 4).  Sharing B saves last-level-cache
space: performance of the HLS versions tracks the sequential program
longer as the matrix size grows, while the regular MPI program falls
off the cache first.  In the *update* version B is rewritten between
steps inside an ``hls single``, which (with the node scope) invalidates
the copies cached by the other sockets -- making numa beat node for
sizes where B is cache-resident.

The dgemm is modelled as a blocked schedule at cache-line granularity
(:func:`~repro.memsim.traces.blocked_matmul_trace`) plus an arithmetic
term of ``2 N^3 / flops_per_cycle`` cycles per task-step; the paper's
MKL kernel is compute-dense, so this term keeps the memory effects in
realistic proportion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.driver import place_table
from repro.machine import nehalem_ex_node
from repro.memsim import (
    CacheHierarchy,
    TimingModel,
    blocked_matmul_trace,
    run_phase,
)
from repro.memsim.traces import stream_lines

VARIANTS = ("seq", "none", "node", "numa")


@dataclass(frozen=True)
class MatmulConfig:
    """One point of a Figure 3 series."""

    n: int = 32                      # matrix dimension (n x n doubles)
    update: bool = False
    variant: str = "none"            # seq | none | node | numa
    machine_scale: int = 64
    tasks: int = 32                  # paper: the whole 4-socket node
    warmup_steps: int = 1
    steps: int = 2
    block: int = 16
    mlp: float = 8.0
    flops_per_cycle: float = 16.0    # dense-kernel arithmetic throughput
    seed: int = 7

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")


@dataclass
class MatmulResult:
    """Outcome: performance in flops/cycle per task (Figure 3's y-axis
    up to a constant)."""

    config: MatmulConfig
    perf: float                      # flops per cycle per task
    cycles: float                    # measured cycles
    flops: float                     # measured useful flops per task


def run_matmul(cfg: MatmulConfig) -> MatmulResult:
    """Run one configuration and report flops/cycle per task."""
    machine = nehalem_ex_node(scale=cfg.machine_scale)
    # B per the HLS variant; A and C per task
    elems = cfg.n * cfg.n
    placements, writers = place_table(
        machine, 1 if cfg.variant == "seq" else cfg.tasks,
        cfg.variant if cfg.variant in ("node", "numa") else None,
        elems, {"A": elems * 8, "C": elems * 8},
    )
    pus = [p for p, _, _, _ in placements]
    writer_pus = [placements[w][0] for w in writers]

    hier = CacheHierarchy(machine)
    tm = TimingModel(machine, mlp=cfg.mlp)
    line = hier.line_bytes
    nbytes = cfg.n * cfg.n * 8
    gemm_traces = [
        blocked_matmul_trace(a, b, c, cfg.n, block=cfg.block, line_bytes=line)
        for _pu, b, a, c in placements
    ]
    compute = 2.0 * cfg.n ** 3 / cfg.flops_per_cycle   # per task-step

    total = 0.0
    for step in range(cfg.warmup_steps + cfg.steps):
        measured = step >= cfg.warmup_steps
        if cfg.update and step > 0:
            wtraces = [
                stream_lines(placements[w][1], nbytes, line_bytes=line)
                for w in writers
            ]
            t = run_phase(hier, tm, wtraces, writer_pus, write=True)
            if measured:
                total += t
        t = run_phase(hier, tm, gemm_traces, pus) + compute
        if measured:
            total += t

    flops = 2.0 * cfg.n ** 3 * cfg.steps
    return MatmulResult(config=cfg, perf=flops / total, cycles=total, flops=flops)


__all__ = ["VARIANTS", "MatmulConfig", "MatmulResult", "run_matmul"]
