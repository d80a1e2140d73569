"""Mesh update with a common table -- the Table I micro-benchmark.

Section V-A1: each MPI task owns a 3-D sub-domain (50^3 / 100^3 / 200^3
doubles: ~1MB / ~8MB / ~60MB) and, per time step, updates every cell
using a value interpolated in a common 1000x1000 table (~8MB) accessed
uniformly at random.  In the *update* version the table is rewritten
each step inside an ``hls single``.  Weak-scaling parallel efficiency
(t_seq / t_par) is reported for {no HLS, HLS node, HLS numa}.

This reproduction scales every size down by ``machine_scale`` (default
64) together with the Nehalem-EX caches, preserving all fits-in-cache
relations, and drives the cache simulator with sampled traces:
per step each task performs ``min(cells, read_cap)`` random table
lookups plus a proportional random sample of its mesh lines (random
sampling keeps the *working-set size* of the full mesh visible to the
cache even though only a fraction of accesses is simulated; the
sequential baseline is sampled identically, so the efficiency ratio is
unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.driver import place_table
from repro.machine import nehalem_ex_node
from repro.machine.topology import Machine
from repro.memsim import (
    CacheHierarchy,
    TimingModel,
    random_table_trace,
    run_phase,
)
from repro.memsim.traces import stream_lines

#: Cells per task for the paper's three settings, divided by the default
#: machine_scale=64: paper small=50^3=125k cells (~1MB), medium=100^3
#: (~8MB), large=200^3 (~60MB).
SIZES = {"small": 2048, "medium": 16384, "large": 122880}

#: Paper's table: 1000x1000 doubles ~ 8MB; /64 -> 128KB.
TABLE_BYTES_SCALED = 128 << 10

VARIANTS = ("none", "node", "numa", "cache")


@dataclass(frozen=True)
class MeshUpdateConfig:
    """One Table I cell."""

    size: str = "small"              # small | medium | large
    update: bool = False             # rewrite the table each step?
    variant: str = "none"            # none | node | numa
    machine_scale: int = 64
    warmup_steps: int = 1
    steps: int = 2
    read_cap: int = 8192             # sampled table reads per task-step
    seed: int = 12345
    mlp: float = 8.0
    #: cycles of interpolation arithmetic per cell update; perfectly
    #: parallel work that dilutes memory contention (compute_cell in
    #: listing 3 is real floating-point work, not just loads)
    compute_cycles_per_cell: float = 4.0

    def __post_init__(self) -> None:
        if self.size not in SIZES:
            raise ValueError(f"size must be one of {sorted(SIZES)}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def cells(self) -> int:
        return SIZES[self.size]

    @property
    def table_bytes(self) -> int:
        # paper: 1000x1000 doubles ~ 8MB, divided by machine_scale
        return max(64, (8 << 20) // self.machine_scale // 64 * 64)


@dataclass
class MeshUpdateResult:
    """Outcome of one configuration."""

    config: MeshUpdateConfig
    efficiency: float
    seq_cycles: float
    par_cycles: float
    table_miss_ratio: float          # parallel run, averaged over tasks
    invalidations: int


def _simulate(
    machine: Machine,
    cfg: MeshUpdateConfig,
    placements: List[Tuple[int, int, int]],
    writers: List[int],
    rng: np.random.Generator,
):
    """Drive the cache simulator for one run (any number of tasks).

    The run is *phased* per time step: the table update (inside the
    ``hls single``, which has barrier semantics) completes before the
    read phase starts, so a step's time is the sum of the two phases --
    this is exactly the serialisation that makes the node scope lose to
    the numa scope in the paper's update version.  Returns total cycles
    over the measured steps plus the final stats.
    """
    hier = CacheHierarchy(machine)
    tm = TimingModel(machine, mlp=cfg.mlp)
    line = hier.line_bytes
    # Sampling: simulate 1/f of each task's per-step accesses (reads,
    # mesh touches, and table-update writes alike), which preserves
    # every work ratio while keeping traces tractable.
    factor = max(1, cfg.cells // cfg.read_cap)
    reads = cfg.cells // factor
    table_lines = max(1, cfg.table_bytes // line)
    write_lines = max(1, table_lines // factor)
    mesh_lines_total = max(1, cfg.cells * 8 // line)
    mesh_sample = max(1, mesh_lines_total // factor)
    pus = [p for p, _, _ in placements]
    writer_pus = [placements[w][0] for w in writers]

    total_cycles = 0.0
    for step in range(cfg.warmup_steps + cfg.steps):
        measured = step >= cfg.warmup_steps
        if step == 0:
            # Warm sweep: every task touches its whole table and mesh
            # once (the paper's first iteration loads them; without
            # this, sampled runs would never warm large working sets).
            warm = [
                np.concatenate([
                    stream_lines(t_addr, cfg.table_bytes, line_bytes=line),
                    stream_lines(m_addr, cfg.cells * 8, line_bytes=line),
                ])
                for _pu, t_addr, m_addr in placements
            ]
            run_phase(hier, tm, warm, pus)
        if cfg.update:
            wtraces = []
            for w in writers:
                t_addr = placements[w][1]
                first = t_addr // line
                lines = first + rng.integers(0, table_lines, size=write_lines)
                wtraces.append(lines)
            t = run_phase(hier, tm, wtraces, writer_pus, write=True)
            if measured:
                total_cycles += t
        traces = []
        for _pu, t_addr, m_addr in placements:
            t_trace = random_table_trace(
                t_addr, cfg.table_bytes, reads, rng, line_bytes=line
            )
            m_trace = m_addr // line + rng.integers(
                0, mesh_lines_total, size=mesh_sample
            )
            traces.append(np.concatenate([t_trace, m_trace]))
        t = run_phase(hier, tm, traces, pus)
        t += reads * cfg.compute_cycles_per_cell  # arithmetic per cell
        if measured:
            total_cycles += t
    return total_cycles, hier.stats()


def run_mesh_update(cfg: MeshUpdateConfig) -> MeshUpdateResult:
    """Run one Table I configuration: parallel on the full Nehalem-EX
    node, sequential on one core, and report weak-scaling efficiency."""
    machine = nehalem_ex_node(scale=cfg.machine_scale)
    rng = np.random.default_rng(cfg.seed)

    placements, writers = place_table(
        machine, machine.n_pus, None if cfg.variant == "none" else cfg.variant,
        cfg.table_bytes // 8, {"mesh": cfg.cells * 8},
    )
    par_cycles, par_stats = _simulate(machine, cfg, placements, writers, rng)

    # Sequential baseline: one task, its own private table and mesh --
    # the same per-task work on an otherwise idle machine.
    seq_place = [(0, 1 << 50, (1 << 50) + 2 * cfg.table_bytes)]
    seq_cycles, _seq_stats = _simulate(machine, cfg, seq_place, [0], rng)

    eff = seq_cycles / par_cycles if par_cycles > 0 else 1.0
    miss = float(np.mean([par_stats.miss_ratio(p) for p, _, _ in placements]))
    return MeshUpdateResult(
        config=cfg,
        efficiency=eff,
        seq_cycles=seq_cycles,
        par_cycles=par_cycles,
        table_miss_ratio=miss,
        invalidations=int(par_stats.invalidations_sent.sum()),
    )


__all__ = [
    "SIZES",
    "VARIANTS",
    "MeshUpdateConfig",
    "MeshUpdateResult",
    "run_mesh_update",
]
