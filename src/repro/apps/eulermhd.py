"""EulerMHD-like solver -- the Table II application.

Section V-B1: a pure MPI code solving Euler + ideal MHD at high order
on a 2-D Cartesian mesh (4096^2).  The equation of state of the gas is
a 2-D table (~128MB), constant across MPI tasks: one ``#pragma hls
node`` plus one ``single`` around its initialisation shares it, saving
about 7 x 128MB = 896MB per 8-core node.

This reproduction runs a *real* (scaled) solver on the runtime -- halo
exchanges, an EOS lookup through the (possibly HLS-shared) table, a
stencil update -- while the memory accountant carries the paper's
*true* sizes via virtual allocations:

* EOS table: 128MB accounting, 32KB live;
* solver state: ``SOLVER_BASE + SOLVER_GLOBAL / n_tasks`` per task,
  fitted to Table II's strong-scaling memory trend (the per-task share
  of the global field arrays shrinks as cores grow).

Run time is reported two ways: ``wall_s`` (actual Python wall clock,
only meaningful for relative overhead checks) and ``modeled_time_s``
from a fitted strong-scaling model ``K / n + C`` (the paper's
145/73/51s at 256/512/736 cores lie on exactly such a line), with a
small per-runtime factor reflecting Open MPI's faster p2p on the
paper's cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.driver import AppConfig, AppRunResult, NodeTable, run_app

# -- fitted model constants (documented in EXPERIMENTS.md) ----------------
EOS_TABLE_BYTES = 128 << 20          # paper: ~128MB EOS table
SOLVER_BASE = 24 << 20               # per-task fixed solver state
SOLVER_GLOBAL = 10 << 30             # global field data, divided by tasks
TIME_K = 36_900.0                    # core-seconds of compute
TIME_C = 1.0                         # non-scaling seconds
TIME_FACTOR = {"mpc": 1.0, "openmpi": 0.93}


@dataclass(frozen=True)
class EulerMHDConfig(AppConfig):
    """One Table II cell."""

    TABLE = "II"

    seed: int = 3
    steps: int = 4
    local_n: int = 24                # live per-task mesh block (scaled)
    eos_n: int = 64                  # live EOS table resolution


def run_eulermhd(cfg: EulerMHDConfig) -> AppRunResult:
    """Run one configuration; returns time + memory in Table II form."""
    n = cfg.local_n

    def init_eos(tbl):
        ii = np.arange(cfg.eos_n)
        tbl[...] = 1.0 + np.add.outer(ii, ii) / (2.0 * cfg.eos_n)

    def kernel(ctx, h, sampler):
        c = ctx.comm_world
        rng = np.random.default_rng(cfg.seed + ctx.rank)
        table = h["eos_table"]

        density = rng.random((n, n)) + 0.5
        energy = rng.random((n, n)) + 0.5
        left = (ctx.rank - 1) % ctx.size
        right = (ctx.rank + 1) % ctx.size
        for step in range(cfg.steps):
            # nonblocking halo exchange (1-D decomposition of the global
            # mesh): start the neighborhood collective, overlap the EOS
            # lookup -- which needs no halo -- with the exchange, and
            # complete only when the stencil actually needs the column
            halo = np.ascontiguousarray(density[:, -1])
            req = c.ineighbor_exchange({right: halo})
            # EOS lookup: pressure from (density, energy) via the table
            di = np.clip((density * (cfg.eos_n - 1) / 2).astype(int), 0, cfg.eos_n - 1)
            ei = np.clip((energy * (cfg.eos_n - 1) / 2).astype(int), 0, cfg.eos_n - 1)
            pressure = table[di, ei]
            got = req.wait()[left]
            # stencil update
            density[:, 0] = 0.5 * (density[:, 0] + got)
            density = 0.25 * (
                np.roll(density, 1, 0) + np.roll(density, -1, 0)
                + np.roll(density, 1, 1) + np.roll(density, -1, 1)
            ) + 0.01 * pressure
            energy = 0.99 * energy + 0.01 * pressure
            if ctx.rank == 0:
                sampler.sample()
            c.barrier()
        return float(density.sum())

    return run_app(
        cfg, "eulermhd",
        [NodeTable("eos_table", (cfg.eos_n, cfg.eos_n), EOS_TABLE_BYTES,
                   init_eos)],
        ("solver-fields", SOLVER_BASE + SOLVER_GLOBAL // cfg.n_tasks),
        kernel,
        lambda rt: TIME_K * TIME_FACTOR[cfg.runtime] / cfg.n_tasks + TIME_C,
    )


__all__ = ["EOS_TABLE_BYTES", "EulerMHDConfig", "run_eulermhd"]
