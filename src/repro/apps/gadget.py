"""Gadget-2-like N-body SPH step -- the Table III application.

Section V-B2: cosmological N-body/SPH with periodic boundary
conditions; force and potential corrections are trilinearly
interpolated from a precomputed Ewald-summation table (~33MB), constant
across tasks -- one ``hls node`` pragma plus one ``single`` saves about
7 x 33MB = 230MB per node.

The reproduction runs a scaled direct-summation gravity step with a
real trilinear Ewald lookup.  Two Gadget-specific memory behaviours are
modelled faithfully:

* the Ewald table (33MB accounting, ~256KB live, HLS-shareable);
* Gadget's communication pattern talks to *every* peer (domain and
  tree-walk exchanges), so on a process-based MPI every rank pair ends
  up with eager connection buffers -- the reason Table III's Open MPI
  column is so much larger than Table II's at the same core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.driver import AppConfig, AppRunResult, NodeTable, run_app
from repro.scheduler import dynamic_for

#: near-field radius of the dynamic path's clustered force loop
NEAR_RADIUS = 0.12
#: modeled seconds per near-interaction refinement unit: the dynamic
#: loop sleeps this long per unit of chunk work, so task occupancy (and
#: the claim order that drives load balance) follows the modeled
#: compute cost rather than the GIL's coarse thread quantum
DYN_COST_S = 1e-5

EWALD_TABLE_BYTES = 33 << 20         # paper: ~33MB Ewald correction table
PARTICLE_BASE = 16 << 20             # per-task particle + tree storage
PARTICLE_GLOBAL = 16 << 30           # global particle data, divided by tasks
TIME_K = 394_000.0                   # core-seconds (1540s at 256 cores)
TIME_FACTOR = {"mpc": 1.0, "openmpi": 0.933}


@dataclass(frozen=True)
class GadgetConfig(AppConfig):
    """One Table III cell."""

    TABLE = "III"

    seed: int = 11
    steps: int = 3
    particles_per_task: int = 64     # live (scaled) particle count
    ewald_n: int = 32                # live Ewald table resolution (n^3)
    connect_all_peers: bool = True   # Gadget's all-pairs exchange pattern
    #: "static" = the legacy per-task decomposition; anything else
    #: ("even" | "fixed[:K]" | "guided[:MIN]" | "factoring[:MIN]") runs
    #: the clustered particle loop through ``scheduler.dynamic_for``
    #: ("even" being the measured static oracle of that same loop)
    schedule: str = "static"


def _trilinear(table: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of table (n,n,n) at positions in [0,1)^3."""
    n = table.shape[0]
    x = pos * (n - 1)
    i = np.clip(x.astype(int), 0, n - 2)
    f = x - i
    out = np.zeros(len(pos))
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (
                    (f[:, 0] if dx else 1 - f[:, 0])
                    * (f[:, 1] if dy else 1 - f[:, 1])
                    * (f[:, 2] if dz else 1 - f[:, 2])
                )
                out += w * table[i[:, 0] + dx, i[:, 1] + dy, i[:, 2] + dz]
    return out


def _clustered_particles(cfg: GadgetConfig) -> np.ndarray:
    """The dynamic path's *global* particle set, identical on every
    task: one third sits in a dense blob (many near neighbours = heavy
    iterations), the rest is uniform, and sorting by x turns the blob
    into a contiguous run of expensive iterations -- the skew a static
    decomposition handles badly."""
    rng = np.random.default_rng(cfg.seed)
    n_total = cfg.particles_per_task * cfg.n_tasks
    n_dense = n_total // 3
    dense = 0.5 + 0.04 * rng.standard_normal((n_dense, 3))
    rest = rng.random((n_total - n_dense, 3))
    pos = np.clip(np.vstack([dense, rest]), 0.0, 0.999999)
    return pos[np.argsort(pos[:, 0], kind="stable")]


def _dynamic_step_loop(ctx, cfg: GadgetConfig, ewald, sampler) -> float:
    """Self-scheduled gravity: iteration i computes particle i's force
    against the whole set, with the near field refined once per 64
    near neighbours (a tree-refinement analog -- recomputation is
    idempotent, so results are bit-equal across any chunking).  Forces
    are written exactly once each, so a plain allreduce of the
    zero-initialised per-task arrays assembles the step."""
    c = ctx.comm_world
    pos = _clustered_particles(cfg)
    vel = np.zeros_like(pos)
    r2_near = NEAR_RADIUS * NEAR_RADIUS
    for step in range(cfg.steps):
        force = np.zeros_like(pos)

        def body(lo, hi):
            work = 0.0
            for i in range(lo, hi):
                d = pos[i] - pos
                r2 = (d * d).sum(1) + 1e-3
                contrib = d / r2[:, None] ** 1.5
                far = contrib[r2 >= r2_near].sum(0)
                near_mask = r2 < r2_near
                k = int(near_mask.sum())
                # refine the near field in passes, one per 64 near
                # neighbours -- the workload skew the blob creates
                passes = 1 + k // 64
                for _ in range(passes):
                    near = contrib[near_mask].sum(0)
                force[i] = far + near
                work += float(k * passes)
            ctx.sleep(work * DYN_COST_S)
            return work

        dynamic_for(
            ctx, len(pos), body, policy=cfg.schedule,
            label=f"gadget.step{step}",
        )
        force = c.allreduce(force)
        corr = _trilinear(ewald, pos)
        vel += 0.001 * (force + corr[:, None])
        pos = (pos + 0.001 * vel) % 1.0
        c.allgather(pos.mean(0))
        if ctx.rank == 0:
            sampler.sample()
        c.barrier()
    # vel is replicated; only rank 0 reports so the caller's sum over
    # ranks equals the global figure
    return float(np.abs(vel).sum()) if ctx.rank == 0 else 0.0


def run_gadget(cfg: GadgetConfig) -> AppRunResult:
    """Run one configuration; returns time + memory in Table III form."""

    def init_ewald(tbl):
        g = np.linspace(0, 1, cfg.ewald_n)
        tbl[...] = np.exp(
            -(g[:, None, None] ** 2 + g[None, :, None] ** 2
              + g[None, None, :] ** 2)
        )

    def kernel(ctx, h, sampler):
        c = ctx.comm_world
        rng = np.random.default_rng(cfg.seed + ctx.rank)
        ewald = h["ewald_table"]

        pos = rng.random((cfg.particles_per_task, 3))
        vel = np.zeros_like(pos)
        if cfg.connect_all_peers and ctx.size > 1:
            # domain/tree-walk exchange touches every peer once --
            # establishing the all-pairs connections Gadget is known for
            for d in range(1, ctx.size):
                dest = (ctx.rank + d) % ctx.size
                src = (ctx.rank - d) % ctx.size
                c.sendrecv(np.array([float(ctx.rank)]), dest=dest,
                           source=src, sendtag=d)
        if cfg.schedule != "static":
            return _dynamic_step_loop(ctx, cfg, ewald, sampler)
        for step in range(cfg.steps):
            # local direct-summation gravity on own particles
            diff = pos[:, None, :] - pos[None, :, :]
            dist2 = (diff ** 2).sum(-1) + 1e-3
            force = (diff / dist2[..., None] ** 1.5).sum(1)
            # periodic correction via the shared Ewald table
            corr = _trilinear(ewald, pos)
            vel += 0.001 * (force + corr[:, None])
            pos = (pos + 0.001 * vel) % 1.0
            # exchange centre-of-mass summaries with all tasks
            c.allgather(pos.mean(0))
            if ctx.rank == 0:
                sampler.sample()
            c.barrier()
        return float(np.abs(vel).sum())

    n = cfg.ewald_n
    return run_app(
        cfg, "gadget",
        [NodeTable("ewald_table", (n, n, n), EWALD_TABLE_BYTES, init_ewald)],
        ("particles+tree", PARTICLE_BASE + PARTICLE_GLOBAL // cfg.n_tasks),
        kernel,
        lambda rt: TIME_K * TIME_FACTOR[cfg.runtime] / cfg.n_tasks,
    )


__all__ = ["EWALD_TABLE_BYTES", "GadgetConfig", "run_gadget"]
