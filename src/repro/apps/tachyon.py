"""Tachyon-like ray tracer -- the Table IV application.

Section V-B3: a parallel ray tracer; the scene (~377MB of objects and
textures) is replicated across tasks because rays bounce unpredictably,
and the image (4000^2, ~183MB) is replicated for code simplicity; only
rank 0 assembles the full image by receiving every task's part.  Both
can be HLS: the scene is read-only during rendering, and tasks write
disjoint image parts.  On the node hosting rank 0 the image sharing
additionally removes intra-node communication: "point to point
communications on the same node are realized with memory and if the
source and the destination are identical, this copy is not realized".

The reproduction renders a real (small) sphere scene per task strip and
gathers the strips to rank 0 through genuine receives into the image
buffer, so the copy elision is *measured* (``comm.elided``), not
assumed.  Accounting carries the paper's true sizes (scene 377MB,
image 183MB).  Run time combines the fitted compute term with a copy
model driven by the measured copy counts, scaled to the paper's 5000
frames -- reproducing the effect that HLS is the *fastest* variant
because rank 0's node copies less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.driver import AppConfig, AppRunResult, NodeTable, run_app
from repro.scheduler import dynamic_for, node_chunk_tables, make_policy

#: modeled seconds per covered sphere-row in the dynamic path (the
#: rendering cost a chunk's rows represent; empty sky is nearly free --
#: the skew static row decomposition balances badly)
DYN_COST_S = 1e-3

SCENE_BYTES = 377 << 20              # paper: scene objects + textures
IMAGE_BYTES = 183 << 20              # paper: 4000x4000 RGB
APP_BASE = 32 << 20                  # per-task buffers, rank, misc state
TIME_K = 61_000.0                    # core-seconds of ray tracing
FRAMES_FULL = 5000                   # paper's frame count
#: seconds per (paper-scale) intra-node image copy on rank 0's node,
#: over the full 5000 frames; fitted so the elision saves ~5s as in
#: Table IV (83s vs 88s)
COPY_COST_S = 5.0 / (7 * FRAMES_FULL)


@dataclass(frozen=True)
class TachyonConfig(AppConfig):
    """One Table IV cell."""

    TABLE = "IV"

    seed: int = 5
    frames: int = 2                  # live frames (scaled from 5000)
    width: int = 64                  # live image width
    height: int = 0                  # live image height; 0 = 2 rows/task
    n_spheres: int = 12
    #: "static" = the legacy one-strip-per-task decomposition; anything
    #: else ("even" | "fixed[:K]" | "guided[:MIN]" | "factoring[:MIN]")
    #: self-schedules row chunks through ``scheduler.dynamic_for``
    schedule: str = "static"
    steal: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.height == 0:
            object.__setattr__(self, "height", 2 * self.n_tasks)
        if self.height % self.n_tasks:
            raise ValueError("height must divide evenly among tasks")


def _render_strip(
    spheres: np.ndarray, y0: int, y1: int, width: int, height: int
) -> np.ndarray:
    """Trace one horizontal strip against the sphere scene.

    Orthographic rays along +z; returns (y1-y0, width) intensities."""
    ys, xs = np.mgrid[y0:y1, 0:width]
    px = xs / width - 0.5
    py = ys / height - 0.5
    out = np.zeros(px.shape)
    for cx, cy, cz, r, bright in spheres:
        dx = px - cx
        dy = py - cy
        d2 = dx * dx + dy * dy
        hit = d2 < r * r
        depth = cz - np.sqrt(np.maximum(r * r - d2, 0.0))
        shade = bright * (1.0 - np.sqrt(d2) / r)
        out = np.where(hit & (out < shade), shade, out)
    return out


def _sphere_row_spans(spheres: np.ndarray, height: int) -> list:
    """Per sphere, the inclusive integer row range it can touch: a hit
    needs ``|py - cy| < r``, so rows outside the conservative bound can
    be skipped without changing a single pixel."""
    spans = []
    for _cx, cy, _cz, r, _bright in spheres:
        y_min = int(np.ceil((cy - r + 0.5) * height))
        y_max = int(np.floor((cy + r + 0.5) * height))
        spans.append((max(y_min, 0), min(y_max, height - 1)))
    return spans


def _render_rows(
    spheres: np.ndarray, spans: list, lo: int, hi: int,
    width: int, height: int,
) -> tuple:
    """Trace rows ``[lo, hi)`` with per-sphere row culling.

    Pixels are computed row-independently and spheres are visited in
    scene order, so the image is bit-identical for any chunking of the
    row space.  Returns ``(strip, work)`` where work counts covered
    sphere-rows -- the deterministic cost measure of the chunk."""
    ys, xs = np.mgrid[lo:hi, 0:width]
    px = xs / width - 0.5
    py = ys / height - 0.5
    out = np.zeros(px.shape)
    work = 0.0
    for (y0, y1), (cx, cy, _cz, r, bright) in zip(spans, spheres):
        rows = min(y1, hi - 1) - max(y0, lo) + 1
        if rows <= 0:
            continue
        work += float(rows)
        dx = px - cx
        dy = py - cy
        d2 = dx * dx + dy * dy
        hit = d2 < r * r
        shade = bright * (1.0 - np.sqrt(d2) / r)
        out = np.where(hit & (out < shade), shade, out)
    return out, work


def _dynamic_render_loop(ctx, cfg: TachyonConfig, scene, image, sampler):
    """Self-scheduled rendering: row chunks are claimed/stolen through
    ``dynamic_for``; every executed chunk sends its rows to rank 0
    under a (frame, first-row) tag, and rank 0 -- which knows the
    deterministic chunk tables -- receives each chunk from whichever
    task rendered it (``ANY_SOURCE``), so assembly is independent of
    the dynamic execution placement."""
    from repro.runtime import ANY_SOURCE

    c = ctx.comm_world
    spheres = np.asarray(scene).copy()
    spans = _sphere_row_spans(spheres, cfg.height)
    _, tables = node_chunk_tables(
        ctx.runtime, c, cfg.height, make_policy(cfg.schedule)
    )
    all_chunks = sorted(ch for chunks in tables.values() for ch in chunks)
    total = 0.0
    for frame in range(cfg.frames):
        def body(lo, hi):
            strip, work = _render_rows(
                spheres, spans, lo, hi, cfg.width, cfg.height
            )
            image[lo:hi, :] = strip
            ctx.sleep(work * DYN_COST_S)
            c.send(image[lo:hi, :], dest=0, tag=frame * cfg.height + lo)
            return work

        dynamic_for(
            ctx, cfg.height, body, policy=cfg.schedule, steal=cfg.steal,
            label=f"tachyon.frame{frame}",
        )
        if ctx.rank == 0:
            for lo, hi in all_chunks:
                c.recv(source=ANY_SOURCE, tag=frame * cfg.height + lo,
                       buf=image[lo:hi, :])
            total += float(image.sum())
            sampler.sample()
        c.barrier()
    return total


def run_tachyon(cfg: TachyonConfig) -> AppRunResult:
    """Run one configuration; returns the Table IV row."""
    rows_per_task = cfg.height // cfg.n_tasks

    def init_scene(sc):
        rng = np.random.default_rng(cfg.seed)
        sc[:, 0:2] = rng.uniform(-0.4, 0.4, (cfg.n_spheres, 2))
        sc[:, 2] = rng.uniform(1.0, 2.0, cfg.n_spheres)
        sc[:, 3] = rng.uniform(0.05, 0.2, cfg.n_spheres)
        sc[:, 4] = rng.uniform(0.3, 1.0, cfg.n_spheres)

    def kernel(ctx, h, sampler):
        c = ctx.comm_world
        scene = h["scene"]
        image = h["image"]
        if cfg.schedule != "static":
            return _dynamic_render_loop(ctx, cfg, scene, image, sampler)
        y0 = ctx.rank * rows_per_task
        y1 = y0 + rows_per_task
        total = 0.0
        for frame in range(cfg.frames):
            strip = _render_strip(
                np.asarray(scene), y0, y1, cfg.width, cfg.height
            )
            # each task stores its strip in its (shared or private) image
            image[y0:y1, :] = strip
            c.barrier()   # strips complete before assembly
            if ctx.rank == 0:
                # assemble the full frame: receive every strip into the
                # image -- same-node sends into the shared image elide
                for src in range(1, ctx.size):
                    sy0 = src * rows_per_task
                    c.recv(source=src, tag=frame,
                           buf=image[sy0:sy0 + rows_per_task, :])
                total += float(image.sum())
                sampler.sample()
            else:
                c.send(image[y0:y1, :], dest=0, tag=frame)
            c.barrier()
        return total

    def modeled_time(rt):
        # Copy model: rank-0's node performs (copied strips on node 0)
        # real memcpys per frame; elided ones are free.  Scale measured
        # counts to the paper's 5000 frames.
        node0_local = len(rt.tasks_on_node(0)) - 1   # senders on rank 0's node
        copied_per_frame = node0_local - (rt.stats.elided // max(cfg.frames, 1))
        copy_s = max(copied_per_frame, 0) * FRAMES_FULL * COPY_COST_S
        return TIME_K / cfg.n_tasks + copy_s + (
            1.0 if cfg.runtime == "openmpi" else 0.0   # extra sender-side copies
        )

    return run_app(
        cfg, "tachyon",
        [NodeTable("scene", (cfg.n_spheres, 5), SCENE_BYTES, init_scene),
         NodeTable("image", (cfg.height, cfg.width), IMAGE_BYTES)],
        ("buffers+rank-state", APP_BASE),
        kernel,
        modeled_time,
    )


__all__ = [
    "SCENE_BYTES",
    "IMAGE_BYTES",
    "TachyonConfig",
    "run_tachyon",
]
