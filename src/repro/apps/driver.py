"""Where a paper driver meets the runtime.

Every app of the paper's evaluation (§V) has a big constant table, one
``#pragma hls`` at a scope plus one ``single``, and per-task state.
This module builds the runtime, the HLS program, the tables and the
memory sampler for all of them: :func:`run_app` runs one Tables II-IV
cell, :func:`place_table` lays out one Table I / Figure 3 run.  Each
task allocates in a fixed order (table images first, then its own
bytes); the memory and placement numbers depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any, Callable, ClassVar, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.hls import HLSProgram
from repro.machine import core2_cluster
from repro.machine.topology import Machine
from repro.metrics import MemoryMetrics, MemoryReport, MemorySampler
from repro.runtime import CommStats, Runtime
from repro.runtime.config import POLICIES, RuntimeConfig

RUNTIMES = tuple(POLICIES)


def runtime_config(cfg) -> RuntimeConfig:
    """The runtime an app config asks for, and the config's check: an
    unknown ``runtime`` is a ``ValueError``, a combination the runtime
    refuses (``sharing="shared"`` on ``"openmpi"``) an ``MPIError``."""
    if cfg.runtime not in RUNTIMES:
        raise ValueError(f"runtime must be one of {RUNTIMES}")
    return RuntimeConfig(mpi=cfg.runtime, sharing=cfg.sharing, timeout=120.0)


def make_runtime(cfg) -> Runtime:
    """Build the runtime a config asks for."""
    return Runtime(core2_cluster(cfg.n_nodes), n_tasks=cfg.n_tasks,
                   **runtime_config(cfg).options())


@dataclass(frozen=True)
class AppConfig:
    """The fields every Tables II-IV cell has, and their one check."""

    #: the paper table the app fills (named in the HLS-on-Open-MPI error)
    TABLE: ClassVar[str] = ""

    n_nodes: int = 4                 # 8 cores per node
    runtime: str = "mpc"             # mpc | openmpi
    hls: bool = False
    seed: int = 0
    sharing: str = "private"         # zero-copy policy (mpc only)

    def __post_init__(self) -> None:
        runtime_config(self)
        if self.hls and self.runtime == "openmpi":
            # Possible via the shared-segment backend, but the paper
            # only evaluates HLS on MPC.
            raise ValueError(f"Table {self.TABLE} evaluates HLS on MPC only")

    @property
    def n_tasks(self) -> int:
        return self.n_nodes * 8


@dataclass
class AppRunResult:
    """Outcome of one application run (one Tables II-IV row)."""

    app: str
    runtime: str
    hls: bool
    n_cores: int
    modeled_time_s: float
    wall_s: float
    mem: MemoryReport
    comm: CommStats
    checksum: float                  # solver output, for variant equivalence
    #: end-of-run per-node / per-level / per-kind live-bytes snapshot
    memory_metrics: Optional[MemoryMetrics] = None
    #: ``rt.metrics("loadbalance")`` when the app ran a self-scheduled
    #: loop, else None
    loadbalance: Optional[Any] = None

    @property
    def elided_messages(self) -> int:
        """Deliveries whose copy was elided (received in place)."""
        return self.comm.elided

    @property
    def elided_bytes(self) -> int:
        return self.comm.elided_bytes


class NodeTable(NamedTuple):
    """One constant table of doubles, HLS-shared per node when the
    config asks for HLS."""

    name: str
    shape: Tuple[int, ...]
    virtual_bytes: int                # the paper's size, for accounting
    #: fills the table once per instance, inside ``single``; None = no
    #: initialisation
    init: Optional[Callable[[np.ndarray], None]] = None


def run_app(
    cfg: AppConfig,
    app: str,
    tables: Sequence[NodeTable],
    task_bytes: Tuple[str, int],
    kernel: Callable[[Any, Any, MemorySampler], float],
    modeled_time: Callable[[Runtime], float],
) -> AppRunResult:
    """Run one Tables II-IV cell.

    Declares ``tables`` in order, takes the start-up memory sample, and
    on every task allocates ``task_bytes`` (``(label, bytes)``), runs
    each table's initialiser under ``single`` and returns
    ``kernel(ctx, handle, sampler)``.  The checksum is the sum of the
    kernels' returns and the modelled time ``modeled_time(rt)``."""
    rt = make_runtime(cfg)
    prog = HLSProgram(rt, enabled=cfg.hls)
    for t in tables:
        prog.declare(t.name, shape=t.shape, dtype=np.float64, scope="node",
                     virtual_bytes=t.virtual_bytes)
    sampler = MemorySampler(rt)
    sampler.sample()                                  # startup sample
    label, nbytes = task_bytes

    def main(ctx):
        h = prog.attach(ctx)
        ctx.alloc(nbytes, label=label)
        for t in tables:
            # one task per scope instance initialises the shared table
            if t.init is not None and h.single_enter(t.name):
                try:
                    t.init(h[t.name])
                finally:
                    h.single_done(t.name)
        return kernel(ctx, h, sampler)

    t0 = time.monotonic()
    sums = rt.run(main)
    wall = time.monotonic() - t0

    result = AppRunResult(
        app=app,
        runtime=cfg.runtime,
        hls=cfg.hls,
        n_cores=cfg.n_tasks,
        modeled_time_s=modeled_time(rt),
        wall_s=wall,
        mem=sampler.report(),
        comm=rt.stats,
        checksum=float(np.sum(sums)),
        memory_metrics=rt.metrics("memory"),
        loadbalance=rt.metrics("loadbalance") if rt.loop_reports() else None,
    )
    prog.close()    # the result holds snapshots, not the images
    return result


def place_table(
    machine: Machine,
    n_tasks: int,
    scope: Optional[str],
    elems: int,
    private: Dict[str, int],
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Materialise storage through the real runtime + HLS program.

    One table of ``elems`` doubles is shared per ``scope`` instance
    (``None`` = HLS off, a copy per task); then each task allocates
    ``private`` (label -> bytes) in order.  Returns per task ``(pu,
    table_addr, *private_addrs)`` and the ranks that write the table:
    the lowest rank per distinct table address (one per scope instance
    under HLS; every task without)."""
    rt = Runtime(machine, n_tasks=n_tasks, timeout=10.0)
    prog = HLSProgram(rt, enabled=scope is not None)
    prog.declare("table", shape=(elems,), dtype=np.float64, scope=scope)

    def main(ctx):
        h = prog.attach(ctx)
        table_addr = h.addr("table")
        return (ctx.pu, table_addr, *(
            ctx.alloc(nbytes, label=f"{label}-rank{ctx.rank}").addr
            for label, nbytes in private.items()
        ))

    placements = rt.run(main)
    prog.close()
    seen: Dict[int, int] = {}
    for rank, (_pu, table_addr, *_private) in enumerate(placements):
        seen.setdefault(table_addr, rank)
    return placements, sorted(seen.values())


__all__ = [
    "RUNTIMES",
    "AppConfig",
    "AppRunResult",
    "NodeTable",
    "make_runtime",
    "place_table",
    "run_app",
    "runtime_config",
]
