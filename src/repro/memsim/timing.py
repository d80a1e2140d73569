"""Latency + bandwidth cost model.

Converts an :class:`~repro.memsim.hierarchy.AccessStats` profile into
cycle counts.  Two effects bound parallel execution time:

* **latency**: each PU's accesses cost the latency of the level that
  served them (remote-cache services cost an interconnect penalty
  between LLC and DRAM latency);
* **bandwidth**: all PUs of a socket share one memory controller, so a
  socket can't drain DRAM lines faster than
  ``mem_bandwidth_lines_per_cycle``.

A socket's time is the max of its slowest PU (latency bound) and its
aggregate DRAM traffic over the controller bandwidth (bandwidth bound);
the run's time is the max over sockets.  This is exactly the effect the
paper invokes: "the sequential program can fully utilize the last level
of cache and the memory bandwidth of the processor whereas the parallel
program shares these resources between 8 cores".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.machine.topology import Machine
from repro.memsim.hierarchy import AccessStats, CacheHierarchy
from repro.memsim.traces import interleave_round_robin


@dataclass(frozen=True)
class RunTiming:
    """Timing breakdown of one simulated run."""

    cycles: float                     # run time (max over sockets)
    pu_cycles: np.ndarray             # latency-bound cycles per PU
    socket_cycles: Dict[int, float]   # per-socket max(latency, bandwidth)
    bandwidth_bound_sockets: List[int]  # sockets limited by DRAM bandwidth


class TimingModel:
    """Cost model bound to one machine's latencies and bandwidth."""

    def __init__(
        self,
        machine: Machine,
        *,
        remote_latency_cycles: Optional[int] = None,
        write_penalty_cycles: float = 0.0,
        mlp: float = 8.0,
        invalidation_cost_cycles: Optional[float] = None,
    ) -> None:
        """``mlp`` is the memory-level parallelism an out-of-order core
        extracts from its access stream: every level's effective
        per-access latency is ``latency / mlp`` (loads overlap whether
        they hit in L3 or DRAM).  Costs therefore stay *proportional*
        across levels, and with ``mlp`` misses in flight a socket's
        cores can outrun the memory controller, which is what lets the
        bandwidth bound in :meth:`run_timing` engage -- and what makes
        8 MPI tasks per socket contend in the paper's Table I."""
        self.machine = machine
        self.levels = tuple(sorted(machine.caches))
        self.latencies = np.array(
            [machine.caches[lvl].latency_cycles for lvl in self.levels],
            dtype=np.float64,
        )
        self.mem_latency = float(machine.mem_latency_cycles)
        llc_lat = self.latencies[-1] if len(self.latencies) else 0.0
        # Cache-to-cache transfer: costlier than a local LLC hit, cheaper
        # than DRAM.  Default: midway.
        self.remote_latency = (
            float(remote_latency_cycles)
            if remote_latency_cycles is not None
            else (llc_lat + self.mem_latency) / 2.0
        )
        self.write_penalty = float(write_penalty_cycles)
        if mlp < 1.0:
            raise ValueError(f"mlp must be >= 1, got {mlp}")
        self.mlp = float(mlp)
        # A write that invalidates remote copies pays a read-for-ownership
        # round trip, partially hidden by the same MLP as ordinary misses.
        self.invalidation_cost = (
            float(invalidation_cost_cycles)
            if invalidation_cost_cycles is not None
            else self.remote_latency / self.mlp / 8.0
        )
        self.bw_lines_per_cycle = machine.mem_bandwidth_lines_per_cycle

    def pu_cycles(self, stats: AccessStats) -> np.ndarray:
        """Latency-bound cycles per PU."""
        cyc = (stats.hits.astype(np.float64) @ self.latencies) / self.mlp
        cyc += stats.remote * (self.remote_latency / self.mlp)
        cyc += stats.mem * (self.mem_latency / self.mlp)
        cyc += stats.writes * self.write_penalty
        cyc += stats.invalidations_sent * self.invalidation_cost
        return cyc

    def run_timing(self, stats: AccessStats, *, active_pus: Optional[List[int]] = None) -> RunTiming:
        """Timing of a run; ``active_pus`` restricts which PUs count
        (e.g. a sequential run uses a single PU)."""
        m = self.machine
        cyc = self.pu_cycles(stats)
        if active_pus is None:
            active = [p for p in range(m.n_pus) if stats.accesses[p] > 0]
        else:
            active = list(active_pus)
        socket_cycles: Dict[int, float] = {}
        bw_bound: List[int] = []
        by_socket: Dict[int, List[int]] = {}
        for pu in active:
            by_socket.setdefault(m.pus[pu].numa, []).append(pu)
        for sck, pus in by_socket.items():
            lat_bound = max(cyc[p] for p in pus)
            mem_lines = float(sum(stats.mem[p] for p in pus))
            bw_bound_time = (
                mem_lines / self.bw_lines_per_cycle if self.bw_lines_per_cycle > 0 else 0.0
            )
            t = max(lat_bound, bw_bound_time)
            socket_cycles[sck] = t
            if bw_bound_time > lat_bound:
                bw_bound.append(sck)
        total = max(socket_cycles.values()) if socket_cycles else 0.0
        return RunTiming(
            cycles=total,
            pu_cycles=cyc,
            socket_cycles=socket_cycles,
            bandwidth_bound_sockets=sorted(bw_bound),
        )

    def parallel_efficiency(self, seq: RunTiming, par: RunTiming) -> float:
        """Weak-scaling parallel efficiency t_seq / t_par (paper,
        section V-A: each PU performs the sequential program's work)."""
        if par.cycles == 0:
            return 1.0
        return seq.cycles / par.cycles


def run_phase(
    hier: CacheHierarchy,
    tm: TimingModel,
    traces: Sequence[np.ndarray],
    pus: List[int],
    *,
    write: bool = False,
) -> float:
    """Cycles of one barrier-delimited phase: ``traces[i]`` is what
    ``pus[i]`` does, fed to ``hier`` in round-robin chunks of 64 lines
    (approximating concurrent execution) and costed from the phase's own
    stats delta."""
    before = hier.stats()
    for i, chunk in interleave_round_robin(traces, chunk=64):
        hier.access_run(pus[i], chunk, write=write)
    return tm.run_timing(hier.stats() - before, active_pus=pus).cycles


__all__ = ["TimingModel", "RunTiming", "run_phase"]
