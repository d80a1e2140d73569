"""Applications and micro-benchmarks of the paper's evaluation.

* :mod:`~repro.apps.mesh_update` -- Table I: mesh update with a common
  interpolation table (cache-footprint study);
* :mod:`~repro.apps.matmul` -- Figure 3: repeated C <- A.B + C with a
  common matrix B;
* :mod:`~repro.apps.eulermhd` -- Table II: MHD solver with a shared
  equation-of-state table;
* :mod:`~repro.apps.gadget` -- Table III: N-body SPH with a shared
  Ewald correction table;
* :mod:`~repro.apps.tachyon` -- Table IV: ray tracer with replicated
  scene and image;
* :mod:`~repro.apps.driver` -- where every one of them meets the
  runtime: the Tables II-IV run skeleton and the Table I / Figure 3
  table placement.

All sizes are scaled down from the paper by a uniform factor (the cache
simulator works at line granularity, so fits-in-cache relations are
preserved); EXPERIMENTS.md records the mapping.
"""

from repro.apps.mesh_update import MeshUpdateConfig, MeshUpdateResult, run_mesh_update
from repro.apps.matmul import MatmulConfig, MatmulResult, run_matmul
from repro.apps.driver import AppRunResult
from repro.apps.eulermhd import EulerMHDConfig, run_eulermhd
from repro.apps.gadget import GadgetConfig, run_gadget
from repro.apps.tachyon import TachyonConfig, run_tachyon

__all__ = [
    "MeshUpdateConfig",
    "MeshUpdateResult",
    "run_mesh_update",
    "MatmulConfig",
    "MatmulResult",
    "run_matmul",
    "EulerMHDConfig",
    "AppRunResult",
    "run_eulermhd",
    "GadgetConfig",
    "run_gadget",
    "TachyonConfig",
    "run_tachyon",
]
