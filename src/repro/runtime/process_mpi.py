"""Process-based MPI baseline (Open MPI analog): "MPI tasks are UNIX
processes and have different address spaces" (paper, section IV-C).

A value of the runtime's configuration, not a separate engine:
``Runtime(mpi="openmpi")`` runs under the
:data:`~repro.runtime.config.OPENMPI` policy.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.runtime import Runtime


class ProcessRuntime(Runtime):
    """Open MPI-like process-per-task baseline: ``Runtime`` with
    ``mpi="openmpi"`` by default."""

    def __init__(self, *args: Any, mpi: str = "openmpi", **options: Any) -> None:
        super().__init__(*args, mpi=mpi, **options)


__all__ = ["ProcessRuntime"]
