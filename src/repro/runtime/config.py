"""One runtime description: :class:`RuntimeConfig`.

Every runtime policy is a field of one frozen value, checked once when
the value is built: ``mpi`` (which MPI implementation is modelled; it
picks an :class:`MPIPolicy`), ``backend`` and ``schedule`` (how ranks
execute), ``sharing`` (may payloads be handed over by reference),
``algorithm`` (the default collective cell shape) and ``timeout`` (the
deadlock watchdog).  ``Runtime(**fields)`` builds one, and so does a
:class:`~repro.service.spec.JobSpec`, which inherits the fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.runtime.errors import MPIError
from repro.runtime.sched.policy import make_policy


@dataclass(frozen=True)
class MPIPolicy:
    """The memory and copy policy of one MPI implementation.  A runtime
    reads these as its own attributes (``rt.COMM_BASE``, ...)."""

    #: prefix of the comm-pool allocation labels
    backend_name: str
    #: do tasks on the same node share an address space?  The one copy
    #: policy: a message is copied at the sender unless both ends share
    #: one, and ``Runtime.by_reference`` hands payloads over only
    #: between such ends.  Also decides ``Runtime.space_for``,
    #: ``scope_space`` and where the comm pools go
    shared_node_address_space: bool
    #: default cell shape of collectives: "hierarchical" (the topology
    #: tree with DEFAULT_CHUNK_BYTES chunking) or "flat" (direct copies)
    collective_algorithm: str
    #: emulate RMA windows with per-origin mirror copies of the target
    #: segment (see repro.runtime.rma)?
    rma_mirror_copies: bool
    # Comm-buffer memory model (bytes): a base pool, a per-local-task
    # share and a per (local task, total rank) table, per address space
    COMM_BASE: int
    COMM_PER_LOCAL_TASK: int
    COMM_PER_PAIR: int
    #: eager buffers allocated lazily at both endpoints when two ranks
    #: first communicate (Runtime.post_message)
    EAGER_PER_CONNECTION: int
    # Bounded retry-with-backoff for *transient* comm-buffer exhaustion:
    # a retry sleeps ``ALLOC_BACKOFF * 2**attempt`` seconds; after
    # ``ALLOC_RETRIES`` failed retries the TransientCommError propagates
    ALLOC_RETRIES: int
    ALLOC_BACKOFF: float


#: MPC: "MPI tasks on the same node share by default the same address
#: space" (paper, section IV).  Same-node messages carry a reference;
#: the pool sizes are calibrated against Table II's "MPC consumes
#: between 100 and 300MB less memory than Open MPI and this gap grows
#: with the number of cores".  No eager buffers: same-node transfers go
#: through the shared heap and the pool covers the rest.
MPC = MPIPolicy(
    backend_name="mpc-thread",
    shared_node_address_space=True,
    collective_algorithm="hierarchical",
    rma_mirror_copies=False,
    COMM_BASE=24 << 20,
    COMM_PER_LOCAL_TASK=96 << 10,
    COMM_PER_PAIR=4 << 10,
    EAGER_PER_CONNECTION=0,
    ALLOC_RETRIES=4,
    ALLOC_BACKOFF=0.001,
)

#: Open MPI: "MPI tasks are UNIX processes and have different address
#: spaces" (paper, section IV-C).  The same execution engine runs it;
#: what the paper measures is the policy.  Every task has a private
#: address space, so would-be-HLS globals are duplicated and only the
#: node's isomalloc segment is shared.  With no shared address space
#: every message is copied at the sender, so the same-buffer elision
#: never fires.  Collectives copy directly.  RMA windows get per-origin
#: mirror copies.  The eager buffers are per peer, as in Open MPI's
#: defaults.  That per-connection pool is the contended resource of
#: all-to-all storms (Gadget-2, Table III), so it retries harder before
#: surfacing exhaustion.
OPENMPI = MPIPolicy(
    backend_name="openmpi-process",
    shared_node_address_space=False,
    collective_algorithm="flat",
    rma_mirror_copies=True,
    COMM_BASE=20 << 20,
    COMM_PER_LOCAL_TASK=0,
    COMM_PER_PAIR=16 << 10,
    EAGER_PER_CONNECTION=256 << 10,
    ALLOC_RETRIES=6,
    ALLOC_BACKOFF=0.002,
)

POLICIES = {"mpc": MPC, "openmpi": OPENMPI}


@dataclass(frozen=True, kw_only=True)
class RuntimeConfig:
    """Every runtime policy, validated once and frozen.  Round-trips
    through canonical JSON when ``schedule`` is ``None`` or a string."""

    mpi: str = "mpc"                  # "mpc" | "openmpi"
    backend: str = "threads"          # "threads" | "coop"
    #: coop interleaving: None/"fifo", "random:SEED", a ScheduleTrace to
    #: replay or a SchedulePolicy (the last two are not serialised)
    schedule: Optional[Any] = None
    sharing: str = "private"          # "private" | "shared"
    #: "hierarchical" (topology tree, chunked) | "flat"; None = mpi's
    algorithm: Optional[str] = None
    timeout: float = 30.0             # seconds, per blocking wait

    #: how :meth:`from_dict` names this kind of value in its errors
    noun = "runtime config"

    def __post_init__(self) -> None:
        if self.mpi not in POLICIES:
            raise MPIError(
                f"unknown mpi {self.mpi!r} (use 'mpc' or 'openmpi')"
            )
        if self.algorithm not in (None, "flat", "hierarchical"):
            raise MPIError(f"unknown collective algorithm {self.algorithm!r}")
        if self.sharing not in ("private", "shared"):
            raise MPIError(f"unknown sharing policy {self.sharing!r}")
        if self.sharing == "shared" and not self.policy.shared_node_address_space:
            raise MPIError(
                "the process backend has no shared address space: "
                "zero-copy sharing (collective or point-to-point) is "
                "unavailable"
            )
        if self.backend == "coop":
            make_policy(self.schedule)
        elif self.backend != "threads":
            raise MPIError(
                f"unknown execution backend {self.backend!r} "
                f"(use 'threads' or 'coop')"
            )
        elif self.schedule is not None:
            raise MPIError(
                "schedule policies need backend='coop' -- the OS owns "
                "the interleaving under the threads backend"
            )

    @property
    def policy(self) -> MPIPolicy:
        """The memory and copy policy ``mpi`` names."""
        return POLICIES[self.mpi]

    def options(self) -> Dict[str, Any]:
        """The config's own fields as ``Runtime`` keywords (a subclass's
        fields, such as a job spec's ``app``, left out)."""
        return {f.name: getattr(self, f.name) for f in fields(RuntimeConfig)}

    # --------------------------------------------------------------- (de)ser
    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators): equal values
        serialise identically."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RuntimeConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.noun} fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RuntimeConfig":
        return cls.from_dict(json.loads(text))


__all__ = ["MPC", "MPIPolicy", "OPENMPI", "POLICIES", "RuntimeConfig"]
