"""The scope-aware memory manager every runtime owns.

The paper's central claim is that user data can be shared at a *chosen*
level of the memory hierarchy (``node``, ``numa``, ``cache(L)``,
``core``).  The placement layer must therefore be hierarchical too:
a ``numa``-scoped variable should live in (and be accounted against)
its NUMA instance's storage, not be silently collapsed into the node's.

:class:`MemoryManager` materialises one :class:`~repro.memory.arena.
Arena` per :class:`~repro.machine.scopes.ScopeInstance` on first use,
plus per-task arenas for the process backend's private images and
per-node isomalloc segment arenas, where that backend's
``Runtime.scope_space`` puts every scope-shared buffer (section IV-C).
All bases come from one
:class:`~repro.memory.registry.BaseAddressRegistry`, so every arena's
address range is provably disjoint (segments excepted, by design).

On top of the arenas the manager provides the accounting the memory
experiments (Tables II-IV) and ``Runtime.metrics("memory")`` consume:
live bytes per node, per hierarchy level and per allocation kind -- and
the shutdown-time leak report ``Runtime.finalize`` renders, since every
arena knows its owner and every allocation its kind.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.machine.scopes import ScopeInstance, ScopeKind, ScopeSpec
from repro.memory.arena import Arena, LEVEL_SEGMENT, LEVEL_TASK
from repro.memory.registry import BaseAddressRegistry

#: registry key shared by every node's HLS segment (isomalloc: the
#: segment starts at the same virtual address on all nodes)
SEGMENT_KEY = "hls-segment"


def scope_level(spec: ScopeSpec) -> str:
    """The hierarchy-level bucket of a (canonical) scope spec:
    ``node``, ``numa`` / ``numa(2)``, ``cache(L)``, ``core``."""
    if spec.kind is ScopeKind.CACHE:
        return f"cache({spec.level})"
    if spec.kind is ScopeKind.NUMA and spec.level not in (None, 1):
        return f"numa({spec.level})"
    return spec.kind.value


@dataclass(frozen=True)
class LeakRecord:
    """One allocation still live at finalize time."""

    arena: str        # arena name
    level: str        # hierarchy-level bucket of the arena
    kind: str         # allocation kind ("runtime" | "hls" | "rma" | ...)
    label: str
    owner: Optional[int]
    addr: int
    size: int


@dataclass
class LeakReport:
    """Unfreed allocations of the tracked kinds at shutdown."""

    records: List[LeakRecord] = field(default_factory=list)
    kinds: Tuple[str, ...] = ()

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + r.size
        return out

    def __bool__(self) -> bool:
        return bool(self.records)

    def render(self) -> str:
        if not self.records:
            return "no unfreed allocations (kinds: %s)" % ", ".join(self.kinds)
        lines = [
            f"{len(self.records)} unfreed allocation(s), "
            f"{self.total_bytes} bytes:"
        ]
        for r in sorted(self.records, key=lambda r: (r.kind, r.arena, r.addr)):
            owner = f" owner=task{r.owner}" if r.owner is not None else ""
            lines.append(
                f"  [{r.kind}] {r.label or '<unlabelled>'} @ {r.addr:#x} "
                f"({r.size}B) in {r.arena} (level {r.level}){owner}"
            )
        return "\n".join(lines)


class MemoryManager:
    """Per-runtime arena factory and hierarchy-aware accountant."""

    def __init__(
        self,
        runtime,
        *,
        registry: Optional[BaseAddressRegistry] = None,
        namespace: Optional[str] = None,
    ) -> None:
        self.runtime = runtime
        self.registry = registry if registry is not None else BaseAddressRegistry()
        #: reservation-name prefix: empty for a private registry (the
        #: historical names), a unique per-runtime tag when the registry
        #: is shared between concurrent runtimes (repro.service) so
        #: sibling runtimes' reservations can never collide
        self.namespace = namespace or ""
        self._prefix = f"{self.namespace}:" if self.namespace else ""
        self._arenas: Dict[Tuple, Arena] = {}
        #: node number -> its already-built node arena (what space_for
        #: asks per alloc/free).  Arenas are never removed, so a hit
        #: needs no lock.
        self._by_node: Dict[int, Arena] = {}
        self._lock = threading.Lock()
        self._spiller = None

    # ------------------------------------------------------------- factories
    def _materialise(self, key: Tuple, make) -> Arena:
        with self._lock:
            arena = self._arenas.get(key)
            if arena is None:
                arena = make()
                arena.spiller = self._spiller
                self._arenas[key] = arena
            return arena

    def set_spiller(self, spiller) -> None:
        """Install the storage spill policy on every arena, existing and
        future (see :class:`repro.storage.residency.SpillManager`)."""
        with self._lock:
            self._spiller = spiller
            for arena in self._arenas.values():
                arena.spiller = spiller

    def cap_node(self, node: int, budget: int) -> Arena:
        """Bound a node arena's *additional* live bytes to ``budget``
        (on top of whatever is already resident -- the runtime's comm
        pools are charged at init).  Past the cap, allocations spill
        cold storage chunks instead of raising.  Returns the arena."""
        arena = self.node_arena(node)
        arena.set_capacity(arena.live_bytes + int(budget))
        return arena

    def scope_arena(self, inst: ScopeInstance) -> Arena:
        """The arena backing one scope instance (lazily created).

        The spec is canonicalised first, so ``cache`` (default level)
        and ``cache(llc)`` resolve to the same arena."""
        machine = self.runtime.machine
        spec = machine.canonical_scope(inst.spec)
        inst = ScopeInstance(spec, inst.index)
        key = ("scope", inst)

        def make() -> Arena:
            base, limit = self.registry.reserve(f"{self._prefix}scope:{inst}")
            return Arena(
                base=base, limit=limit, name=f"arena:{inst}",
                level=scope_level(spec), scope=inst,
                node=machine.scope_instance_node(inst),
            )

        return self._materialise(key, make)

    def node_arena(self, node: int) -> Arena:
        """The node-scope arena (the thread backend's shared space)."""
        arena = self._by_node.get(node)
        if arena is None:
            arena = self._by_node[node] = self.scope_arena(
                ScopeInstance(ScopeSpec(ScopeKind.NODE), node)
            )
        return arena

    def task_arena(self, rank: int) -> Arena:
        """A task's private arena (process-backend address space)."""
        key = ("task", rank)

        def make() -> Arena:
            base, limit = self.registry.reserve(f"{self._prefix}task:{rank}")
            return Arena(
                base=base, limit=limit, name=f"proc{rank}",
                level=LEVEL_TASK, owner_task=rank,
            )

        return self._materialise(key, make)

    def segment_arena(self, node: int) -> Arena:
        """A node's isomalloc segment (section IV-C), the process
        backend's home for scope-shared buffers: every node's segment
        shares one base address -- the property that makes
        cross-process pointers into HLS data valid."""
        key = ("segment", node)

        def make() -> Arena:
            # the isomalloc aliasing must hold between *this runtime's*
            # nodes only: namespace the shared key so two jobs sharing
            # one registry never alias each other's HLS segments
            base, limit = self.registry.reserve_shared(
                f"{self._prefix}{SEGMENT_KEY}"
            )
            return Arena(
                base=base, limit=limit, name=f"hls-segment-node{node}",
                level=LEVEL_SEGMENT, node=node,
            )

        return self._materialise(key, make)

    # ------------------------------------------------------------ inventory
    def arenas(self) -> List[Arena]:
        with self._lock:
            return list(self._arenas.values())

    def arenas_on_node(self, node: int) -> List[Arena]:
        rt = self.runtime
        return [a for a in self.arenas() if a.home_node(rt) == node]

    # ----------------------------------------------------------- accounting
    def node_live_bytes(self, node: int) -> int:
        """Live simulated bytes attributed to ``node``, over every arena
        resident there (node/numa/cache/core scopes, per-task images,
        isomalloc segments)."""
        return sum(a.live_bytes for a in self.arenas_on_node(node))

    def live_by_level(self, node: Optional[int] = None) -> Dict[str, int]:
        """Live bytes per hierarchy level, machine-wide or for one node.
        Per node, the values sum to :meth:`node_live_bytes`."""
        arenas = self.arenas() if node is None else self.arenas_on_node(node)
        out: Dict[str, int] = {}
        for a in arenas:
            live = a.live_bytes
            if live:
                out[a.level] = out.get(a.level, 0) + live
        return out

    def live_by_kind(self, node: Optional[int] = None) -> Dict[str, int]:
        """Live bytes per allocation kind, machine-wide or per node."""
        arenas = self.arenas() if node is None else self.arenas_on_node(node)
        out: Dict[str, int] = {}
        for a in arenas:
            for kind, size in a.live_bytes_by_kind().items():
                out[kind] = out.get(kind, 0) + size
        return out

    def peak_live_bytes(self) -> int:
        """Sum of per-arena peaks (an upper bound on the true peak)."""
        return sum(a.peak_live_bytes for a in self.arenas())

    # ---------------------------------------------------------------- leaks
    def leak_report(
        self, kinds: Tuple[str, ...] = ("runtime", "hls", "rma", "storage")
    ) -> LeakReport:
        """Everything still live of the given kinds -- the shutdown-time
        report ``Runtime.finalize`` returns."""
        records: List[LeakRecord] = []
        for arena in self.arenas():
            for a in arena.live_allocations():
                if a.kind in kinds:
                    records.append(
                        LeakRecord(
                            arena=arena.name, level=arena.level,
                            kind=a.kind, label=a.label, owner=a.owner,
                            addr=a.addr, size=a.size,
                        )
                    )
        return LeakReport(records=records, kinds=tuple(kinds))


__all__ = [
    "LeakRecord",
    "LeakReport",
    "MemoryManager",
    "SEGMENT_KEY",
    "scope_level",
]
