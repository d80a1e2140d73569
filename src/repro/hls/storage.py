"""HLS storage: per-scope-instance module images and get-address.

Reproduces the memory layout of figure 2: each MPI task conceptually
holds an array of scope pointers; tasks in the same scope instance point
to the same module array.  Here the "module array" is
``_images[(scope instance, module id)]``; each entry is a
:class:`ModuleImage` backing a real numpy buffer, so sharing is genuine
-- two tasks of one instance get *the same ndarray memory*.

Allocation and initialization happen at the first
``hls_get_addr_<scope>`` call, under a per-(instance, module) lock,
exactly as in section IV-A:

    "Memory for a module is allocated and initialized at the first call
    to the get address function. [...] To handle concurrency when
    allocating and initializing memory for a module [...], a lock is
    associated to each module and each module array."

Private (non-HLS) globals get one image per *task* -- the TLS
privatization thread-based MPIs need for MPI compliance (section VI).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.machine.scopes import ScopeInstance, ScopeKind, ScopeSpec
from repro.memsim.address_space import Allocation
from repro.hls.variable import HLSModule, HLSRegistry, HLSVariable

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime
    from repro.runtime.task import TaskContext


@dataclass
class ModuleImage:
    """One materialised copy of a module's globals."""

    buffer: np.ndarray        # uint8 backing storage
    alloc: Allocation         # simulated placement (for traces/accounting)
    module: HLSModule
    space: object = None      # the address space the alloc came from
                              # (release() frees it there at teardown)

    def view(self, var: HLSVariable) -> np.ndarray:
        """The ndarray view of one variable inside this image."""
        raw = self.buffer[var.offset:var.offset + var.nbytes]
        return raw.view(var.dtype).reshape(var.shape)

    def addr_of(self, var: HLSVariable) -> int:
        """Simulated virtual address of the variable."""
        return self.alloc.addr + var.offset


# Key identifying a storage slot: an HLS scope instance, or a private
# per-task slot.
_SlotKey = Tuple[str, object, int]   # ("hls", ScopeInstance, module) | ("task", rank, module)


class HLSStorage:
    """Materialised storage for one program on one runtime."""

    def __init__(self, runtime: "Runtime", registry: HLSRegistry) -> None:
        self.runtime = runtime
        self.registry = registry
        self._images: Dict[_SlotKey, ModuleImage] = {}
        self._locks: Dict[_SlotKey, threading.Lock] = {}
        self._master = threading.Lock()
        #: bumped by release(); per-task handles stamp their cached
        #: views with it, so a released image's view is never handed out
        self.generation = 0

    # ----------------------------------------------------------------- slots
    def _slot_lock(self, key: _SlotKey) -> threading.Lock:
        with self._master:
            lk = self._locks.get(key)
            if lk is None:
                lk = threading.Lock()
                self._locks[key] = lk
            return lk

    def _space_for_slot(self, key: _SlotKey, rank: int):
        """Which simulated address space backs this slot."""
        kind, where, _mod = key
        rt = self.runtime
        if kind == "task":
            return rt.space_for(rank)
        # Once per scope instance, where the backend puts scope-shared
        # buffers: the instance's own arena on threads (a numa variable
        # is accounted at its level), the node's segment on processes.
        return rt.scope_space(where)

    def _materialise(self, key: _SlotKey, module: HLSModule, rank: int) -> ModuleImage:
        with self._slot_lock(key):
            img = self._images.get(key)
            if img is not None:
                return img
            space = self._space_for_slot(key, rank)
            kind, where, _ = key
            label = f"hls:{module.name}@{where}" if kind == "hls" else f"tls:{module.name}@task{where}"
            alloc = space.alloc(
                module.accounting_bytes,
                label=label,
                kind="hls" if kind == "hls" else "app",
                owner=None if kind == "hls" else rank,
            )
            buf = np.zeros(module.image_bytes, dtype=np.uint8)
            img = ModuleImage(buffer=buf, alloc=alloc, module=module,
                              space=space)
            # Initialize every variable of the module now (first use).
            for var in module.variables.values():
                img.view(var)[...] = var.initial_value()
            self._images[key] = img
            return img

    def release(self) -> None:
        """Free every materialised image's simulated allocation.

        Called by :meth:`HLSProgram.close` at program teardown so a
        finished job's ``Runtime.finalize()`` leak report comes back
        clean (the job service enforces that).  Idempotent; images are
        re-materialised on next use if the program keeps running."""
        with self._master:
            images, self._images = dict(self._images), {}
            self._locks = {}
            # after the swap: a handle that reads the new generation
            # can only find (or materialise) new images
            self.generation += 1
        for img in images.values():
            if img.space is not None:
                img.space.free(img.alloc)

    # ------------------------------------------------------------- addressing
    def slot_key(self, ctx: "TaskContext", var: HLSVariable) -> _SlotKey:
        if not var.is_hls:
            return ("task", ctx.rank, var.module)
        inst = self.scope_instance(ctx, var.scope)
        return ("hls", inst, var.module)

    def scope_instance(self, ctx: "TaskContext", scope: ScopeSpec) -> ScopeInstance:
        return self.runtime.machine.scope_instance(ctx.pu, scope)

    def image(self, ctx: "TaskContext", var: HLSVariable) -> ModuleImage:
        key = self.slot_key(ctx, var)
        img = self._images.get(key)
        if img is None:
            module = self.registry.modules[var.module]
            img = self._materialise(key, module, ctx.rank)
        return img

    def get(self, ctx: "TaskContext", name: str) -> np.ndarray:
        """The paper's generated access path: resolve the task's copy of
        a variable and return the live view."""
        var = self.registry[name]
        var.accessed = True
        return self.image(ctx, var).view(var)

    def addr(self, ctx: "TaskContext", name: str) -> int:
        """Simulated address of this task's copy (for the cache sim)."""
        var = self.registry[name]
        var.accessed = True
        return self.image(ctx, var).addr_of(var)

    # Faithful low-level ABI of section IV-A --------------------------------
    def hls_get_addr(
        self, ctx: "TaskContext", scope: ScopeSpec, mod: int, off: int
    ) -> int:
        """``hls_get_addr_<scope>(size_t mod, size_t off)`` analog:
        returns the simulated address ``hls[<scope>][mod] + off``."""
        module = self.registry.modules[mod]
        var = module.by_offset(off)
        if var.scope != scope:
            raise ValueError(
                f"variable at ({mod}, {off}) has scope {var.scope}, not {scope}"
            )
        var.accessed = True
        return self.image(ctx, var).addr_of(var)

    # ------------------------------------------------------------- accounting
    def hls_images_bytes(self) -> int:
        return sum(
            img.alloc.size for key, img in self._images.items() if key[0] == "hls"
        )

    def live_bytes_by_level(self) -> Dict[str, int]:
        """HLS image bytes per hierarchy level (figure-2 accounting):
        ``node``/``numa``/``cache(L)``/``core`` for shared images,
        ``task`` for the private per-task copies."""
        from repro.memory import LEVEL_TASK, scope_level

        machine = self.runtime.machine
        out: Dict[str, int] = {}
        for key, img in self._images.items():
            kind, where, _mod = key
            level = (
                scope_level(machine.canonical_scope(where.spec))
                if kind == "hls" else LEVEL_TASK
            )
            out[level] = out.get(level, 0) + img.alloc.size
        return out

    def layout_report(self) -> str:
        """Figure-2-style dump of the live HLS structures, with the
        per-hierarchy-level footprint totals appended."""
        lines = ["HLS storage layout:"]
        for key in sorted(self._images, key=str):
            kind, where, mod = key
            img = self._images[key]
            vars_ = ", ".join(img.module.variables)
            place = f"scope {where}" if kind == "hls" else f"task {where} (private)"
            lines.append(
                f"  module {mod} @ {place}: addr={img.alloc.addr:#x} "
                f"size={img.alloc.size}B vars=[{vars_}]"
            )
        levels = self.live_bytes_by_level()
        if levels:
            lines.append("  bytes per level: " + ", ".join(
                f"{lvl}={levels[lvl]}B" for lvl in sorted(levels)
            ))
        return "\n".join(lines)


__all__ = ["ModuleImage", "HLSStorage"]
