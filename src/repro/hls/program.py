"""User-facing HLS API: programs and per-task handles.

An :class:`HLSProgram` binds a variable registry, storage and
synchronisation to a runtime.  ``enabled=False`` reproduces the paper's
compatibility guarantee -- "a compiler unaware of these directives can
ignore them and should generate a correct code": every variable becomes
private per task, ``single`` blocks run on every task (each initialises
its own copy) and ``barrier`` is a no-op.  The same application code
therefore runs in both modes, which is exactly how the evaluation's
"without HLS" baselines are produced.

Per-task :class:`HLSHandle` objects expose the compiled form of the
directives (``single_enter``/``single_done`` mirror the generated
``hls_single()``/``hls_single_done()`` calls of section IV-B) plus
convenience wrappers (:meth:`HLSHandle.single` running a callable).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.machine.scopes import ScopeSpec
from repro.hls.storage import HLSStorage
from repro.hls.sync import HLSSync, ScopeSyncState
from repro.hls.variable import HLSDeclarationError, HLSRegistry, HLSVariable

ScopeLike = Union[str, ScopeSpec, None]


def _as_scope(scope: ScopeLike) -> Optional[ScopeSpec]:
    if scope is None or isinstance(scope, ScopeSpec):
        return scope
    return ScopeSpec.parse(scope)


class _TaskTable:
    """What names and directive variable lists resolve to for one task
    (see :class:`HLSHandle`); every entry is valid for ``stamp``."""

    __slots__ = ("stamp", "views", "addrs", "bound")

    def __init__(self) -> None:
        self.stamp: Optional[Tuple[int, int]] = None
        self.views: Dict[str, np.ndarray] = {}
        self.addrs: Dict[Any, int] = {}      # name | (scope, mod, off)
        #: (is a barrier, variable list) -> what the directive binds to
        self.bound: Dict[Any, Tuple[ScopeSpec, ScopeSyncState]] = {}

    def reset(self, stamp: Optional[Tuple[int, int]]) -> None:
        # stamp first: an event racing the refill is caught next call
        self.stamp = stamp
        self.views.clear()
        self.addrs.clear()
        self.bound.clear()


class HLSProgram:
    """One application's HLS state on one runtime."""

    def __init__(self, runtime, *, enabled: bool = True,
                 barrier_algorithm: str = "auto") -> None:
        self.runtime = runtime
        self.enabled = enabled
        self.registry = HLSRegistry()
        self.storage = HLSStorage(runtime, self.registry)
        self.sync = HLSSync(runtime, barrier_algorithm=barrier_algorithm)
        #: rank -> that task's resolution table.  Kept here, not in the
        #: handle: close() must drop the views with the images they pin
        self._tables: Dict[int, _TaskTable] = {}
        runtime.migration_checks.append(self.sync.check_migration)

    def close(self) -> None:
        """Release the program's materialised HLS/TLS images so the
        runtime's finalize leak report comes back clean.  Call after
        the last ``run()`` that touches this program's variables."""
        self.storage.release()
        for table in list(self._tables.values()):
            table.reset(None)

    # ------------------------------------------------------------- declaring
    def declare(
        self,
        name: str,
        *,
        shape: Tuple[int, ...] = (),
        dtype: Any = np.float64,
        scope: ScopeLike = None,
        initializer: Optional[Callable[[], np.ndarray]] = None,
        virtual_bytes: Optional[int] = None,
    ) -> HLSVariable:
        """Declare a global variable.  ``scope=None`` keeps it private
        per task (a plain global); a scope string ("node", "numa",
        "cache level(2)", "core") marks it HLS.  When the program is
        built with ``enabled=False`` all scopes collapse to private.
        ``virtual_bytes`` sets the accounting size (for footprint
        studies at the paper's true scales with small live buffers)."""
        spec = _as_scope(scope)
        if not self.enabled:
            spec = None
        return self.registry.declare(
            name, shape=shape, dtype=dtype, scope=spec,
            initializer=initializer, virtual_bytes=virtual_bytes,
        )

    def mark_hls(self, name: str, scope: ScopeLike) -> HLSVariable:
        """``#pragma hls scope(name)`` on an existing declaration."""
        spec = _as_scope(scope)
        if spec is None:
            raise HLSDeclarationError("mark_hls needs a concrete scope")
        if not self.enabled:
            return self.registry[name]
        return self.registry.set_scope(name, spec)

    # -------------------------------------------------------------- handles
    def attach(self, ctx) -> "HLSHandle":
        """The per-task handle (call once per task, in ``main``)."""
        if ctx.hls is None:
            ctx.hls = HLSHandle(self, ctx)
        return ctx.hls

    # ------------------------------------------------------------ accounting
    def expected_node_saving(self, tasks_per_node: int) -> int:
        """The paper's headline arithmetic: sharing at node scope saves
        ``(tasks_per_node - 1) x sizeof(HLS vars)`` per node."""
        return (tasks_per_node - 1) * self.registry.hls_bytes()

    # ---------------------------------------------------------------- helpers
    def _scope_of_vars(self, names: Sequence[str]) -> ScopeSpec:
        """Common scope of a single's variable list; mismatch is a
        compile error per section II-B2."""
        if not names:
            raise HLSDeclarationError("directive needs at least one variable")
        scopes = []
        for n in names:
            var = self.registry[n]
            if not var.is_hls:
                raise HLSDeclarationError(
                    f"variable {n!r} is not HLS; directives require HLS variables"
                )
            scopes.append(var.scope)
        if any(s != scopes[0] for s in scopes):
            raise HLSDeclarationError(
                f"variables {list(names)} do not share one HLS scope: {scopes}"
            )
        return scopes[0]

    def _widest_scope(self, names: Sequence[str]) -> ScopeSpec:
        if not names:
            raise HLSDeclarationError("barrier needs at least one variable")
        specs = []
        for n in names:
            var = self.registry[n]
            if not var.is_hls:
                raise HLSDeclarationError(
                    f"variable {n!r} is not HLS; directives require HLS variables"
                )
            specs.append(var.scope)
        return self.runtime.machine.widest(specs)


def _names(names: Union[str, Iterable[str]]) -> Tuple[str, ...]:
    if isinstance(names, str):
        return (names,)
    return tuple(names)


class HLSHandle:
    """Per-task view of an :class:`HLSProgram`.

    What a name or a directive's variable list resolves to for *this*
    task -- variable, scope instance, module image, sync state -- is
    looked up once and kept in the task's table, stamped with
    ``(runtime.pin_version, storage.generation)``.  Only ``ctx.move``
    and ``HLSStorage.release`` can change an answer and each bumps one
    half of the stamp, so a stale table is dropped whole and refilled
    through the same resolvers (``HLSStorage.get``/``addr``/
    ``hls_get_addr``, ``HLSSync.state``); there is no second path."""

    def __init__(self, program: HLSProgram, ctx) -> None:
        self.program = program
        self.ctx = ctx
        self._rank = ctx.rank
        self._runtime = program.runtime
        self._storage = program.storage
        self._table = program._tables.setdefault(ctx.rank, _TaskTable())
        #: this task's directive counts per spec (the MPC_Move gate
        #: reads them)
        self._counts = program.sync.directive_counts(ctx.rank)

    def _current(self) -> _TaskTable:
        """The task's table, emptied if the task moved or the storage
        was released since it was filled."""
        table = self._table
        stamp = (self._runtime.pin_version, self._storage.generation)
        if table.stamp != stamp:
            table.reset(stamp)
        return table

    # -------------------------------------------------------------- access
    def get(self, name: str) -> np.ndarray:
        """This task's live view of a variable (shared memory iff HLS)."""
        views = self._current().views
        view = views.get(name)
        if view is None:
            view = views[name] = self._storage.get(self.ctx, name)
        return view

    __getitem__ = get

    def addr(self, name: str) -> int:
        """Simulated address of this task's copy, for trace generation."""
        addrs = self._current().addrs
        addr = addrs.get(name)
        if addr is None:
            addr = addrs[name] = self._storage.addr(self.ctx, name)
        return addr

    def scope_instance(self, name: str):
        var = self.program.registry[name]
        if var.scope is None:
            return None
        return self.program.storage.scope_instance(self.ctx, var.scope)

    # ----------------------------------------------------------- directives
    def _bound(self, names: Union[str, Iterable[str]], *,
               barrier: bool = False) -> Tuple[ScopeSpec, ScopeSyncState]:
        """The (spec, sync state) a directive's variable list means for
        this task, resolved on first use: the variables' common scope
        for a single, their widest for a barrier."""
        key = (barrier, names if isinstance(names, str) else tuple(names))
        bindings = self._current().bound
        bound = bindings.get(key)
        if bound is None:
            program = self.program
            scope_of = program._widest_scope if barrier else program._scope_of_vars
            spec = scope_of(_names(key[1]))
            inst = self._runtime.machine.scope_instance(self.ctx.pu, spec)
            bound = bindings[key] = (spec, program.sync.state(inst))
        return bound

    def _count(self, spec: ScopeSpec) -> None:
        """One more directive towards the MPC_Move gate."""
        self._counts[spec] = self._counts.get(spec, 0) + 1

    def single_enter(self, names: Union[str, Iterable[str]], *,
                     nowait: bool = False) -> bool:
        """Compiled form of ``#pragma hls single(names) [nowait]``.

        Returns True for the task that must execute the block; that task
        must call :meth:`single_done` afterwards (unless ``nowait``)."""
        if not self.program.enabled:
            return True      # every task runs the block on its own copy
        spec, state = self._bound(names)
        self._count(spec)
        if nowait:
            return state.single_nowait_enter(self._rank)
        return state.single_enter(self._rank)

    def single_done(self, names: Union[str, Iterable[str]], *,
                    nowait: bool = False) -> None:
        if not self.program.enabled or nowait:
            return
        self._bound(names)[1].single_done(self._rank)

    def single(self, names: Union[str, Iterable[str]],
               body: Callable[[], Any], *, nowait: bool = False) -> None:
        """Run ``body`` under single semantics (convenience wrapper)."""
        if self.single_enter(names, nowait=nowait):
            try:
                body()
            finally:
                self.single_done(names, nowait=nowait)

    def barrier(self, names: Union[str, Iterable[str]]) -> None:
        """``#pragma hls barrier(names)``: synchronise the largest scope
        of the listed variables."""
        if not self.program.enabled:
            return
        spec, state = self._bound(names, barrier=True)
        self._count(spec)
        state.barrier(self._rank)

    # ------------------------------------------------- faithful ABI (IV-A)
    def hls_get_addr_node(self, mod: int, off: int) -> int:
        return self._get_addr("node", mod, off)

    def hls_get_addr_numa(self, mod: int, off: int) -> int:
        return self._get_addr("numa", mod, off)

    def hls_get_addr_cache(self, mod: int, off: int, *, level: Optional[int] = None) -> int:
        return self._get_addr("cache" if level is None else f"cache({level})", mod, off)

    def hls_get_addr_core(self, mod: int, off: int) -> int:
        return self._get_addr("core", mod, off)

    def _get_addr(self, scope: str, mod: int, off: int) -> int:
        addrs = self._current().addrs
        key = (scope, mod, off)
        addr = addrs.get(key)
        if addr is None:
            addr = addrs[key] = self._storage.hls_get_addr(
                self.ctx, ScopeSpec.parse(scope), mod, off)
        return addr


__all__ = ["HLSProgram", "HLSHandle"]
