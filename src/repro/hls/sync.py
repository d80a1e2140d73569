"""HLS synchronization: barrier, single, single nowait.

Three directives (paper section IV-B):

* ``#pragma hls barrier(vars)`` -- synchronises every MPI task of the
  *largest* scope among the listed variables;
* ``#pragma hls single(vars)`` -- fused into one modified barrier: the
  **last** task entering executes the block (``hls_single`` returns
  true for it), then ``hls_single_done`` releases the waiters;
* ``#pragma hls single(vars) nowait`` -- the **first** task entering
  executes; per-task counters against a shared per-scope counter
  guarantee exactly-once without any barrier.

Two barrier algorithms are provided, as in the paper: a *flat*
counter+lock barrier, and for the wide scopes (``numa``, ``node``) a
*shared-cache-aware hierarchical* barrier where "all MPI tasks in the
same llc scope synchronize first and only one of them goes to the next
scope".  Functionally both are barriers; they differ in how many
synchronisation operations cross a shared-cache boundary, which the
state exposes as ``local_ops`` / ``cross_ops`` for the ablation bench.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.machine.scopes import ScopeInstance, ScopeKind, ScopeSpec
from repro.runtime.abort import WaitPoint
from repro.runtime.errors import MigrationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime
    from repro.runtime.task import TaskContext


class _Unprobed:   # the runtime of a state built on its own
    probe = None


class ScopeSyncState(WaitPoint):
    """Synchronisation state of one scope instance.  A task joins trace
    episode ``(key, 2g)`` on arriving at a barrier or single of
    generation ``g`` and ``(key, 2g + 1)`` on its release.  Its
    progress token is ``_arrivals``."""

    def __init__(
        self,
        instance: ScopeInstance,
        participants: Tuple[int, ...],
        abort_flag: threading.Event,
        *,
        timeout: float,
        groups: Optional[Dict[int, int]] = None,
        runtime: Optional[Any] = None,
        key: str = "",
    ) -> None:
        if not participants:
            raise ValueError(f"scope instance {instance} has no tasks")
        self.instance = instance
        self._set_participants(participants, groups)
        # Condition + clock from the runtime's execution backend (a
        # CoopWaker and the virtual clock under backend="coop")
        super().__init__(
            runtime.condition() if runtime else threading.Condition(),
            abort_flag, runtime.now if runtime else time.monotonic, timeout,
        )
        self._count = 0
        self._generation = 0
        self._arrivals = 0           # monotone; deadline-extension progress
        self.epoch = 0               # completed barrier/single episodes
        self.nowait_shared = 0       # executed single-nowait blocks
        self._task_nowait: Dict[int, int] = {}
        self.local_ops = 0           # llc-local synchronisation operations
        self.cross_ops = 0           # operations crossing the llc boundary
        #: whose probe the directives read (live, every call)
        self._runtime = runtime if runtime is not None else _Unprobed
        #: trace context of its episodes (a string: never a comm's)
        self.key = key

    def _set_participants(self, participants: Tuple[int, ...],
                          groups: Optional[Dict[int, int]]) -> None:
        self.participants = participants
        self.size = len(participants)
        # groups: rank -> llc-group id (hierarchical algorithm); None = flat
        self._groups = groups
        self._gcount: Dict[int, int] = {}
        self._gsizes: Dict[int, int] = {}
        if groups is not None:
            for r in participants:
                g = groups[r]
                self._gsizes[g] = self._gsizes.get(g, 0) + 1

    # ----------------------------------------------------------- accounting
    def _account_arrival(self, rank: int) -> None:
        self._arrivals += 1
        if self._groups is None:
            self.cross_ops += 1      # flat: every arrival hits the hot counter
            return
        g = self._groups[rank]
        self.local_ops += 1
        self._gcount[g] = self._gcount.get(g, 0) + 1
        if self._gcount[g] == self._gsizes[g]:
            self.cross_ops += 1      # group leader goes to the next scope
            self._gcount[g] = 0

    def progress(self) -> int:
        return self._arrivals

    def _wait_generation(self, gen: int) -> None:
        self.park(lambda: self._generation != gen, self.progress, lambda: (
            "job aborted during hls synchronization",
            f"hls sync on {self.instance} timed out with "
            f"{self._count}/{self.size} arrived -- did every task of the "
            f"scope execute the directive?",
        ))

    # ------------------------------------------------------ barrier, single
    def barrier(self, rank: int) -> None:
        self._enter("hls.barrier", rank, release=True)

    def single_enter(self, rank: int) -> bool:
        """True for the task that must execute the block (the last one
        to arrive, per section IV-B); the others block until
        :meth:`single_done`."""
        return self._enter("hls.single", rank)

    def _enter(self, site: str, rank: int, release: bool = False) -> bool:
        """One arrival; True for the last, which releases the others at
        once if ``release`` (a barrier), else in :meth:`single_done`."""
        p = self._runtime.probe
        if p is not None:
            p(site, rank, wake=self.wake)
        with self._cond:
            self._account_arrival(rank)
            gen = self._generation
            self._count += 1
            last = self._count == self.size
            if last:
                self._count = 0
                if release:
                    self._generation += 1
                    self.epoch += 1
                    self._cond.notify_all()
            else:
                self._wait_generation(gen)
        if p is not None:
            p("hls.sync", rank, context=self.key, epoch=2 * gen, op=site)
            if not last or release:
                p("hls.sync", rank, context=self.key, epoch=2 * gen + 1,
                  op="hls.release")
        return last

    def single_done(self, rank: int) -> None:
        with self._cond:
            gen = self._generation
            self._generation += 1
            self.epoch += 1
            self._cond.notify_all()
        p = self._runtime.probe
        if p is not None:
            p("hls.sync", rank, context=self.key, epoch=2 * gen + 1,
              op="hls.release")

    # -------------------------------------------------------------- nowait
    def single_nowait_enter(self, rank: int) -> bool:
        """True for the first task reaching this (dynamic) single; no
        barrier either way."""
        p = self._runtime.probe
        if p is not None:
            p("hls.nowait", rank, wake=self.wake)
        with self._cond:
            self._account_arrival(rank)
            mine = self._task_nowait.get(rank, 0) + 1
            self._task_nowait[rank] = mine
            if mine > self.nowait_shared:
                self.nowait_shared = mine
                return True
            return False

    # ------------------------------------------------------------ migration
    def sync_signature(self) -> Tuple[int, int]:
        with self._cond:
            return (self.epoch, self.nowait_shared)

    def rebind(self, participants: Tuple[int, ...],
               groups: Optional[Dict[int, int]]) -> None:
        """Adopt the participant set a task's move left behind; every
        counter is kept.  A task the move brought in starts level with
        this instance's nowait counter (the gate just proved it has
        encountered as many directives), not at the count it left here
        on an earlier stay.  A no-op while an episode is in flight."""
        with self._cond:
            if self._count == 0:
                for r in participants:
                    if r not in self.participants:
                        self._task_nowait[r] = self.nowait_shared
                self._set_participants(participants, groups)


class HLSSync:
    """All scope sync states of one program on one runtime."""

    def __init__(
        self,
        runtime: "Runtime",
        *,
        barrier_algorithm: str = "auto",
    ) -> None:
        if barrier_algorithm not in ("auto", "flat", "hierarchical"):
            raise ValueError(f"unknown barrier algorithm {barrier_algorithm!r}")
        self.runtime = runtime
        self.machine = runtime.machine
        self.barrier_algorithm = barrier_algorithm
        self._states: Dict[ScopeInstance, ScopeSyncState] = {}
        self._lock = threading.Lock()
        #: rank -> that task's directive counts per scope spec, for the
        #: MPC_Move gate.  An inner dict is written only by its task
        #: (through its handle) and read only by its own check_migration,
        #: so no task ever iterates a dict another task inserts into.
        self._task_directives: Dict[int, Dict[ScopeSpec, int]] = {}
        #: keeps two programs' trace episodes on one instance apart
        self._ordinal = len(runtime.post_move_hooks)
        runtime.post_move_hooks.append(self._on_move)

    # ----------------------------------------------------------------- state
    def _participants(self, instance: ScopeInstance) -> Tuple[int, ...]:
        m = self.machine
        members = set(m.scope_members(instance))
        return tuple(
            r for r in range(self.runtime.n_tasks)
            if self.runtime.task_pu(r) in members
        )

    def _use_hierarchical(self, spec: ScopeSpec) -> bool:
        if self.barrier_algorithm != "auto":
            return self.barrier_algorithm == "hierarchical"
        # Paper: flat for all scopes except numa and node.
        return spec.kind in (ScopeKind.NUMA, ScopeKind.NODE) and self.machine.llc_level > 0

    def _groups(self, instance: ScopeInstance,
                participants: Tuple[int, ...]) -> Optional[Dict[int, int]]:
        """rank -> llc-group id for the hierarchical algorithm, else None."""
        if not self._use_hierarchical(instance.spec):
            return None
        llc = ScopeSpec(ScopeKind.CACHE, self.machine.llc_level)
        return {
            r: self.machine.scope_instance(self.runtime.task_pu(r), llc).index
            for r in participants
        }

    def state(self, instance: ScopeInstance) -> ScopeSyncState:
        """The sync state of ``instance`` (built on first use).  The one
        resolver: handles bind its answer once per task and directive."""
        with self._lock:
            st = self._states.get(instance)
            if st is None:
                participants = self._participants(instance)
                st = ScopeSyncState(
                    instance, participants, self.runtime.abort_flag,
                    timeout=self.runtime.timeout,
                    groups=self._groups(instance, participants),
                    runtime=self.runtime,
                    key=f"hls{self._ordinal}:{instance}",
                )
                self._states[instance] = st
            return st

    def directive_counts(self, rank: int) -> Dict[ScopeSpec, int]:
        """``rank``'s own directive counts (its handle increments them)."""
        return self._task_directives.setdefault(rank, {})

    def _on_move(self, rank: int, new_pu: int) -> None:
        # Participant sets and llc groups are derived from pinning:
        # re-derive them for every idle state, in place, so epoch /
        # nowait_shared / the per-task nowait counts survive the move
        # (exactly-once and the migration gate both compare against
        # them).  A state with tasks mid-episode keeps its set, and so
        # does one the last task just left (nobody can call it).
        with self._lock:
            for inst, st in self._states.items():
                participants = self._participants(inst)
                if participants:
                    st.rebind(participants, self._groups(inst, participants))

    # ------------------------------------------------------------- migration
    def check_migration(self, ctx: "TaskContext", new_pu: int) -> None:
        """MPC_Move gate (section IV-A): the migrating task must have
        encountered the same number of single/barrier directives as the
        destination scope instance."""
        for spec, count in self.directive_counts(ctx.rank).items():
            dst_inst = self.machine.scope_instance(new_pu, spec)
            src_inst = self.machine.scope_instance(ctx.pu, spec)
            if dst_inst == src_inst:
                continue
            st = self._states.get(dst_inst)
            dst_count = sum(st.sync_signature()) if st is not None else 0
            if dst_count != count:
                raise MigrationError(
                    f"task {ctx.rank} encountered {count} hls directives on "
                    f"scope {spec} but destination {dst_inst} has seen "
                    f"{dst_count}"
                )


__all__ = ["ScopeSyncState", "HLSSync"]
