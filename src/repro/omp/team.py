"""Fork-join thread teams (OpenMP parallel regions).

A :class:`Team` runs a body on N real threads inside one MPI task and
offers the workshare constructs HLS coexists with: ``barrier``,
``single`` (first arriver executes, implicit barrier), ``master``,
``critical``, ``static_range`` (omp for, static schedule) and
``reduce``.

Threads may be pinned to the PUs of the owning task's scope so HLS
scope resolution works from inside a parallel region (a thread's HLS
accesses resolve against *its* PU, exactly like an MPC user-level
thread).

Waits are event-driven and take their abort check and deadline from
:class:`repro.runtime.abort.Watchdog`: the arrival that completes a
barrier (or assembles the team behind a ``single``) notifies, and a
thread whose body raises sets the team's :class:`AbortSignal`, so its
peers leave their waits with ``AbortError`` instead of running on."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime.abort import AbortSignal, Watchdog
from repro.runtime.errors import AbortError


class ThreadContext:
    """What the parallel-region body receives."""

    def __init__(self, team: "Team", thread_num: int, pu: Optional[int]) -> None:
        self.team = team
        self.thread_num = thread_num
        self.pu = pu

    @property
    def num_threads(self) -> int:
        return self.team.num_threads

    # sugar delegating to the team
    def barrier(self) -> None:
        self.team.barrier()

    def single(self) -> bool:
        return self.team.single_enter()

    def single_done(self) -> None:
        self.team.single_done()

    def master(self) -> bool:
        return self.thread_num == 0

    def critical(self):
        return self.team.critical()

    def static_range(self, n: int) -> range:
        return self.team.static_range(n, self.thread_num)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadContext({self.thread_num}/{self.num_threads})"


class Team:
    """One parallel region's team of threads."""

    def __init__(
        self,
        num_threads: int,
        *,
        pus: Optional[Sequence[int]] = None,
        timeout: float = 30.0,
    ) -> None:
        if num_threads < 1:
            raise ValueError("team needs at least one thread")
        if pus is not None and len(pus) != num_threads:
            raise ValueError("one PU per thread required when pinning")
        self.num_threads = num_threads
        self.pus = list(pus) if pus is not None else [None] * num_threads
        self._timeout = timeout
        self._cond = threading.Condition()
        self._count = 0
        self._generation = 0
        self._critical = threading.RLock()
        self.barriers = 0
        #: set by a thread whose body raised; wakes every parked peer
        self._abort = AbortSignal()
        self._abort.subscribe(self._wake)

    # ----------------------------------------------------------------- sync
    def _wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _park_until(self, done: Callable[[], bool], what: str) -> None:
        """Park on the team condition (held by the caller) until
        ``done()``; arrivals are the progress that extends the deadline."""
        dog = Watchdog(self._abort, time.monotonic, self._timeout, lambda: (
            f"omp {what}: a team thread failed",
            f"omp {what} timed out with {self._count}/"
            f"{self.num_threads} arrived",
        ))
        while not done():
            self._cond.wait(
                timeout=dog.tick((self._generation, self._count))
            )

    def _wait(self, gen: int) -> None:
        self._park_until(lambda: self._generation != gen, "barrier")

    def barrier(self) -> None:
        with self._cond:
            gen = self._generation
            self._count += 1
            if self._count == self.num_threads:
                self._count = 0
                self._generation += 1
                self.barriers += 1
                self._cond.notify_all()
                return
            self._wait(gen)

    def single_enter(self) -> bool:
        """OpenMP single: the FIRST thread to arrive executes; the rest
        wait at the implicit barrier until single_done."""
        with self._cond:
            gen = self._generation
            self._count += 1
            first = self._count == 1
            if first:
                return True
            if self._count == self.num_threads:
                # team assembled: the executor may be parked in single_done
                self._cond.notify_all()
            self._wait(gen)
            return False

    def single_done(self) -> None:
        with self._cond:
            self._park_until(
                lambda: self._count == self.num_threads, "single"
            )
            self._count = 0
            self._generation += 1
            self.barriers += 1
            self._cond.notify_all()

    def critical(self):
        """Context manager for an ``omp critical`` section."""
        return self._critical

    # ------------------------------------------------------------- workshare
    def static_range(self, n: int, thread_num: int) -> range:
        """Static schedule: contiguous chunk of ``range(n)`` per thread."""
        base = n // self.num_threads
        extra = n % self.num_threads
        start = thread_num * base + min(thread_num, extra)
        length = base + (1 if thread_num < extra else 0)
        return range(start, start + length)

    # ------------------------------------------------------------------ run
    def run(self, body: Callable[[ThreadContext], Any]) -> List[Any]:
        """Execute ``body`` on every thread; returns per-thread results.
        A thread's exception aborts the team and is re-raised."""
        results: List[Any] = [None] * self.num_threads
        errors: List[BaseException] = []
        lock = threading.Lock()

        def worker(i: int) -> None:
            try:
                results[i] = body(ThreadContext(self, i, self.pus[i]))
            except BaseException as e:  # noqa: BLE001
                with lock:
                    errors.append(e)
                self._abort.set()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"omp-{i}")
            for i in range(self.num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            # prefer the root cause over the peers' secondary aborts
            raise next(
                (e for e in errors if not isinstance(e, AbortError)), errors[0]
            )
        return results

    def reduce(self, values: List[Any], op: Callable[[Any, Any], Any]) -> Any:
        """Fold per-thread contributions in thread order (deterministic)."""
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc


def omp_parallel(
    num_threads: int,
    body: Callable[[ThreadContext], Any],
    *,
    pus: Optional[Sequence[int]] = None,
    timeout: float = 30.0,
) -> List[Any]:
    """``#pragma omp parallel`` analog: fork a team, run, join."""
    return Team(num_threads, pus=pus, timeout=timeout).run(body)


__all__ = ["Team", "ThreadContext", "omp_parallel"]
