"""The cooperative scheduler: carrier threads, one runner token.

CPython has no portable first-class coroutine stack switch usable under
arbitrary blocking call graphs (greenlet is an extension, generators
cannot yield through a deep call stack), so each task keeps an OS
thread -- but only as a *stack container*.  The invariant: **exactly
one thread holds the runner token, and the holder schedules.**  A
carrier that gives the token up (it parked, preempted at a checkpoint,
or its task finished) takes the scheduling decision itself, under the
queue lock -- policy pick, trace append, counters, and the virtual-clock
jump when nothing is runnable -- and then releases its successor's
private ``resume`` lock directly: one OS switch per context switch, and
none at all when a task picks itself.  Every other carrier sleeps on
its own pre-acquired lock.  Carriers use a small stack
(``STACK_BYTES``), so thousands of tasks are cheap: the per-task cost
is one parked pthread, not a runnable one fighting for the GIL.

A carrier is a stack, not a task: carriers live in one process-wide
LIFO pool (:class:`CarrierPool`) and outlast the runs they serve.  A
launch binds each task to a parked carrier's ``resume`` lock -- the
lock the carrier already sleeps on, so the first dispatch is the same
release as any other switch -- and spawns only the shortfall.  A
carrier whose task finished drops every reference to the run and parks
again; ``launch`` returns once all of its carriers are back.

The launcher (the ``Runtime.run`` caller's thread) is just one more
token holder with nothing to run: it hands the token to the first
task, and gets it back only when no carrier could pick a successor --
every task finished, or every task is parked with no timer, where it
waits (bounded, real time) for a wake from outside the cooperative
world and otherwise turns the stall into ``DeadlockError``.

Determinism comes from two properties:

* every scheduling decision is an explicit :meth:`SchedulePolicy.pick`
  over the runnable queue (wake order), recorded into a
  :class:`~repro.runtime.sched.policy.ScheduleTrace`;
* time is *virtual*: ``now()`` returns the scheduler's clock, which
  only advances when the run queue is empty, jumping straight to the
  earliest parked deadline.  Timeouts, fault-injected delays and held
  envelopes therefore resolve in a schedule-determined order with no
  wall-clock input.

Abort and error handling reuse the PR 3 subscriber shape: primitives
subscribe their waker to the :class:`~repro.runtime.abort.AbortSignal`,
so one ``set()`` makes every parked task runnable; the token holders
then simply keep scheduling (fifo, unrecorded) until everyone has
terminated.  A scheduler-level error (replay divergence) triggers the
same drain, from whichever holder hit it, before ``launch`` raises it.
"""

from __future__ import annotations

import heapq
import os
import sys
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.runtime.errors import DeadlockError, MPIError
from repro.runtime.sched.policy import SchedulePolicy, ScheduleTrace
from repro.runtime.sched.waker import CoopWaker

#: carrier stack size -- tasks only need room for the workload's Python
#: frames, and small stacks are what make 4k+ carriers affordable
STACK_BYTES = 512 * 1024

#: real seconds the launcher waits for an external wake before
#: declaring a stall.  Virtually unreachable in normal operation: every
#: blocking primitive parks with a (virtual) timeout tick, so a holder
#: with an empty run queue almost always has a timer to jump to.
STALL_LIMIT_S = 1.0

# task states
NEW, RUNNABLE, RUNNING, PARKED, DONE = range(5)


def _parked_lock() -> threading.Lock:
    lock = threading.Lock()
    lock.acquire()
    return lock


class CoopTask:
    """Per-task scheduler bookkeeping (one carrier thread each; the
    launcher has one too, rank -1, so it can hold and yield the token
    like any task)."""

    __slots__ = (
        "rank", "resume", "state", "woke_by_notify",
        "deadline", "waker", "inject", "park_seq",
    )

    def __init__(self, rank: int,
                 resume: Optional[threading.Lock] = None) -> None:
        self.rank = rank
        #: runner-token handoff: held (pre-acquired) while the task is
        #: off the CPU; whoever picks the task releases it, and the
        #: task's own ``acquire`` re-arms it.  A task's is its carrier's
        #: lock; only the launcher owns one of its own.
        self.resume = resume if resume is not None else _parked_lock()
        self.state = NEW
        #: did the last park end by notify (True) or timeout (False)?
        self.woke_by_notify = False
        #: virtual-clock deadline of the current park (None = no timer)
        self.deadline: Optional[float] = None
        #: the CoopWaker the task is parked on (None for sleeps)
        self.waker: Optional[CoopWaker] = None
        #: exception to raise inside the task at its next resume
        self.inject: Optional[BaseException] = None
        #: monotone park counter -- the timer heap tiebreaker, which
        #: makes equal-deadline wake order deterministic
        self.park_seq = 0


class _Carrier:
    """One pooled carrier thread's handle."""

    __slots__ = ("name", "resume", "job")

    def __init__(self, name: str) -> None:
        self.name = name
        #: pre-acquired; the carrier sleeps on it while parked in the
        #: pool, and the task bound to it uses it as its ``resume`` lock
        self.resume = _parked_lock()
        #: ``(scheduler, task, worker, latch)`` while bound, else None
        self.job: Optional[Tuple] = None


class _Latch:
    """One launch's carriers still out of the pool; the last one to park
    again releases ``back``."""

    __slots__ = ("pending", "back")

    def __init__(self, pending: int) -> None:
        self.pending = pending
        self.back = _parked_lock()


class CarrierPool:
    """The process-wide LIFO pool of parked carrier threads.

    Its size is its high-water mark: a launch takes the most recently
    parked carriers first (their stacks are the hottest) and spawns
    only the shortfall.  Spawning is the one place the process-wide
    ``threading.stack_size`` is touched, and only under the pool lock,
    so concurrent launches never restore each other's value."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[_Carrier] = []
        self._carriers: List[_Carrier] = []

    def bind(self, sched: "CoopScheduler", n_tasks: int,
             worker: Callable[[int], None]) -> Tuple[List[CoopTask], _Latch]:
        """One task per rank, each bound to a parked carrier's
        ``resume`` lock; the carriers run them once the scheduler
        dispatches them."""
        latch = _Latch(n_tasks)
        tasks = []
        with self._lock:
            idle = self._idle
            if n_tasks > len(idle):
                self._spawn_locked(n_tasks - len(idle))
            for rank in range(n_tasks):
                carrier = idle.pop()
                task = CoopTask(rank, carrier.resume)
                carrier.job = (sched, task, worker, latch)
                tasks.append(task)
        return tasks, latch

    def bound(self) -> List[str]:
        """Names of the carriers currently out of the pool."""
        with self._lock:
            idle = set(map(id, self._idle))
            return [c.name for c in self._carriers if id(c) not in idle]

    def _spawn_locked(self, n: int) -> None:
        # fresh carriers go under the parked ones: cold stacks last
        fresh = []
        try:
            old_stack = threading.stack_size(STACK_BYTES)
        except (ValueError, RuntimeError):  # pragma: no cover - platform
            old_stack = None
        try:
            for _ in range(n):
                carrier = _Carrier(f"coop-carrier-{len(self._carriers)}")
                threading.Thread(target=self._main, args=(carrier,),
                                 name=carrier.name, daemon=True).start()
                self._carriers.append(carrier)
                fresh.append(carrier)
        finally:
            self._idle[:0] = fresh
            if old_stack is not None:
                threading.stack_size(old_stack)

    def _main(self, carrier: _Carrier) -> None:
        """Carrier thread body: sleep until a bound task is dispatched,
        run it, drop every reference to its run, park again."""
        resume = carrier.resume
        while True:
            resume.acquire()
            sched, task, worker, latch = carrier.job
            carrier.job = None
            sched._run(task, worker)
            sched = task = worker = None
            with self._lock:
                self._idle.append(carrier)
                latch.pending -= 1
                last = latch.pending == 0
            if last:
                latch.back.release()
            latch = None

    def _after_fork(self) -> None:
        # a forked child has none of the parent's threads
        self.__init__()


#: the carriers every coop launch in this process draws from
CARRIER_POOL = CarrierPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=CARRIER_POOL._after_fork)


class CoopScheduler:
    """Single-runner cooperative scheduler over carrier threads."""

    def __init__(self, n_tasks: int, policy: SchedulePolicy,
                 on_drain: Optional[Callable[[], None]] = None) -> None:
        self.n_tasks = n_tasks
        self.policy = policy
        #: called once when the scheduler starts draining after an
        #: internal error (the runtime hooks its abort broadcast here)
        self.on_drain = on_drain
        self.trace = ScheduleTrace(
            policy=policy.name, seed=policy.seed,
            preemptive=policy.preemptive, n_tasks=n_tasks,
        )
        self.tasks: List[CoopTask] = []
        self._runq: deque = deque()
        self._timers: list = []      # heap of (deadline, park_seq, task)
        self._qlock = threading.Lock()
        #: the ``Runtime.run`` caller as a token holder: ``_pick`` returns
        #: it only when no task can run
        self._launcher = CoopTask(-1)
        #: external wake signal for the stalled launcher (posts/aborts
        #: arriving from non-coop threads)
        self._extern = threading.Event()
        #: scheduler-level error of the current launch (replay divergence)
        self._error: Optional[MPIError] = None
        self._tls = threading.local()
        self._alive = 0
        self._park_counter = 0
        self._recording = False
        #: virtual clock (seconds); advances only while the queue is empty
        self.vtime = 0.0
        # metrics
        self.context_switches = 0
        self.decisions = 0
        self.parks = 0
        self.notify_wakes = 0
        self.timer_wakes = 0
        self.preemptions = 0
        self.max_runq_depth = 0
        self.stall_recoveries = 0

    # ----------------------------------------------------------- introspection
    def current(self) -> Optional[CoopTask]:
        """The task executing on the calling thread (None off-task)."""
        return getattr(self._tls, "task", None)

    def now(self) -> float:
        return self.vtime

    # ----------------------------------------------------------------- launch
    def launch(self, worker: Callable[[int], None]) -> None:
        """Run ``worker(rank)`` for every rank under the policy; blocks
        until every task terminated.  Raises the scheduler's own error
        (replay divergence) after draining, if one occurred."""
        self.policy.reset()
        self.trace = ScheduleTrace(
            policy=self.policy.name, seed=self.policy.seed,
            preemptive=self.policy.preemptive, n_tasks=self.n_tasks,
        )
        self.tasks, latch = CARRIER_POOL.bind(self, self.n_tasks, worker)
        self._runq = deque()
        self._timers = []
        self._extern.clear()
        self._error = None
        self._alive = self.n_tasks
        self._park_counter = 0
        self._recording = True
        self.vtime = 0.0
        for t in self.tasks:
            t.state = RUNNABLE
            self._runq.append(t)
        self.max_runq_depth = max(self.max_runq_depth, len(self._runq))
        try:
            while True:
                # hand the token to a task; it comes back only when no
                # holder could pick a successor
                self._switch(self._launcher)
                if self._alive == 0:
                    break
                # every task parked, no timer at all: only a thread
                # outside the cooperative world can make progress
                if self._extern.wait(timeout=STALL_LIMIT_S):
                    self._extern.clear()
                else:
                    self._stall()
        finally:
            self._recording = False
            # every carrier this launch bound is parked again
            if self.tasks:
                latch.back.acquire()
        if self._error is not None:
            raise self._error

    def _run(self, task: CoopTask, worker: Callable[[int], None]) -> None:
        """A carrier's turn on ``task`` (it holds the runner token): run
        the task to completion, pass the token on one last time.  This
        is the task's thread top level, so an exception escaping
        ``worker`` goes to ``threading.excepthook`` exactly as a
        thread's own bootstrap would send it -- and the carrier, which
        the launch is still counting on, lives on."""
        self._tls.task = task
        try:
            worker(task.rank)
        except BaseException:  # noqa: BLE001 - a thread's top level
            threading.excepthook(threading.ExceptHookArgs(
                (*sys.exc_info(), threading.current_thread())))
        with self._qlock:
            task.state = DONE
            self._alive -= 1
        self._switch(task)
        self._tls.task = None

    # ------------------------------------------------------- token handoff
    def _switch(self, me: CoopTask) -> None:
        """Give up the runner token.  ``me`` -- its holder: a carrier
        that just parked, requeued itself or finished, or the launcher
        -- picks the successor and releases that task's ``resume`` lock
        directly, then sleeps on its own until somebody picks it.
        Picking oneself costs no OS switch at all."""
        nxt = self._pick()
        if nxt is not me:
            nxt.resume.release()
            if me.state != DONE:
                me.resume.acquire()

    def _pick(self) -> CoopTask:
        """The hot path: one policy decision per context switch, taken
        by the token holder.  Policies pick by *index* into the run
        queue (``pick_index``), so a decision never materialises the
        runnable-rank tuple -- with thousands of runnable tasks that
        per-switch O(n) build made large coop jobs superquadratic.
        Returns the launcher when nothing can run: every task is done,
        or all are parked with no timer."""
        while True:
            try:
                with self._qlock:
                    runq = self._runq
                    if not runq:
                        # advance the virtual clock to the earliest
                        # parked deadline
                        deadline = self._next_deadline_locked()
                        if deadline is None:
                            return self._launcher
                        self.vtime = max(self.vtime, deadline)
                        self._fire_timers_locked()
                    idx = 0
                    if self._recording:
                        idx = self.policy.pick_index(runq)
                        self.trace.events.append(runq[idx].rank)
                        self.decisions += 1
                    task = runq[idx]
                    del runq[idx]
                    task.state = RUNNING
                    self.context_switches += 1
                    return task
            except MPIError as exc:
                # scheduler-level failure (replay divergence): stop
                # recording, abort the job, drain fifo
                self._error = exc
                self._recording = False
            if self.on_drain is not None:
                self.on_drain()

    def _next_deadline_locked(self) -> Optional[float]:
        while self._timers:
            deadline, _, task = self._timers[0]
            if task.state != PARKED or task.deadline != deadline:
                heapq.heappop(self._timers)   # stale entry
                continue
            return deadline
        return None

    def _fire_timers_locked(self) -> None:
        while self._timers and self._timers[0][0] <= self.vtime:
            deadline, _, task = heapq.heappop(self._timers)
            if task.state != PARKED or task.deadline != deadline:
                continue
            self.timer_wakes += 1
            self._make_runnable_locked(task, by_notify=False)

    def _stall(self) -> None:
        """Every task parked, no timer, no external wake: the job can
        never progress on its own.  Turn the hang into a clean error."""
        self.stall_recoveries += 1
        with self._qlock:
            for task in self.tasks:
                if task.state == PARKED:
                    task.inject = DeadlockError(
                        f"task {task.rank}: scheduler stall -- every task "
                        f"is parked with no timer and no external wake"
                    )
                    self._make_runnable_locked(task, by_notify=False)

    # ------------------------------------------------------------ park / wake
    def prepare_park(self, task: CoopTask, waker: Optional[CoopWaker],
                     timeout: Optional[float]) -> None:
        """Stage 1 of a park, called with the waker lock still held so
        a racing notify can never miss the task."""
        with self._qlock:
            task.state = PARKED
            task.woke_by_notify = False
            task.waker = waker
            self._park_counter += 1
            task.park_seq = self._park_counter
            self.parks += 1
            if timeout is not None:
                task.deadline = self.vtime + max(timeout, 0.0)
                heapq.heappush(
                    self._timers, (task.deadline, task.park_seq, task)
                )
            else:
                task.deadline = None
            if waker is not None:
                waker.parked.append(task)

    def finish_park(self, task: CoopTask) -> bool:
        """Stage 2 (and the whole of a checkpoint's yield): pass the
        runner token on, block the carrier until some holder picks this
        task again."""
        self._switch(task)
        if task.inject is not None:
            exc = task.inject
            task.inject = None
            raise exc
        return task.woke_by_notify

    def notify(self, waker: CoopWaker, n: Optional[int]) -> None:
        """Move up to ``n`` tasks (all when None) parked on ``waker``
        into the run queue.  Callable from any thread."""
        woken = 0
        with self._qlock:
            while waker.parked and (n is None or woken < n):
                task = waker.parked.popleft()
                if task.state != PARKED or task.waker is not waker:
                    continue   # stale entry (timer or abort won the race)
                self.notify_wakes += 1
                self._make_runnable_locked(task, by_notify=True)
                woken += 1
        if woken and self.current() is None:
            # wake from outside the cooperative world: kick the launcher
            self._extern.set()

    def _make_runnable_locked(self, task: CoopTask, *, by_notify: bool) -> None:
        task.state = RUNNABLE
        task.woke_by_notify = by_notify
        task.waker = None
        task.deadline = None
        self._runq.append(task)
        if len(self._runq) > self.max_runq_depth:
            self.max_runq_depth = len(self._runq)

    # -------------------------------------------------- checkpoint and sleep
    def checkpoint(self) -> None:
        """Optional preemption point (message sends call this): under a
        preemptive policy the running task rejoins the run queue and the
        policy picks again -- possibly someone else."""
        if not self.policy.preemptive or not self._recording:
            return
        task = self.current()
        if task is None:
            return
        with self._qlock:
            task.state = RUNNABLE
            self._runq.append(task)
            self.preemptions += 1
            if len(self._runq) > self.max_runq_depth:
                self.max_runq_depth = len(self._runq)
        self.finish_park(task)

    def sleep(self, seconds: float) -> None:
        """Virtual-clock sleep: park with a timer and no waker.  Fault
        delays and backoff loops route here, so they perturb the
        *schedule*, not the wall clock."""
        task = self.current()
        if task is None:
            time.sleep(seconds)
            return
        self.prepare_park(task, None, seconds)
        self.finish_park(task)


__all__ = [
    "CARRIER_POOL", "CarrierPool", "CoopScheduler", "CoopTask", "STACK_BYTES",
]
