"""The waker: a condition-variable facade over the coop scheduler.

Every blocking primitive in this runtime parks on a
``threading.Condition`` -- mailboxes, collective engines, HLS scope
states, RMA windows.  :class:`CoopWaker` keeps that exact protocol
(``with waker: ... waker.wait(t) ... waker.notify_all()``) but turns
``wait`` into a scheduler park: the task's carrier thread picks its
successor -- via the active :class:`SchedulePolicy
<repro.runtime.sched.policy.SchedulePolicy>` -- hands it the
single-runner token and blocks on its private resume lock, so a parked
task costs no OS-level spinning.

The internal lock is a real ``threading.RLock``: posts and wakes may
come from *outside* the cooperative world (an abort watchdog thread, a
test harness), and the mutual exclusion it provides is exactly the one
the threads backend relies on.  Parking releases the lock *fully*
(``_release_save``/``_acquire_restore``, the same dance
``threading.Condition`` does) and -- crucially -- registers the task
with the scheduler *before* releasing it, so a notify racing the park
can never be lost.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.runtime.errors import MPIError


class CoopWaker:
    """Drop-in ``threading.Condition`` replacement bound to a
    :class:`~repro.runtime.sched.coop.CoopScheduler`."""

    def __init__(self, sched) -> None:
        self._sched = sched
        self._lock = threading.RLock()
        #: tasks parked on this waker, in park order; guarded by the
        #: scheduler's queue lock, *not* by ``_lock``
        self.parked = deque()

    # ------------------------------------------------- lock protocol
    def acquire(self, *args, **kwargs):
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False

    # -------------------------------------------- condition protocol
    def wait(self, timeout=None) -> bool:
        """Park the current task until a notify or (virtual-clock)
        timeout; returns True iff woken by a notify.  Must be called
        with the waker lock held, from a scheduled task."""
        sched = self._sched
        task = sched.current()
        if task is None:
            raise MPIError(
                "CoopWaker.wait() outside a scheduled task -- only coop "
                "tasks may block on a coop runtime's primitives"
            )
        # Register first (lost-wakeup prevention), then drop the lock
        # fully -- callers may hold it re-entrantly.
        sched.prepare_park(task, self, timeout)
        try:
            saved = self._lock._release_save()
        except AttributeError:  # pragma: no cover - non-CPython lock
            self._lock.release()
            saved = None
        try:
            return sched.finish_park(task)
        finally:
            if saved is None:  # pragma: no cover - non-CPython lock
                self._lock.acquire()
            else:
                self._lock._acquire_restore(saved)

    def notify(self, n: int = 1) -> None:
        self._sched.notify(self, n)

    def notify_all(self) -> None:
        self._sched.notify(self, None)


__all__ = ["CoopWaker"]
