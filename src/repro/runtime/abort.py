"""Abort signalling and the one blocking-wait park.

The runtime's blocking primitives are event-driven -- a parked task is
woken by the notify of the event it waits for, not by a fixed-rate
poll.  That makes abort a *broadcast* problem: whoever sets the flag
must wake every parked waiter, wherever it is parked (a mailbox
condition, a collective engine, an HLS scope state).

:class:`AbortSignal` solves it by subscription: each synchronisation
primitive registers a waker callback at construction time, and
:meth:`AbortSignal.set` runs them all after raising the flag.  The
class subclasses :class:`threading.Event`, so every pre-existing call
site that only checks ``abort_flag.is_set()`` -- and every test that
hands a bare ``threading.Event`` to a primitive -- keeps working; the
primitives degrade to the :data:`ABORT_TICK` safety tick when the flag
cannot be subscribed to.

Every blocking primitive is one :class:`WaitPoint` -- the mailbox, the
collective engine, an RMA window's epoch state, an HLS scope state and
an OpenMP team -- which owns its condition, its abort subscription and
wake, and the one park loop, :meth:`WaitPoint.park`.  That loop takes
its abort check and deadline from one :class:`Watchdog`, which
enforces: (1) an abort ends the wait with the site's ``AbortError``;
(2) a wait nobody answers raises its ``DeadlockError`` once ``timeout``
passed on the runtime's clock; (3) a change of the site's progress
token (arrivals, deliveries, executed cells, epoch transitions)
restarts the deadline, so a slow-but-advancing wait never times out;
(4) wakeups without progress (spurious notifies, non-matching traffic)
do not.  ``Request.waitany`` parks through the same loop under one
:class:`Watchdog` per call.  The scheduler's donate spin parks on no
condition and ticks a :class:`Watchdog` of its own.

The signal also keeps the abort bookkeeping the chaos metrics report
(:mod:`repro.metrics.faults`): when the flag was first raised
(recovery-latency measurement) and how many blocked operations it
terminated (``propagated``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.errors import AbortError, DeadlockError

#: cap on one condition wait: a safety tick for abort flags set without
#: a wake (bare-``Event`` construction in unit tests), not a poll --
#: releases, posts and aborts notify the condition
ABORT_TICK = 1.0

#: "no token seen yet": the first tick always starts the deadline
_UNSEEN = object()


class AbortSignal(threading.Event):
    """A :class:`threading.Event` that wakes subscribers when set."""

    def __init__(self) -> None:
        super().__init__()
        self._wakers: List[Callable[[], None]] = []
        self._sub_lock = threading.Lock()
        #: monotonic timestamp of the first ``set()`` (None until then)
        self.set_at: Optional[float] = None
        #: blocked operations terminated with AbortError by this signal
        self.propagated = 0

    def subscribe(self, waker: Callable[[], None]) -> None:
        """Register a waker run on every ``set()``.  Wakers must be
        idempotent and must not block (typically ``notify_all`` under
        the primitive's own condition)."""
        with self._sub_lock:
            self._wakers.append(waker)
        if self.is_set():       # late subscriber during an abort
            waker()

    def set(self) -> None:  # noqa: A003 - threading.Event API
        with self._sub_lock:
            if self.set_at is None:
                self.set_at = time.monotonic()
            wakers = list(self._wakers)
        super().set()
        for wake in wakers:
            wake()

    def note_propagation(self) -> None:
        with self._sub_lock:
            self.propagated += 1


def subscribe_abort(flag: threading.Event, waker: Callable[[], None]) -> None:
    """Subscribe ``waker`` to ``flag`` when the flag supports it (a
    bare ``threading.Event`` -- unit-test construction -- does not; the
    caller's safety tick covers that case)."""
    sub = getattr(flag, "subscribe", None)
    if sub is not None:
        sub(waker)


def note_abort(flag: threading.Event) -> None:
    """Record one abort propagation on ``flag`` when it keeps count."""
    note = getattr(flag, "note_propagation", None)
    if note is not None:
        note()


def raise_if_aborted(flag: threading.Event, message: str, *args: Any) -> None:
    """Raise ``AbortError(message % args)`` (counting the propagation)
    when ``flag`` is set; formatting is deferred like ``logging``'s, so
    a hot path pays one ``is_set()``."""
    if flag.is_set():
        note_abort(flag)
        raise AbortError(message % args if args else message)


class Watchdog:
    """Abort check + progress-extended deadline of one blocking wait.

    Built when the wait first has to park; the wait loop then parks
    with ``cond.wait(timeout=dog.tick(token))`` and the deadline runs
    from the first tick.  ``messages`` returns the site's
    ``(AbortError text, DeadlockError text)`` and is only called to
    raise (the second usually quotes arrival counts as of that moment).
    """

    __slots__ = ("_flag", "_clock", "_timeout", "_messages", "_cap",
                 "_deadline", "_seen")

    def __init__(
        self,
        abort_flag: threading.Event,
        clock: Callable[[], float],
        timeout: float,
        messages: Callable[[], Tuple[str, str]],
        cap: float = ABORT_TICK,
    ) -> None:
        self._flag = abort_flag
        self._clock = clock
        self._timeout = timeout
        self._messages = messages
        self._cap = cap
        self._seen: Any = _UNSEEN

    def tick(self, progress: Any = None) -> float:
        """One turn of a wait loop: raise on abort, restart the deadline
        when ``progress`` differs from the last tick's token, raise on a
        passed deadline; otherwise return how long the caller may park
        before ticking again (at most ``cap``)."""
        if self._flag.is_set():
            note_abort(self._flag)
            raise AbortError(self._messages()[0])
        now = self._clock()
        if progress != self._seen:
            self._seen = progress
            self._deadline = now + self._timeout
        elif now >= self._deadline:
            raise DeadlockError(self._messages()[1])
        left = self._deadline - now
        return left if left < self._cap else self._cap


class WaitPoint:
    """One blocking primitive: its condition, abort wake and watchdog
    park.  Subclasses (``Mailbox``, ``IcollState``, ``_WinShared``,
    ``ScopeSyncState``, ``omp.Team``) test readiness inline under
    ``_cond`` and call :meth:`park` only when they must wait, so a ready
    wait builds no closure and no :class:`Watchdog`.  ``_cond`` is read
    at every wait: a test may swap it."""

    def __init__(self, cond: Any, abort_flag: threading.Event,
                 clock: Callable[[], float], timeout: float) -> None:
        self._cond = cond
        self._abort = abort_flag
        self._clock = clock
        self._timeout = timeout
        self.parks = 0      # condition waits made
        subscribe_abort(abort_flag, self.wake)

    def wake(self) -> None:
        """Wake every waiter parked here (the abort broadcast)."""
        with self._cond:
            self._cond.notify_all()

    def watchdog(self, messages: Callable[[], Tuple[str, str]],
                 cap: float = ABORT_TICK) -> Watchdog:
        """A :class:`Watchdog` on this wait point's abort flag, clock
        and timeout."""
        return Watchdog(self._abort, self._clock, self._timeout, messages,
                        cap)

    def park(self, ready: Callable[[], Any], progress: Callable[[], Any],
             messages: Optional[Callable[[], Tuple[str, str]]] = None,
             dog: Optional[Watchdog] = None) -> Any:
        """With ``_cond`` held and ``ready()`` just found falsy: wait,
        ticking a :class:`Watchdog` with ``progress()``, until
        ``ready()`` returns a truthy value, and return it.  The dog is
        the caller's when it parks more than once per wait
        (``Request.waitany``), else built here from ``messages``."""
        if dog is None:
            dog = self.watchdog(messages)
        while True:
            self._cond.wait(timeout=dog.tick(progress()))
            self.parks += 1
            got = ready()
            if got:
                return got

    def progress(self) -> Any:
        """The deadline token: what a blocking wait here counts as
        progress."""
        raise NotImplementedError

    def wake_token(self) -> Any:
        """Changes on every event that notifies ``_cond``; ``waitany``
        reads it before its sweep and parks only if it is unchanged."""
        return self.progress()


__all__ = [
    "ABORT_TICK",
    "AbortSignal",
    "WaitPoint",
    "Watchdog",
    "note_abort",
    "raise_if_aborted",
    "subscribe_abort",
]
