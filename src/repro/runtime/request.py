"""Non-blocking communication requests (MPI_Request analogs)."""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.abort import WaitPoint
from repro.runtime.message import Status

logger = logging.getLogger(__name__)


class Request:
    """Handle for a pending isend/irecv.

    Send requests complete immediately (the runtime's sends are
    buffered); receive requests poll the mailbox on :meth:`test` and
    block on :meth:`wait`.
    """

    #: cap on one waitany park: an event (matching post, abort) wakes
    #: the poller immediately; the cap only bounds how much virtual
    #: time an *unanswered* sweep can consume under ``backend="coop"``
    #: (and how late a post racing the park is noticed under threads)
    WAITANY_PARK_CAP = 1.0

    #: waitany calls that found requests parking on *different* objects
    #: (mailbox, collective engine) and fell back to polling: a park
    #: token from one says nothing about activity on another, so
    #: parking on it could sleep through a completion for a full cap
    mixed_backend_fallbacks = 0

    def __init__(
        self,
        *,
        kind: str,
        try_complete: Callable[[], Optional[Tuple[Any, Status]]],
        block_complete: Callable[[], Tuple[Any, Status]],
        sleep: Optional[Callable[[float], None]] = None,
        parker: Optional[WaitPoint] = None,
    ) -> None:
        self.kind = kind
        self._try = try_complete
        self._block = block_complete
        # how waitany backs off between polling sweeps: a real sleep
        # under the threads backend, a scheduler yield under coop --
        # the coop runner must park, or the poll loop would starve
        # every other task (there is only one runner)
        self._sleep = sleep
        # Event-driven backoff (preferred over _sleep when available):
        # park on the owning wait point's condition (mailbox, collective
        # engine) so completion events wake the poller instead of being
        # discovered by the next sweep.  waitany may only use it when
        # every parker in the list is the same wait point.
        self._parker = parker
        self._done = False
        self._result: Any = None
        self._status: Optional[Status] = None

    @property
    def done(self) -> bool:
        return self._done

    def test(self) -> bool:
        """Try to complete without blocking; returns completion state."""
        if self._done:
            return True
        got = self._try()
        if got is not None:
            self._result, self._status = got
            self._done = True
        return self._done

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block until complete; returns the received object (for
        receives) or None (for sends)."""
        if not self._done:
            self._result, self._status = self._block()
            self._done = True
        if status is not None and self._status is not None:
            status.source = self._status.source
            status.tag = self._status.tag
            status.nbytes = self._status.nbytes
        return self._result

    @staticmethod
    def waitall(requests: List["Request"]) -> List[Any]:
        """Wait for every request; returns results in request order.

        Implemented as a :meth:`waitany` sweep, NOT ``[r.wait() for r
        in requests]``: blocking on ``requests[0]`` head-of-line would
        leave the later requests unprogressed (a ``CollectiveRequest``
        only advances when tested) and an abort raised by any of them
        unnoticed until the first one resolves."""
        results: List[Any] = [None] * len(requests)
        remaining = list(range(len(requests)))
        while remaining:
            j, value = Request.waitany([requests[i] for i in remaining])
            results[remaining.pop(j)] = value
        return results

    @staticmethod
    def testall(requests: List["Request"]) -> bool:
        """True iff every request can complete without blocking.

        MPI_Testall semantics: *every* request is tested (and therefore
        progressed) on every call -- a short-circuiting conjunction
        would stop at the first incomplete request and never progress
        the later ones, so evaluate all tests first, then combine."""
        results = [r.test() for r in requests]
        return all(results)

    @staticmethod
    def waitany(requests: List["Request"]) -> Tuple[int, Any]:
        """Block until some request completes; returns (index, result).
        Polls in order, so completion is fair for already-ready
        requests; after the first empty sweep it backs off so a long
        wait does not burn a core (blocking receives themselves are
        event-driven in the mailbox and need no such loop)."""
        if not requests:
            raise ValueError("waitany needs at least one request")
        parkers = [r._parker for r in requests if r._parker is not None]
        # The event-driven path parks on ONE request's condition; that
        # is only sound when every parker parks on the same object (a
        # mailbox's token is stale for a collective engine's events).
        # Mixed lists fall back to bounded polling, loudly counted.
        owners = {id(p) for p in parkers}
        if len(owners) > 1:
            Request.mixed_backend_fallbacks += 1
            logger.debug(
                "waitany: %d requests park on %d different objects; "
                "falling back to polling (fallback #%d)",
                len(parkers), len(owners), Request.mixed_backend_fallbacks,
            )
            parker = None
        else:
            parker = parkers[0] if parkers else None
        sleep = next(
            (r._sleep for r in requests if r._sleep is not None), time.sleep
        )
        sweeps = 0
        while True:
            token = parker.progress() if parker is not None else 0
            for i, r in enumerate(requests):
                if r.test():
                    return i, r.wait()
            sweeps += 1
            if sweeps > 1:
                if parker is not None:
                    # Event-driven: parks on the mailbox condition, so a
                    # matching post wakes the sweep immediately and the
                    # bounded cap is only paid by genuinely idle waits --
                    # a polling loop (e.g. a steal loop) cannot spin the
                    # coop virtual clock forward past unrelated timers
                    # in micro-sleep quanta.
                    parker.park_for_progress(token, Request.WAITANY_PARK_CAP)
                else:
                    sleep(min(0.0001 * sweeps, 0.002))

    @staticmethod
    def completed(result: Any = None, status: Optional[Status] = None) -> "Request":
        """An already-complete request (used for sends)."""
        req = Request(
            kind="send",
            try_complete=lambda: (result, status or Status()),
            block_complete=lambda: (result, status or Status()),
        )
        req._done = True
        req._result = result
        req._status = status or Status()
        return req


__all__ = ["Request"]
