"""Non-blocking communication requests (MPI_Request analogs)."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.abort import ABORT_TICK, WaitPoint
from repro.runtime.message import Status


class Request:
    """Handle for a pending isend/irecv or nonblocking collective.

    Send requests complete immediately (the runtime's sends are
    buffered); receive and collective requests progress on
    :meth:`test` and block on :meth:`wait`.  ``parker`` is the wait
    point the request completes on (a mailbox, a collective engine):
    :meth:`waitany` parks there.
    """

    #: cap on one park of a waitany whose requests complete on two or
    #: more wait points: it parks on the first, so an event on another
    #: is seen at most this late
    MIXED_PARK_CAP = 0.002

    def __init__(
        self,
        *,
        kind: str,
        try_complete: Callable[[], Optional[Tuple[Any, Status]]],
        block_complete: Callable[[], Tuple[Any, Status]],
        parker: Optional[WaitPoint] = None,
    ) -> None:
        self.kind = kind
        self._try = try_complete
        self._block = block_complete
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
        leave the later requests unprogressed (a collective request
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

        Sweeps in order, so completion is fair for already-ready
        requests, then parks through :meth:`WaitPoint.park` on the
        first request's wait point under one :class:`Watchdog` per
        call: an abort wakes it, a wait nobody answers raises
        ``DeadlockError`` at ``timeout``, and only the deadline tokens
        of the wait points (deliveries, executed cells) extend it.
        Every sweep runs outside the conditions (a collective cell
        releases its engine's condition once around its body), and the
        wake tokens are read before it, so an event that lands during
        the sweep skips the park.  A list over several wait points
        parks at most :attr:`MIXED_PARK_CAP` at a time; requests with
        no wait point (test doubles) are swept again without parking."""
        if not requests:
            raise ValueError("waitany needs at least one request")
        points = list({id(r._parker): r._parker for r in requests
                       if r._parker is not None}.values())
        dog = None
        while True:
            tokens = [p.wake_token() for p in points]
            for i, r in enumerate(requests):
                if r.test():
                    return i, r.wait()
            if not points:
                continue
            home = points[0]
            if dog is None:
                dog = home.watchdog(lambda: (
                    "job aborted during waitany",
                    f"waitany over {[r.kind for r in requests]} timed out "
                    f"-- likely deadlock",
                ), Request.MIXED_PARK_CAP if len(points) > 1 else ABORT_TICK)
            with home._cond:
                if [p.wake_token() for p in points] == tokens:
                    # one park per sweep: the next sweep tests every
                    # request, whatever woke this one
                    home.park(lambda: True,
                              lambda: [p.progress() for p in points], dog=dog)

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
