"""Point-to-point message plumbing: envelopes, the matcher and mailboxes.

Each task owns one :class:`Mailbox`.  Senders post an
:class:`Envelope`; receivers match on ``(communicator context, source,
tag)`` with MPI wildcard semantics.  The pending-message store is the
:class:`IndexedMatcher`: per-``(context, src, tag)`` bucketed FIFO
queues plus a monotone arrival stamp.  Exact receives are O(1) bucket
lookups; wildcard (``ANY_SOURCE``/``ANY_TAG``) receives scan only the
*non-empty* buckets of the context and pick the head with the smallest
stamp -- the message an arrival-order linear scan would match (the
property suite holds it to that scan, ``tests/oracle.py``).

Matching in arrival order together with a per-(src, dst)
sequence number gives the MPI non-overtaking guarantee: two messages
from the same source on the same communicator and tag are received in
the order they were sent.

Blocking receives are event-driven: a receiver parks on the mailbox
condition until a post (targeted ``notify`` -- only the owner task ever
blocks on its own mailbox), an abort wake, or its deadline
(:meth:`repro.runtime.abort.WaitPoint.park`).  The progress token is
``delivered``: another request draining this mailbox between waits
extends the deadline, mere arrivals of non-matching traffic do not, so
a receive nobody answers still times out on schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.abort import WaitPoint, raise_if_aborted

ANY_SOURCE = -1
ANY_TAG = -1

#: AbortError text of this module: (owner task, " during <verb>" or "")
_ABORTED = "task %s: job aborted%s"


@dataclass
class Envelope:
    """One in-flight message."""

    src: int            # global rank in COMM_WORLD
    dst: int
    tag: int
    context: int        # communicator context id
    payload: Any        # already copied per backend policy at send time
    nbytes: int
    seq: int            # per-(src,dst) sequence for FIFO assertions
    owned: bool = True  # payload is already a private copy of the data
    #: receiver may keep the payload by reference (same address space
    #: and the runtime's sharing policy allows it) -- the P2P analog of
    #: the collectives zero-copy fast path
    shareable: bool = False
    arrival: int = -1   # mailbox arrival stamp, set by the matcher

    def matches(self, source: int, tag: int, context: int) -> bool:
        return (
            self.context == context
            and (source == ANY_SOURCE or self.src == source)
            and (tag == ANY_TAG or self.tag == tag)
        )


@dataclass
class Status:
    """Receive status (MPI_Status analog)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0


class IndexedMatcher:
    """Bucketed FIFO queues: O(1) exact match, O(buckets) wildcards.

    Buckets are keyed ``(src, tag)`` inside a per-context table; empty
    buckets (and empty context tables) are removed eagerly so wildcard
    scans only ever visit live traffic.  Arrival stamps are monotone per
    mailbox, so "the pending message that arrived first" is well defined
    across buckets -- wildcard receives pick the minimum-stamp head,
    which is exactly the message a linear scan would have matched.

    ``comparisons`` counts bucket examinations (one per exact lookup,
    one per candidate bucket for wildcards) -- the same unit as a linear
    scan counting envelopes, since that scan examines one envelope per
    step and the indexed scan one bucket head per step.
    """

    algorithm = "indexed"

    def __init__(self) -> None:
        # context -> {(src, tag): FIFO of envelopes}
        self._ctx: Dict[int, Dict[Tuple[int, int], Deque[Envelope]]] = {}
        self._stamp = 0
        self._size = 0
        self.comparisons = 0

    def __len__(self) -> int:
        return self._size

    def add(self, env: Envelope) -> None:
        env.arrival = self._stamp
        self._stamp += 1
        buckets = self._ctx.setdefault(env.context, {})
        q = buckets.get((env.src, env.tag))
        if q is None:
            q = deque()
            buckets[(env.src, env.tag)] = q
        q.append(env)
        self._size += 1

    def _match_key(
        self, source: int, tag: int, context: int
    ) -> Optional[Tuple[int, int]]:
        buckets = self._ctx.get(context)
        if not buckets:
            return None
        if source != ANY_SOURCE and tag != ANY_TAG:
            self.comparisons += 1
            return (source, tag) if (source, tag) in buckets else None
        best_key: Optional[Tuple[int, int]] = None
        best_stamp = -1
        for key, q in buckets.items():
            self.comparisons += 1
            src, t = key
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and t != tag:
                continue
            stamp = q[0].arrival
            if best_key is None or stamp < best_stamp:
                best_key, best_stamp = key, stamp
        return best_key

    def take(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        key = self._match_key(source, tag, context)
        if key is None:
            return None
        buckets = self._ctx[context]
        q = buckets[key]
        env = q.popleft()
        if not q:
            del buckets[key]
            if not buckets:
                del self._ctx[context]
        self._size -= 1
        return env

    def peek(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        key = self._match_key(source, tag, context)
        if key is None:
            return None
        return self._ctx[context][key][0]


class Mailbox(WaitPoint):
    """Pending-message store for one task, with blocking matched
    receive.  Its deadline token is ``delivered`` and its wake token
    ``posted``."""

    def __init__(self, owner: int, runtime: Any) -> None:
        self.owner = owner
        self._runtime = runtime      # its probe: read on every receive
        self.matcher = IndexedMatcher()
        self.posted = 0
        self.delivered = 0
        #: envelopes held back by an injected reorder, in arrival order:
        #: ``[release deadline, envelope]`` entries.  Always empty when
        #: no plan is installed.
        self._held: List[List[Any]] = []
        # The execution backend decides how a receiver parks and tells
        # time: a real Condition + time.monotonic (threads), or a
        # scheduler-parking CoopWaker + the virtual clock (coop).  The
        # backend's own clock: a deadline check is one call, not two.
        super().__init__(runtime._backend.condition(), runtime.abort_flag,
                         runtime._backend.now, runtime.timeout)

    def post(self, env: Envelope, *, hold: Optional[float] = None) -> None:
        """Add a message; ``hold`` (fault injection only) keeps it
        invisible to matching for up to that many seconds to force a
        cross-sender reorder."""
        with self._cond:
            self.posted += 1
            if self._held:
                # MPI non-overtaking: everything held from this sender
                # must become matchable before its newer message does
                # (plus anything whose hold expired).
                self._release_held(src=env.src)
            if hold is not None:
                self._held.append([self._clock() + hold, env])
                return
            self.matcher.add(env)
            # Targeted wake: only the mailbox owner ever blocks on this
            # condition (receives are task-local), so a single notify
            # reaches exactly the right thread.
            self._cond.notify()

    def _release_held(
        self, src: Optional[int] = None, *, everything: bool = False
    ) -> None:
        """Move held envelopes into the matcher -- same-sender entries
        (``src``), expired entries (always), or ``everything`` --
        preserving arrival order.  Caller holds the condition."""
        now = self._clock()
        kept: List[List[Any]] = []
        released = False
        for entry in self._held:
            deadline, env = entry
            if everything or env.src == src or deadline <= now:
                self.matcher.add(env)
                released = True
            else:
                kept.append(entry)
        self._held = kept
        if released:
            self._cond.notify()

    def wake(self) -> None:
        """Wake any parked receiver (abort path; see Runtime.signal_abort)."""
        with self._cond:
            if self._held:
                # never strand a held message behind an abort/wake
                self._release_held(everything=True)
            self._cond.notify_all()

    def _take(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        if self._held:
            self._release_held()   # expired holds only
        env = self.matcher.take(source, tag, context)
        if env is not None:
            self.delivered += 1
        return env

    def _park(self, verb: str, source: int, tag: int, hint: str,
              find: Callable[[], Any], progress: Callable[[], Any]) -> Any:
        """Park (condition held) until ``find()`` matches; an abort wins
        over a pending match."""
        def ready() -> Any:
            raise_if_aborted(self._abort, _ABORTED, self.owner, f" during {verb}")
            return find()

        return self.park(ready, progress, lambda: (
            _ABORTED % (self.owner, f" during {verb}"),
            f"task {self.owner}: {verb}(source={source}, tag={tag}) "
            f"timed out{hint}",
        ))

    def receive(self, source: int, tag: int, context: int) -> Envelope:
        """Block until a matching message arrives (an abort wins over a
        pending match)."""
        p = self._runtime.probe
        if p is not None:
            # slow receiver / crash-mid-receive injection site
            p("p2p.recv", self.owner)
        with self._cond:
            raise_if_aborted(self._abort, _ABORTED, self.owner, " during recv")
            env = self._take(source, tag, context)
            if env is None:
                env = self._park(
                    "recv", source, tag, " -- likely deadlock",
                    lambda: self._take(source, tag, context),
                    self.progress,
                )
            return env

    def try_receive(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Non-blocking matched receive (None if nothing matches)."""
        with self._cond:
            raise_if_aborted(self._abort, _ABORTED, self.owner, "")
            return self._take(source, tag, context)

    def _peek(self, source: int, tag: int, context: int) -> Optional[Status]:
        if self._held:
            self._release_held()
        env = self.matcher.peek(source, tag, context)
        if env is None:
            return None
        return Status(source=env.src, tag=env.tag, nbytes=env.nbytes)

    def probe(self, source: int, tag: int, context: int) -> Optional[Status]:
        """Non-destructive match: status of the first matching message."""
        with self._cond:
            return self._peek(source, tag, context)

    def probe_blocking(self, source: int, tag: int, context: int) -> Status:
        """Block until a matching message is pending; do not consume it."""
        with self._cond:
            raise_if_aborted(self._abort, _ABORTED, self.owner, " during probe")
            status = self._peek(source, tag, context)
            if status is None:
                status = self._park(
                    "probe", source, tag, "",
                    lambda: self._peek(source, tag, context), lambda: None,
                )
            return status

    def progress(self) -> int:
        return self.delivered

    def wake_token(self) -> int:
        return self.posted

    def pending_count(self) -> int:
        with self._cond:
            return len(self.matcher) + len(self._held)


__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "Status",
    "IndexedMatcher",
    "Mailbox",
]
