"""Request-set semantics: ``testall`` must progress *every* request
(the short-circuit regression), and ``waitany`` coverage for mixed
ready/pending sets, its backoff path and fairness."""

import threading
import time

import pytest

from repro.runtime import Request, Runtime
from repro.runtime.message import Status


def run(n, main, **kw):
    kw.setdefault("timeout", 5.0)
    return Runtime(n_tasks=n, **kw).run(main)


def make_request(*, ready_after=0, value="v"):
    """A synthetic request whose try_complete succeeds from the
    ``ready_after``-th poll on, counting every poll."""
    state = {"calls": 0}

    def try_complete():
        state["calls"] += 1
        if state["calls"] > ready_after:
            return (value, Status())
        return None

    req = Request(
        kind="recv",
        try_complete=try_complete,
        block_complete=lambda: (value, Status()),
    )
    return req, state


class TestTestall:
    def test_tests_every_request_not_just_the_first(self):
        """Regression: a short-circuiting conjunction stops at the first
        incomplete request, so later requests are never progressed.
        MPI_Testall polls them all."""
        blocked, blocked_state = make_request(ready_after=10**9)
        ready, ready_state = make_request(value="done")
        assert Request.testall([blocked, ready]) is False
        # the second request was polled and completed even though the
        # first one (earlier in the list) is still pending
        assert ready_state["calls"] == 1
        assert ready.done
        assert blocked_state["calls"] == 1

    def test_true_only_when_all_complete(self):
        a, _ = make_request()
        b, _ = make_request(ready_after=2)
        assert Request.testall([a, b]) is False      # b needs more polls
        assert a.done and not b.done
        assert Request.testall([a, b]) is False      # b's 2nd poll
        assert Request.testall([a, b]) is True       # b's 3rd completes
        assert Request.testall([]) is True           # vacuous truth

    def test_completed_requests_are_not_repolled(self):
        a, state = make_request()
        assert Request.testall([a]) is True
        Request.testall([a])
        assert state["calls"] == 1                   # done short-circuits

    def test_regression_end_to_end(self):
        """Rank 0 posts two receives; only the *second* is satisfied.
        One testall call must still complete that second request."""
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                reqs = [c.irecv(source=1, tag=t) for t in (1, 2)]
                c.recv(source=1, tag=9)              # tag-2 send is in flight
                deadline = time.monotonic() + 2.0
                while not reqs[1].done:
                    assert Request.testall(reqs) is False
                    assert time.monotonic() < deadline, (
                        "testall never progressed the second request"
                    )
                c.send("go", dest=1)
                while not Request.testall(reqs):
                    pass
                return Request.waitall(reqs)
            c.send("second", dest=0, tag=2)
            c.send("posted", dest=0, tag=9)
            c.recv(source=0)                          # wait until observed
            c.send("first", dest=0, tag=1)
            return None

        res = run(2, main)
        assert res[0] == ["first", "second"]


class TestWaitany:
    def test_mixed_ready_pending_picks_the_ready_one(self):
        pending, pstate = make_request(ready_after=10**9)
        ready, _ = make_request(value="hit")
        idx, val = Request.waitany([pending, ready])
        assert (idx, val) == (1, "hit")
        assert pstate["calls"] >= 1                  # the sweep polled it

    def test_fairness_lowest_ready_index_wins(self):
        a, _ = make_request(value="a")
        b, _ = make_request(value="b")
        assert Request.waitany([a, b]) == (0, "a")

    def test_backoff_path_still_completes(self):
        """A request that needs many empty sweeps (>2) exercises the
        sleep-backoff branch and must still complete with the right
        result."""
        slow, state = make_request(ready_after=12, value="late")
        other, _ = make_request(ready_after=10**9)
        start = time.monotonic()
        idx, val = Request.waitany([other, slow])
        assert (idx, val) == (1, "late")
        assert state["calls"] >= 12                  # >2 sweeps happened
        assert time.monotonic() - start < 2.0        # backoff stays tiny

    def test_result_matches_wait(self):
        """waitany's (index, result) must be exactly what wait() on that
        request returns; the request is left completed."""
        req, _ = make_request(ready_after=3, value={"k": 7})
        idx, val = Request.waitany([req])
        assert idx == 0 and val == {"k": 7}
        assert req.done
        assert req.wait() == {"k": 7}                # idempotent

    def test_end_to_end_delayed_sender(self):
        """Real mailbox: the only matching send arrives ~50ms late, so
        waitany provably spins through the backoff before completing."""
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                reqs = [c.irecv(source=1, tag=t) for t in (0, 1)]
                # only the tag-1 send exists yet, so waitany must sweep
                # (empty-handed at first) until it lands
                idx, val = Request.waitany(reqs)
                assert (idx, val) == (1, "slow")
                c.send("go", dest=1)
                reqs[0].wait()
                return val
            time.sleep(0.05)
            c.send("slow", dest=0, tag=1)
            c.recv(source=0)                          # waitany returned
            c.send("other", dest=0, tag=0)
            return None

        assert run(2, main)[0] == "slow"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Request.waitany([])


class TestWaitallSweep:
    """Regression battery for the head-of-line waitall: the old
    implementation ran ``requests[0]._block()`` first, so later
    requests were neither progressed nor observed until the first one
    resolved on its own."""

    def test_later_requests_progress_while_first_pending(self):
        """A first request that only becomes ready after the *later*
        requests have been polled deadlocks the head-of-line
        implementation (its block_complete spins forever) but completes
        under the waitany sweep, which tests every request each round."""
        polled = {"later": 0}

        def first_try():
            # ready only once the later request has been progressed --
            # models a collective whose completion depends on progress
            # made by testing its peers
            if polled["later"] >= 1:
                return ("first", Status())
            return None

        def first_block():
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                got = first_try()
                if got is not None:
                    return got
                time.sleep(0.001)
            raise AssertionError(
                "head-of-line block: first request waited without "
                "later requests ever being progressed"
            )

        def later_try():
            polled["later"] += 1
            return ("later", Status())

        first = Request(
            kind="recv", try_complete=first_try, block_complete=first_block
        )
        later = Request(
            kind="recv", try_complete=later_try,
            block_complete=lambda: ("later", Status()),
        )
        assert Request.waitall([first, later]) == ["first", "later"]

    def test_results_keep_request_order(self):
        reqs, _ = zip(*[
            make_request(ready_after=3 - i, value=f"v{i}") for i in range(4)
        ])
        assert Request.waitall(list(reqs)) == ["v0", "v1", "v2", "v3"]

    def test_empty_list(self):
        assert Request.waitall([]) == []

    @pytest.mark.parametrize(
        "backend,kw",
        [
            ("threads", {}),
            ("coop", {"schedule": "random:5"}),
            ("process", {}),
        ],
    )
    def test_end_to_end_all_backends(self, backend, kw):
        """Functional waitall over out-of-order irecvs on every
        backend: rank 0 waits on messages posted in reverse order."""
        from repro.runtime import ProcessRuntime

        n = 4

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                reqs = [c.irecv(source=s, tag=s) for s in range(1, n)]
                return Request.waitall(reqs)
            # higher ranks send later; tags pin the pairing
            for _ in range(n - ctx.rank):
                ctx.sleep(0.001)
            c.send(f"m{ctx.rank}", dest=0, tag=ctx.rank)
            return None

        if backend == "process":
            rt = ProcessRuntime(n_tasks=n, timeout=5.0)
        else:
            rt = Runtime(n_tasks=n, timeout=5.0, backend=backend, **kw)
        results = rt.run(main)
        assert results[0] == [f"m{s}" for s in range(1, n)]

    def test_abort_seen_while_first_request_pending(self):
        """An abort raised by a *later* request's completion path must
        surface promptly even though the first request never becomes
        ready (the head-of-line implementation sat in
        requests[0]._block() and only saw the abort after its own
        timeout)."""
        from repro.runtime import AbortError

        never = Request(
            kind="recv",
            try_complete=lambda: None,
            block_complete=lambda: (_ for _ in ()).throw(
                AssertionError("blocked head-of-line on request 0")
            ),
        )

        def aborting_try():
            raise AbortError("peer failed")

        aborting = Request(
            kind="recv", try_complete=aborting_try,
            block_complete=lambda: (None, Status()),
        )
        with pytest.raises(AbortError):
            Request.waitall([never, aborting])


class TestWaitanyMixedRuntimes:
    """Regression: waitany used to park on whichever request happened
    to carry a parker -- with requests from two different runtimes the
    park token belongs to one runtime and says nothing about activity
    on the other, so a completion there could go unnoticed for a full
    park cap.  Mixed lists must park for at most a short cap."""

    def test_mixed_runtime_requests_fall_back_to_polling(self):
        rt_a = Runtime(n_tasks=2, timeout=5.0)
        rt_b = Runtime(n_tasks=2, timeout=5.0)

        def main_a(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                req_a = c.irecv(source=1, tag=0)
                # a parker from a DIFFERENT runtime, never completed --
                # the old code could pick it and park on rt_b's mailbox
                # while rt_a's message arrives
                foreign = rt_b._mailboxes[1]
                req_b = Request(
                    kind="recv",
                    try_complete=lambda: None,
                    block_complete=lambda: (None, Status()),
                    parker=foreign,
                )
                i, got = Request.waitany([req_b, req_a])
                assert (i, got) == (1, "hello")
                return got
            ctx.sleep(0.01)
            c.send("hello", dest=0, tag=0)
            return None

        assert rt_a.run(main_a)[0] == "hello"

    def test_same_runtime_requests_do_not_count_fallback(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                reqs = [c.irecv(source=1, tag=t) for t in range(2)]
                return Request.waitall(reqs)
            ctx.sleep(0.005)
            for t in range(2):
                c.send(t, dest=0, tag=t)
            return None

        assert Runtime(n_tasks=2, timeout=5.0).run(main)[0] == [0, 1]
