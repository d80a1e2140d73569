"""Regression tests for ``Request.waitany`` backoff under the coop
backend.

The old waitany backoff slept an escalating micro-interval between
sweeps.  Under the cooperative backend those sleeps park on the
*virtual clock*, so a task polling requests in a loop (e.g. a steal
loop overlapping communication) dragged vtime forward in thousands of
tiny steps -- and could spin it past unrelated timers.  waitany now
parks on the receiving mailbox's activity counter with a bounded cap
(``Request.WAITANY_PARK_CAP``): a post wakes it immediately, an
un-posted wait costs at most the cap per wake."""

import pytest

from repro.machine import core2_cluster
from repro.runtime import Request, Runtime


def coop_rt(seed, n_tasks=2, **kw):
    return Runtime(core2_cluster(1), n_tasks=n_tasks, timeout=30.0,
                   backend="coop", schedule=f"random:{seed}", **kw)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_waitany_parks_instead_of_vtime_spin(seed):
    """A receiver waiting on a sender 1.0 virtual seconds away must ride
    the mailbox park, not micro-sleep the virtual clock forward: final
    vtime stays ~1.0 and timer wakes stay O(1), where the old backoff
    produced hundreds."""
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            req = c.irecv(source=1, tag=7)
            idx, obj = Request.waitany([req])
            assert idx == 0
            return obj, ctx.runtime.now()
        ctx.sleep(1.0)
        c.send("late", dest=0, tag=7)
        return None, ctx.runtime.now()

    rt = coop_rt(seed)
    res = rt.run(main)
    assert res[0][0] == "late"
    # vtime advanced by the sender's timer, not by polling micro-sleeps
    assert res[0][1] == pytest.approx(1.0, abs=0.2)
    sm = rt.metrics("sched")
    assert sm.timer_wakes < 20, sm.timer_wakes


@pytest.mark.parametrize("seed", [3, 9])
def test_waitany_cap_bounds_each_park(seed):
    """With a sender several virtual seconds away, each park is bounded
    by WAITANY_PARK_CAP -- the waiter re-checks periodically instead of
    sleeping arbitrarily far past other timers."""
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            req = c.irecv(source=1, tag=1)
            Request.waitany([req])
            return ctx.runtime.now()
        ctx.sleep(3.0)
        c.send("x", dest=0, tag=1)
        return ctx.runtime.now()

    rt = coop_rt(seed)
    res = rt.run(main)
    assert res[0] == pytest.approx(3.0, abs=0.2)
    sm = rt.metrics("sched")
    # ~3 cap-bounded timer wakes (one per WAITANY_PARK_CAP second), far
    # from the thousands the escalating micro-backoff produced
    assert sm.timer_wakes < 30, sm.timer_wakes


def test_waitany_multiple_requests_still_matches_any(seed=5):
    """The park hook rides on one request's mailbox but completion of
    any request in the set must still win the race."""
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            slow = c.irecv(source=1, tag=1)
            fast = c.irecv(source=2, tag=2)
            idx, obj = Request.waitany([slow, fast])
            got = [obj]
            idx2, obj2 = Request.waitany([slow if idx == 1 else fast])
            got.append(obj2)
            return sorted(got)
        if ctx.rank == 1:
            ctx.sleep(0.5)
            c.send("slow", dest=0, tag=1)
        else:
            c.send("fast", dest=0, tag=2)
        return None

    rt = coop_rt(seed, n_tasks=3)
    res = rt.run(main)
    assert res[0] == ["fast", "slow"]


def test_waitany_threads_backend_unchanged():
    """The same pattern completes under the threads backend (the park
    path falls back to condition waits with real timeouts)."""
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            req = c.irecv(source=1, tag=4)
            idx, obj = Request.waitany([req])
            return obj
        ctx.sleep(0.05)
        c.send("ok", dest=0, tag=4)
        return None

    rt = Runtime(core2_cluster(1), n_tasks=2, timeout=10.0)
    assert rt.run(main)[0] == "ok"
