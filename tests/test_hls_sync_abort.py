"""Abort and timeout hardening of the HLS synchronisation layer.

Two failure modes this file pins down:

* **missed abort**: a task parked in ``hls_barrier``/``hls_single``
  only rechecks the abort flag on a notify, so an abort that nobody
  announces leaves it parked until its deadlock timeout.  The fix is
  the subscribable :class:`~repro.runtime.abort.AbortSignal`: setting
  it broadcasts a wakeup to every subscribed scope state (the same
  signal-abort pattern ``Mailbox.receive`` uses);
* **starved timeout**: the old ``_wait_generation`` countdown only
  shrank on *timed-out* waits, so a steady stream of notifies (exactly
  what the chaos harness's spurious-wake action produces) postponed
  ``DeadlockError`` forever.  The deadline is now a monotonic clock
  extended only by real arrivals.
"""

import threading
import time

import pytest

from repro.faults import FaultPlan
from repro.hls import HLSProgram
from repro.hls.sync import ScopeSyncState
from repro.machine import small_test_machine
from repro.machine.scopes import ScopeInstance, ScopeSpec
from repro.runtime import AbortError, DeadlockError, InjectedCrash, Runtime
from repro.runtime.abort import AbortSignal


def make_state(n=4, *, abort_flag=None, timeout=5.0):
    inst = ScopeInstance(ScopeSpec.parse("node"), 0)
    return ScopeSyncState(
        inst, tuple(range(n)),
        abort_flag if abort_flag is not None else threading.Event(),
        timeout=timeout,
    )


def park(n_waiters, body):
    """Start ``n_waiters`` threads in ``body``; return (threads, outcomes)."""
    outcomes = {}

    def wrap(rank):
        try:
            body(rank)
            outcomes[rank] = "returned"
        except BaseException as exc:  # noqa: BLE001
            outcomes[rank] = exc

    ts = [
        threading.Thread(target=wrap, args=(r,)) for r in range(n_waiters)
    ]
    for t in ts:
        t.start()
    return ts, outcomes


class TestMissedAbortWakeup:
    @pytest.mark.parametrize("directive", ["barrier", "single"])
    def test_abort_signal_wakes_parked_waiters_immediately(self, directive):
        """3 of 4 tasks park (the 4th never arrives); setting the
        AbortSignal must wake all 3 with AbortError long before either
        the deadlock timeout or the 1s legacy safety tick."""
        sig = AbortSignal()
        st = make_state(4, abort_flag=sig, timeout=30.0)
        body = st.barrier if directive == "barrier" else st.single_enter
        ts, outcomes = park(3, body)
        time.sleep(0.2)            # everyone parked
        start = time.monotonic()
        sig.set()
        for t in ts:
            t.join(timeout=5.0)
        elapsed = time.monotonic() - start
        assert all(not t.is_alive() for t in ts)
        assert all(isinstance(outcomes[r], AbortError) for r in range(3))
        assert elapsed < 0.5, f"abort wakeup took {elapsed:.2f}s (missed?)"
        assert sig.propagated >= 3

    def test_bare_event_still_aborts_via_safety_tick(self):
        """Legacy construction with a plain Event (no broadcast): the
        1s safety tick must still deliver the abort."""
        ev = threading.Event()
        st = make_state(4, abort_flag=ev, timeout=30.0)
        ts, outcomes = park(3, st.barrier)
        time.sleep(0.2)
        ev.set()
        for t in ts:
            t.join(timeout=5.0)
        assert all(not t.is_alive() for t in ts)
        assert all(isinstance(outcomes[r], AbortError) for r in range(3))

    def test_abort_set_before_parking_raises_at_entry(self):
        sig = AbortSignal()
        sig.set()
        st = make_state(4, abort_flag=sig, timeout=30.0)
        with pytest.raises(AbortError):
            st.barrier(0)


class TestStarvedTimeout:
    @pytest.mark.parametrize("directive", ["barrier", "single"])
    def test_notify_storm_cannot_postpone_deadlock(self, directive):
        """Hammer the parked waiter with spurious wakeups for the whole
        timeout window: DeadlockError must still fire on schedule."""
        st = make_state(2, timeout=1.0)
        body = st.barrier if directive == "barrier" else st.single_enter
        ts, outcomes = park(1, body)   # partner never arrives
        start = time.monotonic()
        while time.monotonic() - start < 2.5 and ts[0].is_alive():
            st.wake()                  # the spurious-wake injection path
            time.sleep(0.005)
        ts[0].join(timeout=5.0)
        elapsed = time.monotonic() - start
        assert not ts[0].is_alive(), "notify storm starved the timeout"
        assert isinstance(outcomes[0], DeadlockError)
        assert elapsed < 2.5, f"DeadlockError fired after {elapsed:.2f}s"

    def test_arrivals_extend_the_deadline(self):
        """Progress (real arrivals) must keep a live barrier alive past
        the per-wait timeout."""
        st = make_state(3, timeout=0.8)
        ts, outcomes = park(1, st.barrier)       # rank 0 parks first
        time.sleep(0.5)
        t1, o1 = park(1, lambda _: st.barrier(1))  # arrival extends rank 0
        time.sleep(0.5)                            # > timeout since rank 0 parked
        st.barrier(2)                              # releases everyone
        for t in ts + t1:
            t.join(timeout=5.0)
        assert outcomes[0] == "returned" and o1[0] == "returned"


class TestRuntimeIntegration:
    def _make(self, plan=None):
        rt = Runtime(small_test_machine(), n_tasks=4, timeout=10.0)
        if plan is not None:
            rt.install_faults(plan)
        prog = HLSProgram(rt)
        prog.declare("v", shape=(1,), scope="node")
        return rt, prog

    @pytest.mark.parametrize("site", ["hls.barrier", "hls.single"])
    def test_injected_crash_in_hls_sync_aborts_the_job(self, site):
        """A crash at an hls sync site kills one task; the abort must
        reach its peers parked inside the same directive."""
        rt, prog = self._make(FaultPlan.single(site, "crash", task=2))

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("v"):
                h.get("v")[0] += 1.0
                h.single_done("v")
            h.barrier("v")
            return float(h.get("v")[0])

        start = time.monotonic()
        with pytest.raises(InjectedCrash):
            rt.run(main)
        assert time.monotonic() - start < 10.0
        assert rt.metrics("faults").aborts_propagated >= 1

    def test_runtime_exception_wakes_single_waiters(self):
        """The original bug: task 3 dies *outside* hls before entering
        the single; the waiters parked inside must get the abort, not
        sit out their deadlock timeout."""
        rt, prog = self._make()

        class Boom(RuntimeError):
            pass

        def main(ctx):
            h = prog.attach(ctx)
            if ctx.rank == 3:
                time.sleep(0.2)        # let the others park
                raise Boom("task 3 died before the directive")
            if h.single_enter("v"):    # never completes: 3 is required
                h.single_done("v")
            return True

        start = time.monotonic()
        with pytest.raises(Boom):
            rt.run(main)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, (
            f"waiters sat {elapsed:.2f}s -- abort wakeup missed"
        )
