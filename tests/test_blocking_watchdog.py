"""Conformance battery for the one blocking-wait watchdog.

Every blocking primitive parks through :class:`repro.runtime.abort.
Watchdog`; this file states its four invariants once and runs them
against every primitive on both execution backends:

1. an abort wakes a parked waiter well under ``ABORT_TICK``;
2. a wait nobody answers raises ``DeadlockError`` at ``timeout``
   (exactly, on coop's virtual clock);
3. real progress extends the deadline;
4. spurious notifies / non-matching traffic do not.

Each primitive is a :class:`Waiter`: a 4-task program where rank 0
blocks and ranks 1..3 are helpers that make progress (the last step
releases rank 0), make noise, abort, or stay away.  CI runs the file
under both ``REPRO_SHARING`` settings.
"""

import os
import threading

import pytest

from repro.hls import HLSProgram
from repro.machine import small_test_machine
from repro.omp import Team
from repro.runtime import AbortError, DeadlockError, Runtime
from repro.runtime.abort import ABORT_TICK, AbortSignal, Watchdog
from repro.runtime.rma import Win

N = 4
SHARING = os.environ.get("REPRO_SHARING", "private")
#: per-backend runtime timeout: the virtual clock is free, so coop
#: spans several ABORT_TICK chunks; threads pays wall time
TIMEOUT = {"coop": 2.5, "threads": 0.3}


# ------------------------------------------------------------ unit tests
class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def make_dog(timeout=5.0, flag=None):
    clock = FakeClock()
    dog = Watchdog(
        flag if flag is not None else threading.Event(), clock, timeout,
        lambda: ("aborted here", f"stalled at {clock.t}"),
    )
    return dog, clock


class TestWatchdogUnit:
    def test_tick_returns_remaining_capped_at_abort_tick(self):
        dog, clock = make_dog(timeout=5.0)
        assert dog.tick() == ABORT_TICK
        clock.t += 4.75
        assert dog.tick() == pytest.approx(0.25)

    def test_deadline_runs_from_first_tick_and_message_is_lazy(self):
        dog, clock = make_dog(timeout=5.0)
        clock.t += 60.0                 # built early: costs nothing
        dog.tick()
        clock.t += 5.0
        with pytest.raises(DeadlockError, match="stalled at 165.0"):
            dog.tick()

    def test_progress_token_change_restarts_deadline(self):
        dog, clock = make_dog(timeout=5.0)
        dog.tick(7)
        clock.t += 4.0
        assert dog.tick(8) == ABORT_TICK      # restarted: 5 s left
        clock.t += 4.0
        assert dog.tick(8) == ABORT_TICK      # 1 s left
        clock.t += 1.0
        with pytest.raises(DeadlockError):
            dog.tick(8)

    def test_changed_token_beats_a_passed_deadline(self):
        dog, clock = make_dog(timeout=5.0)
        dog.tick(0)
        clock.t += 60.0
        assert dog.tick(1) == ABORT_TICK

    def test_same_token_never_extends(self):
        dog, clock = make_dog(timeout=2.0)
        for _ in range(7):
            dog.tick(3)
            clock.t += 0.25
        clock.t += 0.25
        with pytest.raises(DeadlockError):
            dog.tick(3)

    def test_abort_raises_site_message_and_counts_propagation(self):
        flag = AbortSignal()
        dog, clock = make_dog(flag=flag)
        dog.tick()
        flag.set()
        with pytest.raises(AbortError, match="aborted here"):
            dog.tick()
        assert flag.propagated == 1

    def test_abort_wins_over_a_passed_deadline(self):
        flag = threading.Event()
        dog, clock = make_dog(flag=flag)
        dog.tick()
        clock.t += 60.0
        flag.set()
        with pytest.raises(AbortError):
            dog.tick()


# ------------------------------------------------------------- primitives
class Waiter:
    """One blocking primitive as a 4-task program."""

    runtime_kwargs = {}
    #: False for waits without a progress token (invariant 3 is moot)
    has_progress = True

    def bind(self, rt):
        """Pre-run construction against the runtime."""

    def setup(self, ctx):
        """Collective set-up; returns this task's state."""

    def wait(self, ctx, st):
        """Rank 0: the blocking call under test."""
        raise NotImplementedError

    def step(self, ctx, st):
        """Ranks 1..3, in rank order: one unit of real progress.  Rank
        3's step releases the waiter."""
        raise NotImplementedError

    def noise(self, ctx, st):
        """A wakeup of the waiter that carries no progress."""
        raise NotImplementedError


class RecvWaiter(Waiter):
    def wait(self, ctx, st):
        ctx.comm_world.recv(source=3, tag=7)

    def step(self, ctx, st):
        c = ctx.comm_world
        if ctx.rank == 3:
            c.send("go", dest=0, tag=7)
            return
        # matching progress: a tag-9 message is posted to rank 0 and
        # drained by another request on the same mailbox
        c.send("other", dest=0, tag=9)
        assert ctx.runtime.mailbox(0).try_receive(ctx.rank, 9, c.context)

    def noise(self, ctx, st):
        ctx.comm_world.send("noise", dest=0, tag=9)


class ProbeWaiter(RecvWaiter):
    has_progress = False

    def wait(self, ctx, st):
        ctx.comm_world.probe(source=3, tag=7)


class FlatBarrierWaiter(Waiter):
    runtime_kwargs = {"algorithm": "flat"}

    def wait(self, ctx, st):
        ctx.comm_world.barrier()

    step = wait

    def noise(self, ctx, st):
        ctx.comm_world._engine.wake()


class TreeSweepWaiter(FlatBarrierWaiter):
    runtime_kwargs = {"algorithm": "hierarchical"}

    def wait(self, ctx, st):
        assert ctx.comm_world.allreduce(1) == N

    step = wait


class IallreduceWaiter(FlatBarrierWaiter):
    runtime_kwargs = {}

    def wait(self, ctx, st):
        assert ctx.comm_world.iallreduce(1).wait() == N

    step = wait


class HlsBarrierWaiter(Waiter):
    def bind(self, rt):
        self.prog = HLSProgram(rt)
        self.prog.declare("v", shape=(2,), scope="node")

    def setup(self, ctx):
        return self.prog.attach(ctx)

    def wait(self, ctx, h):
        h.barrier("v")

    step = wait

    def noise(self, ctx, h):
        self.prog.sync.state(h.scope_instance("v")).wake()


class HlsSingleWaiter(HlsBarrierWaiter):
    def wait(self, ctx, h):
        if h.single_enter("v"):     # only the last arriver (rank 3)
            h.single_done("v")

    step = wait


class RmaStartWaiter(Waiter):
    def setup(self, ctx):
        return Win.allocate(ctx.comm_world, 2)

    def wait(self, ctx, win):
        win.start([3])

    def step(self, ctx, win):
        # rank 3 posts the matching exposure epoch; 1 and 2 open
        # unrelated ones (an epoch transition on the window)
        win.post([0] if ctx.rank == 3 else [ctx.rank])

    def noise(self, ctx, win):
        win._shared.wake()


class RmaLockWaiter(RmaStartWaiter):
    def setup(self, ctx):
        win = Win.allocate(ctx.comm_world, 2)
        if ctx.rank == 3:
            win.lock(0, exclusive=True)
        return win

    def wait(self, ctx, win):
        win.lock(0, exclusive=True)

    def step(self, ctx, win):
        if ctx.rank == 3:
            win.unlock(0)
        else:                       # the lock queue elsewhere advances
            win.lock(ctx.rank)
            win.unlock(ctx.rank)


class RmaWaitWaiter(RmaStartWaiter):
    def setup(self, ctx):
        win = Win.allocate(ctx.comm_world, 2)
        if ctx.rank == 0:
            win.post([3])
        return win

    def wait(self, ctx, win):
        win.wait()

    def step(self, ctx, win):
        if ctx.rank == 3:           # the one origin closes its access epoch
            win.start([0])
            win.complete()
        else:                       # unrelated exposure epochs open
            win.post([ctx.rank])


class RmaLockAllWaiter(RmaLockWaiter):
    def wait(self, ctx, win):
        win.lock_all()


# ------------------------------------------------------------ the battery
def drive(waiter, backend, helper, *, timeout=None):
    """Run the waiter's program; returns rank 0's ``(outcome, elapsed)``
    where outcome is "returned" or the exception class it caught and
    elapsed is measured on the runtime's own clock."""
    rt = Runtime(
        small_test_machine(), n_tasks=N, backend=backend, sharing=SHARING,
        timeout=TIMEOUT[backend] if timeout is None else timeout,
        **waiter.runtime_kwargs,
    )
    waiter.bind(rt)

    def main(ctx):
        st = waiter.setup(ctx)
        ctx.comm_world.barrier()
        if ctx.rank != 0:
            helper(ctx, st)
            return None
        t0 = rt.now()
        try:
            waiter.wait(ctx, st)
            outcome = "returned"
        except (AbortError, DeadlockError) as exc:
            outcome = type(exc)
        return outcome, rt.now() - t0

    return rt.run(main)[0]


@pytest.mark.parametrize("backend", ["threads", "coop"])
class WatchdogContract:
    """The four invariants; subclasses supply ``make_waiter``."""

    def make_waiter(self):
        raise NotImplementedError

    def test_abort_wakes_parked_waiter(self, backend):
        delay = 0.1

        def helper(ctx, st):
            if ctx.rank == 1:
                ctx.runtime.task_sleep(delay)
                ctx.runtime.signal_abort()

        outcome, elapsed = drive(
            self.make_waiter(), backend, helper, timeout=30.0
        )
        assert outcome is AbortError
        # announced, not discovered by the ABORT_TICK safety tick
        assert delay <= elapsed < delay + ABORT_TICK / 4
        if backend == "coop":
            assert elapsed == pytest.approx(delay, abs=1e-9)

    def test_unanswered_wait_raises_at_timeout(self, backend):
        outcome, elapsed = drive(
            self.make_waiter(), backend, lambda ctx, st: None
        )
        self.assert_deadlock_at_timeout(backend, outcome, elapsed)

    def test_progress_extends_deadline(self, backend):
        waiter = self.make_waiter()
        if not waiter.has_progress:
            pytest.skip("this wait has no progress token")
        gap = 0.6 * TIMEOUT[backend]

        def helper(ctx, st):
            ctx.runtime.task_sleep(ctx.rank * gap)
            waiter.step(ctx, st)

        outcome, elapsed = drive(waiter, backend, helper)
        assert outcome == "returned"
        # released after 1.8x the timeout, never more than 0.6x idle
        assert elapsed >= 3 * gap - 1e-9
        if backend == "coop":
            assert elapsed == pytest.approx(3 * gap, abs=1e-9)

    def test_noise_does_not_extend_deadline(self, backend):
        waiter = self.make_waiter()
        gap = 0.25 * TIMEOUT[backend]

        def helper(ctx, st):
            if ctx.rank == 1:
                for _ in range(8):          # 2x the timeout
                    ctx.runtime.task_sleep(gap)
                    waiter.noise(ctx, st)

        outcome, elapsed = drive(waiter, backend, helper)
        self.assert_deadlock_at_timeout(backend, outcome, elapsed)

    @staticmethod
    def assert_deadlock_at_timeout(backend, outcome, elapsed):
        assert outcome is DeadlockError
        timeout = TIMEOUT[backend]
        if backend == "coop":
            assert elapsed == pytest.approx(timeout, abs=1e-9)
        else:
            assert timeout <= elapsed < timeout + 0.25


class TestMailboxReceive(WatchdogContract):
    make_waiter = RecvWaiter


class TestMailboxProbe(WatchdogContract):
    make_waiter = ProbeWaiter


class TestFlatBarrier(WatchdogContract):
    make_waiter = FlatBarrierWaiter


class TestTreeSweep(WatchdogContract):
    make_waiter = TreeSweepWaiter


class TestIallreduceWait(WatchdogContract):
    make_waiter = IallreduceWaiter


class TestHlsBarrier(WatchdogContract):
    make_waiter = HlsBarrierWaiter


class TestHlsSingle(WatchdogContract):
    make_waiter = HlsSingleWaiter


class TestRmaStart(WatchdogContract):
    make_waiter = RmaStartWaiter


class TestRmaLock(WatchdogContract):
    make_waiter = RmaLockWaiter


class TestRmaWait(WatchdogContract):
    make_waiter = RmaWaitWaiter


class TestRmaLockAll(WatchdogContract):
    make_waiter = RmaLockAllWaiter


# --------------------------------------------------- the RMA regression
def test_advancing_lock_queue_does_not_trip_watchdog():
    """Four tasks each hold an exclusive lock for 0.6 s under a 1.0 s
    timeout: the queue advances every 0.6 s, so nobody may time out
    (the RMA wait used to ignore progress; the third task raised)."""
    rt = Runtime(n_tasks=4, timeout=1.0, backend="coop")

    def main(ctx):
        win = Win.allocate(ctx.comm_world, 2)
        win.lock(0, exclusive=True)
        ctx.runtime.task_sleep(0.6)
        win.unlock(0)
        return True

    assert rt.run(main) == [True] * 4
    assert rt.now() == pytest.approx(4 * 0.6)


def test_stuck_start_without_post_still_raises_at_timeout():
    rt = Runtime(n_tasks=2, timeout=1.0, backend="coop")

    def main(ctx):
        win = Win.allocate(ctx.comm_world, 2)
        if ctx.rank == 0:
            win.start([1])
        return rt.now()

    with pytest.raises(DeadlockError, match=r"start\(\[1\]\) timed out"):
        rt.run(main)
    assert rt.now() == pytest.approx(1.0)


# ------------------------------------------------------- the fast paths
# Every blocking primitive tests its readiness inline and builds its
# Watchdog only in WaitPoint.park, so one patch point covers them all.
# Each case is a one-task program whose waits are all ready on arrival.
def _recv(rt):
    def main(ctx):
        ctx.comm_world.send("x", dest=0, tag=1)
        assert ctx.comm_world.recv(source=0, tag=1) == "x"
    return main


def _probe(rt):
    def main(ctx):
        ctx.comm_world.send("x", dest=0, tag=1)
        assert ctx.comm_world.probe(source=0, tag=1).tag == 1
    return main


def _hls(directive):
    def case(rt):
        prog = HLSProgram(rt)
        prog.declare("v", shape=(2,), scope="node")

        def main(ctx):
            directive(prog.attach(ctx))
        return main
    return case


def _hls_single(h):
    assert h.single_enter("v")      # the last (only) arriver
    h.single_done("v")


def _rma(epoch):
    def case(rt):
        def main(ctx):
            epoch(Win.allocate(ctx.comm_world, 2))
        return main
    return case


def _pscw(win):
    win.post([0])
    win.start([0])                  # after the matching post
    win.complete()
    win.wait()


def _collective_wait(rt):
    def main(ctx):
        assert ctx.comm_world.iallreduce(1).wait() == 1
    return main


def _omp(body):
    def case(rt):
        def main(ctx):
            Team(1).run(body)       # the one thread arrives last
        return main
    return case


def _omp_single(t):
    assert t.single()
    t.single_done()                 # the team has assembled


FAST_PATHS = {
    "recv": _recv,
    "probe": _probe,
    "hls_barrier": _hls(lambda h: h.barrier("v")),
    "hls_single_done": _hls(_hls_single),
    "rma_lock": _rma(lambda w: (w.lock(0, exclusive=True), w.unlock(0))),
    "rma_lock_all": _rma(lambda w: (w.lock_all(), w.unlock_all())),
    "rma_start_after_post": _rma(_pscw),
    "collective_wait": _collective_wait,
    "omp_barrier": _omp(lambda t: t.barrier()),
    "omp_single_done": _omp(_omp_single),
}


@pytest.mark.parametrize("backend", ["threads", "coop"])
@pytest.mark.parametrize("case", sorted(FAST_PATHS))
def test_no_watchdog_on_a_fast_path(monkeypatch, case, backend):
    def no_watchdog(*args):
        raise AssertionError("a wait that never parks built a Watchdog")

    monkeypatch.setattr("repro.runtime.abort.Watchdog", no_watchdog)
    rt = Runtime(small_test_machine(), n_tasks=1, backend=backend,
                 sharing=SHARING, timeout=5.0)
    rt.run(FAST_PATHS[case](rt))
