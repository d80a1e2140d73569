"""Unit tests of the cooperative scheduler building blocks.

Covers the pieces below the ``Runtime(backend="coop")`` surface:
schedule policies and their factory, the canonical trace format, the
backend factory's validation, the virtual clock, preemption
checkpoints, the stall backstop, the carrier-to-carrier token handoff,
and the scheduler counter snapshot
(:class:`~repro.metrics.sched.SchedMetrics`).
"""

import gc
import json
import sys
import threading
import time
import weakref

import pytest

from repro.machine import core2_cluster
from repro.runtime import (
    CoopBackend,
    DeadlockError,
    FifoPolicy,
    MPIError,
    RandomPolicy,
    ReplayPolicy,
    Runtime,
    ScheduleReplayError,
    ScheduleTrace,
    ThreadsBackend,
    make_execution_backend,
    make_policy,
)
from repro.runtime.sched.coop import CARRIER_POOL, DONE, CoopScheduler
from repro.runtime.sched.waker import CoopWaker

N_TASKS = 4


def coop_runtime(**kw):
    kw.setdefault("timeout", 10.0)
    return Runtime(core2_cluster(1), n_tasks=N_TASKS, backend="coop", **kw)


# ----------------------------------------------------------------- policies
class TestPolicies:
    def test_fifo_picks_the_queue_head(self):
        p = FifoPolicy()
        assert p.pick((3, 1, 2)) == 3
        assert p.name == "fifo" and p.seed is None and not p.preemptive

    def test_random_is_deterministic_per_seed(self):
        runnable = tuple(range(8))
        a = RandomPolicy(17)
        b = RandomPolicy(17)
        picks_a = [a.pick(runnable) for _ in range(50)]
        picks_b = [b.pick(runnable) for _ in range(50)]
        assert picks_a == picks_b
        c = RandomPolicy(18)
        assert picks_a != [c.pick(runnable) for _ in range(50)]

    def test_random_reset_restarts_the_stream(self):
        p = RandomPolicy(5)
        first = [p.pick((0, 1, 2, 3)) for _ in range(20)]
        p.reset()
        assert [p.pick((0, 1, 2, 3)) for _ in range(20)] == first

    def test_random_only_picks_runnable(self):
        p = RandomPolicy(0)
        for _ in range(100):
            assert p.pick((2, 5)) in (2, 5)

    def test_replay_follows_the_trace(self):
        trace = ScheduleTrace(policy="random", seed=1, events=[2, 0, 1])
        p = ReplayPolicy(trace)
        assert p.pick((0, 1, 2)) == 2
        assert p.pick((0, 1)) == 0
        assert p.pick((1, 3)) == 1

    def test_replay_divergence_raises(self):
        p = ReplayPolicy(ScheduleTrace(events=[2]))
        with pytest.raises(ScheduleReplayError, match="diverged"):
            p.pick((0, 1))     # 2 is not runnable here

    def test_replay_exhaustion_raises(self):
        p = ReplayPolicy(ScheduleTrace(events=[0]))
        p.pick((0,))
        with pytest.raises(ScheduleReplayError, match="exhausted"):
            p.pick((0,))

    def test_make_policy_parses_specs(self):
        assert make_policy(None).name == "fifo"
        assert make_policy("fifo").name == "fifo"
        r = make_policy("random:42")
        assert r.name == "random" and r.seed == 42 and r.preemptive
        assert make_policy("random").seed == 0
        p = FifoPolicy()
        assert make_policy(p) is p
        rp = make_policy(ScheduleTrace(events=[0]))
        assert isinstance(rp, ReplayPolicy)

    def test_make_policy_rejects_junk(self):
        with pytest.raises(MPIError):
            make_policy("lifo")
        with pytest.raises(MPIError):
            make_policy("random:banana")
        with pytest.raises(MPIError):
            make_policy(3.14)


# -------------------------------------------------------------------- trace
class TestScheduleTrace:
    def test_canonical_json_roundtrip(self):
        t = ScheduleTrace(policy="random", seed=9, preemptive=True,
                          n_tasks=4, events=[0, 3, 1, 1])
        back = ScheduleTrace.from_json(t.to_json())
        assert back == t
        assert back.to_json() == t.to_json()
        # canonical: compact, sorted keys
        assert " " not in t.to_json()

    def test_dump_load(self, tmp_path):
        t = ScheduleTrace(policy="fifo", n_tasks=2, events=[0, 1, 0])
        path = tmp_path / "sched_trace.json"
        t.dump(path)
        assert ScheduleTrace.load(path) == t

    def test_version_is_checked(self):
        with pytest.raises(ValueError):
            ScheduleTrace.from_dict({"version": 2, "events": []})

    def test_len_counts_events(self):
        assert len(ScheduleTrace(events=[1, 2, 3])) == 3


# ------------------------------------------------------------------ factory
class TestBackendFactory:
    def test_threads_is_the_default(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        assert rt.execution_backend == "threads"
        assert isinstance(rt._backend, ThreadsBackend)
        assert rt.schedule_trace() is None

    def test_schedule_requires_coop(self):
        with pytest.raises(MPIError, match="backend='coop'"):
            Runtime(core2_cluster(1), n_tasks=2, schedule="random:1")

    def test_unknown_backend_rejected(self):
        with pytest.raises(MPIError, match="unknown execution backend"):
            Runtime(core2_cluster(1), n_tasks=2, backend="fibers")

    def test_coop_backend_wires_the_policy(self):
        b = make_execution_backend("coop", 4, schedule="random:3")
        assert isinstance(b, CoopBackend)
        assert b.policy.seed == 3
        assert isinstance(b.condition(), CoopWaker)


# ------------------------------------------------------------ virtual clock
class TestVirtualClock:
    def test_sleep_costs_no_wall_time(self):
        import time as _time
        rt = coop_runtime()

        def main(ctx):
            ctx.sleep(30.0)          # far beyond the suite timeout
            return ctx.runtime.now()

        t0 = _time.monotonic()
        ends = rt.run(main)
        assert _time.monotonic() - t0 < 5.0
        assert all(v >= 30.0 for v in ends)

    def test_sleep_order_is_rank_deterministic(self):
        rt = coop_runtime()
        order = []
        lock = threading.Lock()

        def main(ctx):
            ctx.sleep(float(N_TASKS - ctx.rank))   # rank 3 wakes first
            with lock:
                order.append(ctx.rank)

        rt.run(main)
        assert order == list(range(N_TASKS))[::-1]

    def test_threads_clock_is_real(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        import time as _time
        assert abs(rt.now() - _time.monotonic()) < 1.0


# ------------------------------------------------------------------- stall
class TestStallBackstop:
    def test_global_park_without_timers_becomes_deadlock(self):
        """Tasks parked on a bare waker, no timeout, nothing external:
        the scheduler must inject DeadlockError instead of hanging."""
        sched = CoopScheduler(2, FifoPolicy())
        waker = CoopWaker(sched)
        outcomes = {}

        def worker(rank):
            try:
                with waker:
                    waker.wait()         # no timeout, nobody notifies
                outcomes[rank] = "woke"
            except DeadlockError:
                outcomes[rank] = "deadlock"

        sched.launch(worker)
        assert outcomes == {0: "deadlock", 1: "deadlock"}
        assert sched.stall_recoveries == 1


# ------------------------------------------------------------- checkpoints
class TestPreemption:
    def test_fifo_never_preempts_at_checkpoints(self):
        rt = coop_runtime(schedule="fifo")

        def main(ctx):
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    ctx.comm_world.send(ctx.rank, peer)
            return sorted(
                ctx.comm_world.recv() for _ in range(ctx.size - 1)
            )

        rt.run(main)
        assert rt.metrics("sched").preemptions == 0

    def test_random_policy_preempts_at_sends(self):
        rt = coop_runtime(schedule="random:2")

        def main(ctx):
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    ctx.comm_world.send(ctx.rank, peer)
            got = sorted(
                ctx.comm_world.recv() for _ in range(ctx.size - 1)
            )
            assert got == sorted(set(range(ctx.size)) - {ctx.rank})

        rt.run(main)
        m = rt.metrics("sched")
        assert m.preemptions > 0
        # every preemption is a recorded decision point
        assert len(rt.schedule_trace()) == m.decisions


# ---------------------------------------------------------------- metrics
class TestSchedMetrics:
    def test_coop_counters_are_populated(self):
        rt = coop_runtime()

        def main(ctx):
            ctx.comm_world.barrier()
            return ctx.comm_world.allreduce(1)

        res = rt.run(main)
        assert res == [N_TASKS] * N_TASKS
        m = rt.metrics("sched")
        assert m.backend == "coop"
        assert m.n_tasks == N_TASKS
        assert m.context_switches > 0
        assert m.parks > 0
        assert m.notify_wakes + m.timer_wakes > 0
        assert m.max_runq_depth >= N_TASKS  # all start runnable
        assert m.decisions == len(rt.schedule_trace())
        snap = m.snapshot()
        assert snap["backend"] == "coop"
        assert "sched metrics" in m.render()

    def test_threads_snapshot_is_degenerate(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        m = rt.metrics("sched")
        assert m.backend == "threads"
        assert m.context_switches == 0 and m.decisions == 0

    def test_trace_records_run_shape(self):
        rt = coop_runtime(schedule="random:11")
        rt.run(lambda ctx: ctx.comm_world.barrier())
        t = rt.schedule_trace()
        assert t.policy == "random" and t.seed == 11
        assert t.preemptive and t.n_tasks == N_TASKS
        assert all(0 <= r < N_TASKS for r in t.events)


# ----------------------------------------------------------------- waker
class TestCoopWaker:
    def test_context_manager_protocol(self):
        sched = CoopScheduler(1, FifoPolicy())
        w = CoopWaker(sched)
        with w:
            pass                      # acquire/release must not wedge
        w.acquire()
        w.release()

    def test_notify_off_task_is_safe(self):
        """Abort broadcasts arrive from the scheduler thread (no current
        task); notifying an empty waker must be a no-op."""
        sched = CoopScheduler(1, FifoPolicy())
        w = CoopWaker(sched)
        with w:
            w.notify_all()

    def test_timed_wait_reports_timeout(self):
        sched = CoopScheduler(1, FifoPolicy())
        w = CoopWaker(sched)
        flags = {}

        def worker(rank):
            with w:
                flags["woke"] = w.wait(timeout=0.5)

        sched.launch(worker)
        assert flags["woke"] is False          # virtual-clock timeout
        assert sched.timer_wakes == 1
        assert sched.vtime >= 0.5


# ---------------------------------------------------------- token handoff
def _live_carriers():
    """Carriers still bound to a task: none may be once ``launch``
    returned (pooled carriers outlive the run, so their thread names
    say nothing)."""
    return CARRIER_POOL.bound()


class TestTokenHandoff:
    """The runner token passes carrier to carrier; the launcher only
    holds it when no task can run.  These pin the corners of that
    handoff: who wakes a fully parked job, who drains a failed one, and
    that a task picking itself never blocks."""

    def test_external_wake_resumes_a_fully_parked_job(self):
        """Every task parked, no timer: a notify from a thread outside
        the cooperative world must get the job going again, well inside
        the stall limit."""
        sched = CoopScheduler(2, FifoPolicy())
        waker = CoopWaker(sched)
        woke = {}

        def worker(rank):
            with waker:
                woke[rank] = waker.wait()        # no timeout

        def outsider():
            while sched.parks < 2:
                time.sleep(0.001)
            with waker:
                waker.notify_all()

        helper = threading.Thread(target=outsider)
        helper.start()
        sched.launch(worker)
        helper.join(timeout=5.0)
        assert not helper.is_alive()
        assert woke == {0: True, 1: True}
        assert sched.stall_recoveries == 0
        assert sched.notify_wakes == 2

    def test_one_runner_at_a_time_under_outside_notifies(self):
        """Stress: two outside threads hammer ``notify`` while 32 tasks
        park and resume under a preempt-happy interpreter.  However the
        wakes interleave with the carriers' own picks, no two tasks may
        ever be between resume and park at once."""
        sched = CoopScheduler(32, RandomPolicy(3))
        waker = CoopWaker(sched)
        running, worst = [0], [0]
        stop = threading.Event()

        def worker(rank):
            for _ in range(40):
                running[0] += 1
                worst[0] = max(worst[0], running[0])
                sum(range(64))           # room for a GIL switch
                running[0] -= 1
                with waker:
                    waker.wait(timeout=0.01)

        def outsider():
            while not stop.is_set():
                with waker:
                    waker.notify(1)
                time.sleep(0)

        helpers = [threading.Thread(target=outsider) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for h in helpers:
                h.start()
            sched.launch(worker)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for h in helpers:
                h.join(timeout=5.0)
        assert not any(h.is_alive() for h in helpers)
        assert worst[0] == 1 and running[0] == 0
        assert sched.parks == 32 * 40
        assert sched.notify_wakes + sched.timer_wakes == sched.parks
        assert sched.stall_recoveries == 0
        assert _live_carriers() == []

    def test_self_pick_keeps_running(self):
        """A lone task sleeping in a loop is its own successor every
        time: each sleep is still one decision and one counted switch,
        and the virtual clock advances by exactly the sleeps."""
        sched = CoopScheduler(1, FifoPolicy())

        def worker(rank):
            for _ in range(5):
                sched.sleep(0.25)

        sched.launch(worker)
        assert sched.context_switches == 6       # first dispatch + 5
        assert sched.decisions == 6 and sched.trace.events == [0] * 6
        assert sched.parks == 5 and sched.timer_wakes == 5
        assert sched.vtime == 1.25
        assert _live_carriers() == []

    def test_raising_task_leaves_no_carrier_behind(self):
        rt = coop_runtime()

        def main(ctx):
            ctx.comm_world.barrier()
            if ctx.rank == 2:
                raise ValueError("boom")
            return ctx.comm_world.allreduce(1)   # aborted under the rest

        with pytest.raises(ValueError, match="boom"):
            rt.run(main)
        assert _live_carriers() == []

    def test_back_to_back_runs_share_one_scheduler(self):
        rt = coop_runtime(schedule="random:4")

        def main(ctx):
            ctx.sleep(0.1 * ctx.rank)
            return ctx.comm_world.allreduce(ctx.rank)

        first = rt.run(main)
        trace = rt.schedule_trace().to_json()
        switches = rt.metrics("sched").context_switches
        assert rt.run(main) == first
        assert rt.schedule_trace().to_json() == trace
        assert rt.metrics("sched").context_switches == 2 * switches
        assert _live_carriers() == []

    def test_replay_divergence_in_a_carrier_drains_the_job(self):
        """A replay trace that runs dry mid-job fails inside whichever
        carrier holds the token: that carrier must fire ``on_drain``,
        and the rest must still be scheduled (fifo, unrecorded) until
        every task has terminated."""
        def main(ctx):
            for _ in range(3):
                ctx.comm_world.barrier()
            return ctx.rank

        rt1 = coop_runtime(schedule="random:3")
        rt1.run(main)
        full = rt1.schedule_trace()
        short = ScheduleTrace(
            policy=full.policy, seed=full.seed, preemptive=full.preemptive,
            n_tasks=full.n_tasks, events=full.events[: len(full) // 2],
        )
        rt2 = coop_runtime(schedule=short)
        sched = rt2._backend.sched
        drained_by = []

        def on_drain():
            drained_by.append(sched.current())
            rt2.signal_abort()

        sched.on_drain = on_drain
        with pytest.raises(ScheduleReplayError, match="exhausted"):
            rt2.run(main)
        assert len(drained_by) == 1 and drained_by[0] is not None
        assert rt2.schedule_trace().events == short.events
        assert rt2.abort_flag.is_set()
        assert _live_carriers() == []


# ------------------------------------------------------------ carrier pool
def _carrier_name():
    return threading.current_thread().name


class TestCarrierPool:
    """Carriers are pooled stacks: they outlive the runs they serve, so
    these pin what a parked carrier may (not) hold, who may share one,
    and that reuse changes no decision."""

    def test_finished_runtime_is_collectable(self):
        rt = coop_runtime()
        assert rt.run(lambda ctx: ctx.comm_world.allreduce(1)) == [4] * 4
        rt.finalize()
        ref = weakref.ref(rt)
        del rt
        gc.collect()
        assert ref() is None
        assert _live_carriers() == []

    def test_raising_task_leaves_its_carrier_reusable(self):
        rt = coop_runtime()
        first = {}

        def bad(ctx):
            first[ctx.rank] = _carrier_name()
            ctx.comm_world.barrier()
            if ctx.rank == 2:
                raise ValueError("boom")
            return ctx.comm_world.allreduce(1)

        with pytest.raises(ValueError, match="boom"):
            rt.run(bad)
        assert _live_carriers() == []
        again = {}

        def good(ctx):
            again[ctx.rank] = _carrier_name()
            return ctx.comm_world.allreduce(ctx.rank)

        # LIFO: the next launch of the same size takes the same carriers
        assert coop_runtime().run(good) == [6] * N_TASKS
        assert set(again.values()) == set(first.values())
        assert _live_carriers() == []

    def test_worker_exception_is_reported_and_the_carrier_lives_on(
            self, monkeypatch):
        """An exception escaping the raw worker (the runtime's own
        worker catches everything) goes to ``threading.excepthook`` like
        an uncaught thread exception, and the launch still completes."""
        seen = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: seen.append(args.exc_type))
        sched = CoopScheduler(2, FifoPolicy())
        ran = []

        def worker(rank):
            ran.append(rank)
            if rank == 0:
                raise KeyError("boom")

        sched.launch(worker)
        assert seen == [KeyError] and sorted(ran) == [0, 1]
        assert _live_carriers() == []
        ran.clear()
        sched.launch(ran.append)
        assert sorted(ran) == [0, 1]

    def test_launch_returns_after_its_carriers_are_back(self):
        """The last task's carrier still has bookkeeping to do after it
        hands the launcher the token; ``launch`` must wait for it."""
        sched = CoopScheduler(3, FifoPolicy())
        switch = sched._switch

        def slow_switch(me):
            switch(me)
            if me.state == DONE:        # the carrier's last switch
                time.sleep(0.05)

        sched._switch = slow_switch
        sched.launch(lambda rank: None)
        assert _live_carriers() == []

    def test_a_reused_carrier_is_no_task_of_its_previous_run(self):
        first = CoopScheduler(1, FifoPolicy())
        mine = []
        first.launch(lambda rank: mine.append(_carrier_name()))
        second = CoopScheduler(1, FifoPolicy())
        seen = []
        second.launch(lambda rank: seen.append(
            (_carrier_name(), first.current(), second.current().rank)))
        assert seen == [(mine[0], None, 0)]

    def test_concurrent_launches_get_disjoint_carriers(self):
        n = 6
        both = threading.Barrier(2, timeout=10.0)
        names = [set(), set()]
        met = []

        def launch(i):
            sched = CoopScheduler(n, FifoPolicy())

            def worker(rank):
                names[i].add(_carrier_name())
                sched.sleep(1.0)     # every task of this launch is bound
                if rank == 0:
                    both.wait()      # ... and so is every one of the other
                    met.append(i)

            sched.launch(worker)

        threads = [threading.Thread(target=launch, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads)
        assert sorted(met) == [0, 1]
        assert len(names[0]) == len(names[1]) == n
        assert not names[0] & names[1]
        assert _live_carriers() == []

    def test_golden_traces_hold_on_reused_carriers(self):
        """A larger earlier run leaves more (and differently ordered)
        carriers parked than a golden case needs: every decision must
        still be byte-identical."""
        from tests.test_sched_golden import (
            GOLDEN, SCHEDULES, WORKLOADS, _trace_path, run_case,
        )
        big = Runtime(core2_cluster(2), n_tasks=48, backend="coop",
                      schedule="random:3", timeout=10.0)
        big.run(lambda ctx: ctx.comm_world.allreduce(ctx.rank))
        want = json.loads((GOLDEN / "counters.json").read_text("utf-8"))
        for workload in sorted(WORKLOADS):
            for schedule in SCHEDULES:
                trace, counters = run_case(workload, schedule)
                golden = _trace_path(workload, schedule).read_text("utf-8")
                assert trace.to_json() + "\n" == golden
                assert counters == want[f"{workload}-{schedule}"]

    def test_concurrent_launches_keep_the_thread_stack_size(self):
        """Carriers get small stacks through the process-wide
        ``threading.stack_size``; threads launching at once (more than
        there are cores, under a preempt-happy interpreter) must each
        get every task run, and must leave the value every later thread
        is created with as they found it."""
        original = threading.stack_size()
        threading.stack_size(original)     # reading it resets it
        ran = [0] * 4

        def churn(i):
            sched = CoopScheduler(4, FifoPolicy())
            for _ in range(100):
                sched.launch(lambda rank: ran.__setitem__(i, ran[i] + 1))

        threads = [threading.Thread(target=churn, args=(i,))
                   for i in range(len(ran))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        after = threading.stack_size(original)
        assert not any(t.is_alive() for t in threads)
        assert ran == [400] * len(ran)
        assert after == original
        assert _live_carriers() == []
