"""Tests for the mini OpenMP layer (teams, two-level TLS, hybrid)."""

import threading
import time

import numpy as np
import pytest

from repro.hls import HLSProgram
from repro.machine import nehalem_ex_node, small_test_machine
from repro.omp import (
    HybridLayout,
    Team,
    TLSLevel,
    TwoLevelTLS,
    hybrid_layouts,
    master_only_time,
    omp_parallel,
)
from repro.runtime import AbortError, DeadlockError, Runtime
from tests.test_runtime_one_engine import CountingCond


class TestTeamBasics:
    def test_all_threads_run(self):
        out = omp_parallel(4, lambda t: t.thread_num)
        assert out == [0, 1, 2, 3]

    def test_rejects_empty_team(self):
        with pytest.raises(ValueError):
            Team(0)

    def test_pinning_length_checked(self):
        with pytest.raises(ValueError):
            Team(2, pus=[0])

    def test_barrier_synchronises(self):
        flag = threading.Event()

        def body(t):
            if t.thread_num == 3:
                flag.set()
            t.barrier()
            assert flag.is_set()

        omp_parallel(4, body)

    def test_exception_propagates_and_releases(self):
        def body(t):
            if t.thread_num == 0:
                raise ValueError("thread boom")
            t.barrier()

        with pytest.raises(ValueError, match="thread boom"):
            omp_parallel(3, body)

    def test_barrier_timeout(self):
        def body(t):
            if t.thread_num == 0:
                return       # never reaches the barrier
            t.barrier()

        with pytest.raises(DeadlockError):
            omp_parallel(2, body, timeout=0.3)


class TestWorkshare:
    def test_single_executes_once_first_arriver(self):
        count = [0]
        lock = threading.Lock()

        def body(t):
            if t.single():
                with lock:
                    count[0] += 1
                t.single_done()

        omp_parallel(6, body)
        assert count[0] == 1

    def test_single_value_visible_after(self):
        box = {"v": 0}

        def body(t):
            if t.single():
                box["v"] = 7
                t.single_done()
            assert box["v"] == 7

        omp_parallel(4, body)

    def test_master_only_thread_zero(self):
        out = omp_parallel(4, lambda t: t.master())
        assert out == [True, False, False, False]

    def test_critical_mutual_exclusion(self):
        acc = []

        def body(t):
            for _ in range(50):
                with t.critical():
                    x = len(acc)
                    acc.append(x)

        omp_parallel(4, body)
        assert acc == list(range(200))

    def test_static_range_partitions(self):
        team = Team(3)
        chunks = [team.static_range(10, i) for i in range(3)]
        flat = [i for c in chunks for i in c]
        assert sorted(flat) == list(range(10))
        assert len(chunks[0]) == 4           # 10 = 4 + 3 + 3

    def test_reduce_deterministic(self):
        team = Team(4)
        out = team.run(lambda t: t.thread_num + 1)
        assert team.reduce(out, lambda a, b: a + b) == 10


class TimeoutCountingCond(CountingCond):
    """Also counts the waits that ended by timeout, not by a notify."""

    timeouts = 0

    def wait(self, timeout=None):
        woken = self._cond.wait(timeout)
        if not woken:
            self.timeouts += 1
        return woken


class TestTeamWaits:
    def test_singles_are_woken_not_polled(self):
        """The arrival that assembles the team wakes the executor parked
        in ``single_done``; nobody finds out by a timed-out wait."""
        team = Team(4)
        team._cond = TimeoutCountingCond(team._cond)

        def body(t):
            for _ in range(20):
                if t.single():
                    t.single_done()

        team.run(body)
        assert team.barriers == 20
        assert team._cond.timeouts == 0

    def test_failing_thread_aborts_parked_and_late_peers(self):
        team = Team(4, timeout=30.0)
        failing = threading.Event()
        seen = {}

        def body(t):
            if t.thread_num == 0:
                while team._count < 2:        # peers 1 and 2 are parked
                    time.sleep(0.001)
                failing.set()
                raise ValueError("thread boom")
            if t.thread_num == 3:             # arrives after the failure
                assert failing.wait(10.0)
                time.sleep(0.05)
            t0 = time.monotonic()
            try:
                t.barrier()
                seen[t.thread_num] = "passed the barrier"
            except AbortError:
                seen[t.thread_num] = time.monotonic() - t0
                raise

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="thread boom"):
            team.run(body)
        assert time.monotonic() - t0 < 5.0    # not the 30 s timeout
        assert sorted(seen) == [1, 2, 3]
        assert all(isinstance(v, float) for v in seen.values()), seen
        assert seen[3] < 0.5                  # a late arriver does not park


class TestTwoLevelTLS:
    def test_task_level_shared_by_threads(self):
        tls = TwoLevelTLS()
        tls.declare("g", TLSLevel.TASK, initializer=lambda: np.zeros(2))
        a = tls.get("g", task=0, thread=0)
        b = tls.get("g", task=0, thread=1)
        assert a is b
        assert tls.get("g", task=1) is not a

    def test_thread_level_private_per_thread(self):
        tls = TwoLevelTLS()
        tls.declare("p", TLSLevel.THREAD, initializer=lambda: [0])
        a = tls.get("p", task=0, thread=0)
        b = tls.get("p", task=0, thread=1)
        assert a is not b

    def test_thread_level_requires_thread_id(self):
        tls = TwoLevelTLS()
        tls.declare("p", TLSLevel.THREAD)
        with pytest.raises(ValueError):
            tls.get("p", task=0)

    def test_duplicate_declaration(self):
        tls = TwoLevelTLS()
        tls.declare("x", TLSLevel.TASK)
        with pytest.raises(KeyError):
            tls.declare("x", TLSLevel.THREAD)

    def test_copies_counts_materialised(self):
        tls = TwoLevelTLS()
        tls.declare("t", TLSLevel.THREAD)
        for th in range(4):
            tls.get("t", task=0, thread=th)
        assert tls.copies("t") == 4

    def test_set_and_get(self):
        tls = TwoLevelTLS()
        tls.declare("s", TLSLevel.TASK)
        tls.set("s", 42, task=3)
        assert tls.get("s", task=3) == 42

    def test_disambiguation_the_paper_describes(self):
        """The [22] collision: same name semantics differ by level --
        a per-task global shared by threads vs a threadprivate one."""
        tls = TwoLevelTLS()
        tls.declare("shared_in_task", TLSLevel.TASK, initializer=lambda: [0])
        tls.declare("per_thread", TLSLevel.THREAD, initializer=lambda: [0])
        tls.get("shared_in_task", task=0, thread=0)[0] = 5
        tls.get("per_thread", task=0, thread=0)[0] = 9
        assert tls.get("shared_in_task", task=0, thread=1)[0] == 5
        assert tls.get("per_thread", task=0, thread=1)[0] == 0


class TestHybridLayouts:
    def test_enumerates_power_of_two_splits(self):
        layouts = hybrid_layouts(8)
        assert [(l.tasks_per_node, l.threads_per_task) for l in layouts] == [
            (1, 8), (2, 4), (4, 2), (8, 1)
        ]

    def test_memory_decreases_with_fewer_tasks(self):
        layouts = hybrid_layouts(8)
        mems = [l.memory_per_node(100) for l in layouts]
        assert mems == sorted(mems)
        assert mems[0] == 100 and mems[-1] == 800

    def test_master_only_comm_grows_with_threads(self):
        pure = HybridLayout(8, 1)
        hybrid = HybridLayout(1, 8)
        t_pure = master_only_time(pure, compute_per_core=10, comm_per_task_stream=1)
        t_hyb = master_only_time(hybrid, compute_per_core=10, comm_per_task_stream=1)
        assert t_hyb > t_pure

    def test_pinning_blocks(self):
        m = nehalem_ex_node()
        layout = HybridLayout(4, 8)
        assert layout.pinning(m) == [0, 8, 16, 24]

    def test_pinning_overflow(self):
        m = small_test_machine()      # 4 PUs/node
        with pytest.raises(ValueError):
            HybridLayout(4, 2).pinning(m)


class TestHybridWithHLS:
    def test_threads_of_one_task_share_hls_variable(self):
        """Hybrid MPI+OpenMP on HLS: one MPI task per socket, 2 OpenMP
        threads each; an HLS node-scope variable is shared by ALL
        threads of ALL tasks on the node."""
        machine = small_test_machine()            # 2 sockets x 2 cores
        layout = HybridLayout(tasks_per_node=2, threads_per_task=2)
        rt = Runtime(machine, n_tasks=2, pinning=layout.pinning(machine),
                     timeout=10.0)
        prog = HLSProgram(rt)
        prog.declare("g", shape=(4,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("g"):
                h["g"][:] = 1.0
                h.single_done("g")
            view = h["g"]

            def thread_body(t):
                with t.critical():
                    view[ctx.rank * 2 + t.thread_num] += 1.0
                return float(view.sum())

            omp_parallel(layout.threads_per_task, thread_body)
            ctx.comm_world.barrier()
            return float(view.sum())

        res = rt.run(main)
        # 4 initial + 4 increments, seen identically by both tasks
        assert res == [8.0, 8.0]

    def test_hls_memory_equals_best_hybrid(self):
        """The intro's punchline: pure MPI + HLS reaches the 1-task-
        per-node hybrid's footprint for the shared variable."""
        shared = 64 << 20
        hybrid_best = HybridLayout(1, 8).memory_per_node(shared)
        hybrid_worst = HybridLayout(8, 1).memory_per_node(shared)
        assert hybrid_best == shared
        assert hybrid_worst == 8 * shared
        # HLS: one copy per node regardless of 8 tasks -> equals best
        from repro.machine import core2_cluster

        rt = Runtime(core2_cluster(1), n_tasks=8, timeout=10.0)
        prog = HLSProgram(rt)
        prog.declare("big", shape=(8,), scope="node", virtual_bytes=shared)
        rt.run(lambda ctx: prog.attach(ctx)["big"].sum())
        hls_bytes = prog.storage.hls_images_bytes()
        assert hls_bytes == pytest.approx(shared, rel=0.01)
