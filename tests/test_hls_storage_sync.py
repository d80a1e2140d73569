"""Integration tests: HLS storage sharing + synchronization directives
running on the thread-based runtime."""

import numpy as np
import pytest

from repro.hls import HLSDeclarationError, HLSProgram
from repro.machine import core2_cluster, nehalem_ex_node, small_test_machine
from repro.runtime import MigrationError, ProcessRuntime, Runtime


def make(machine=None, n=4, enabled=True, **kw):
    rt = Runtime(machine or small_test_machine(), n_tasks=n, timeout=5.0)
    return rt, HLSProgram(rt, enabled=enabled, **kw)


class TestSharing:
    def test_node_scope_shares_one_buffer(self):
        rt, prog = make()
        prog.declare("t", shape=(8,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            arr = h["t"]
            if ctx.rank == 0:
                arr[0] = 42.0
            ctx.comm_world.barrier()
            return arr[0]

        assert rt.run(main) == [42.0] * 4

    def test_numa_scope_one_copy_per_socket(self):
        rt, prog = make()   # 2 sockets x 2 cores
        prog.declare("t", shape=(4,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            arr = h["t"]
            if ctx.rank in (0, 2):     # one writer per socket
                arr[0] = float(ctx.numa + 1)
            ctx.comm_world.barrier()
            return arr[0]

        assert rt.run(main) == [1.0, 1.0, 2.0, 2.0]

    def test_core_scope_private_per_core(self):
        machine = small_test_machine(smt=2)   # 8 PUs, 4 cores
        rt = Runtime(machine, n_tasks=8, timeout=5.0)
        prog = HLSProgram(rt)
        prog.declare("c", shape=(1,), scope="core")

        def main(ctx):
            h = prog.attach(ctx)
            arr = h["c"]
            ctx.comm_world.barrier()
            arr[0] += 1.0          # both hyperthreads of a core add 1
            ctx.comm_world.barrier()
            return arr[0]

        res = rt.run(main)
        # SMT siblings share a copy: final value 2 on every core.
        assert all(v == 2.0 for v in res)

    def test_private_vars_are_per_task(self):
        rt, prog = make()
        prog.declare("p", shape=(1,))   # no scope -> private

        def main(ctx):
            h = prog.attach(ctx)
            h["p"][0] = ctx.rank
            ctx.comm_world.barrier()
            return h["p"][0]

        assert rt.run(main) == [0.0, 1.0, 2.0, 3.0]

    def test_disabled_program_privatizes_everything(self):
        rt, prog = make(enabled=False)
        prog.declare("t", shape=(1,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            h["t"][0] = ctx.rank
            ctx.comm_world.barrier()
            return h["t"][0]

        assert rt.run(main) == [0.0, 1.0, 2.0, 3.0]

    def test_initializer_runs_once_per_instance(self):
        rt, prog = make()
        calls = []
        prog.declare(
            "t", shape=(2,), scope="numa",
            initializer=lambda: (calls.append(1), np.array([5.0, 6.0]))[1],
        )

        def main(ctx):
            return prog.attach(ctx)["t"].sum()

        assert rt.run(main) == [11.0] * 4
        assert len(calls) == 2     # one per socket instance

    def test_addresses_equal_within_scope_distinct_across(self):
        rt, prog = make()
        prog.declare("t", shape=(4,), scope="numa")

        def main(ctx):
            return prog.attach(ctx).addr("t")

        addrs = rt.run(main)
        assert addrs[0] == addrs[1]
        assert addrs[2] == addrs[3]
        assert addrs[0] != addrs[2]

    def test_get_addr_abi(self):
        """The faithful hls_get_addr_<scope>(mod, off) entry points."""
        rt, prog = make()
        var = prog.declare("t", shape=(4,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            return h.hls_get_addr_node(var.module, var.offset)

        addrs = rt.run(main)
        assert len(set(addrs)) == 1

    def test_get_addr_wrong_scope_rejected(self):
        rt, prog = make()
        var = prog.declare("t", shape=(4,), scope="node")

        def main(ctx):
            return prog.attach(ctx).hls_get_addr_numa(var.module, var.offset)

        with pytest.raises(ValueError):
            rt.run(main)


class TestSingleAndBarrier:
    def test_single_executes_exactly_once_per_node(self):
        rt, prog = make(machine=core2_cluster(2), n=16)
        prog.declare("t", shape=(1,), scope="node")
        import threading
        executions = []
        lock = threading.Lock()

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("t"):
                with lock:
                    executions.append(ctx.node)
                h["t"][0] = 7.0
                h.single_done("t")
            return h["t"][0]

        res = rt.run(main)
        assert res == [7.0] * 16          # barrier semantics: all see it
        assert sorted(executions) == [0, 1]  # once per node

    def test_single_value_visible_after_block(self):
        rt, prog = make()
        prog.declare("t", shape=(1,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            h.single("t", lambda: h["t"].__setitem__(0, 3.14))
            return h["t"][0]

        assert rt.run(main) == [3.14] * 4

    def test_single_nowait_executes_once_no_barrier(self):
        rt, prog = make()
        prog.declare("t", shape=(1,), scope="node")
        import threading
        count = [0]
        lock = threading.Lock()

        def main(ctx):
            h = prog.attach(ctx)
            for _ in range(5):
                if h.single_enter("t", nowait=True):
                    with lock:
                        count[0] += 1

        rt.run(main)
        assert count[0] == 5      # one execution per dynamic single

    def test_barrier_uses_widest_scope(self):
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="numa")
        prog.declare("b", shape=(1,), scope="node")
        import threading
        gate = threading.Event()

        def main(ctx):
            h = prog.attach(ctx)
            if ctx.rank == 3:
                gate.set()
            h.barrier(("a", "b"))      # node-wide: all 4 tasks
            assert gate.is_set()

        rt.run(main)

    def test_single_mixed_scopes_rejected(self):
        """'these variables ... need to have the same HLS scope.
        Otherwise, the compiler will generate an error' (II-B2)."""
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")

        def main(ctx):
            prog.attach(ctx).single_enter(("a", "b"))

        with pytest.raises(HLSDeclarationError):
            rt.run(main)

    def test_single_on_non_hls_rejected(self):
        rt, prog = make()
        prog.declare("p", shape=(1,))

        def main(ctx):
            prog.attach(ctx).single_enter("p")

        with pytest.raises(HLSDeclarationError):
            rt.run(main)

    def test_listing2_pattern_barriers_and_nowait(self):
        """Listing 2: explicit barriers + single nowait halve the
        synchronisations while keeping values coherent."""
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            h.barrier(("a", "b"))
            if h.single_enter("a", nowait=True):
                h["a"][0] = 4.0
            if h.single_enter("b", nowait=True):
                h["b"][0] = 2.0
            h.barrier(("a", "b"))
            return h["a"][0] + h["b"][0]

        assert rt.run(main) == [6.0] * 4

    def test_disabled_single_runs_on_every_task(self):
        rt, prog = make(enabled=False)
        prog.declare("t", shape=(1,), scope="node")
        import threading
        count = [0]
        lock = threading.Lock()

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("t"):
                with lock:
                    count[0] += 1
                h["t"][0] = 1.0
                h.single_done("t")
            return h["t"][0]

        assert rt.run(main) == [1.0] * 4
        assert count[0] == 4


class TestMemoryAccounting:
    def test_node_saving_matches_formula(self):
        """HLS saving per node = (tasks/node - 1) x sizeof(vars)."""
        machine = core2_cluster(1)
        nbytes = 1000 * 8

        def app(prog):
            def main(ctx):
                prog.attach(ctx)["t"][0]
            return main

        rt_hls = Runtime(machine, n_tasks=8, timeout=5.0)
        p_hls = HLSProgram(rt_hls)
        p_hls.declare("t", shape=(1000,), scope="node")
        rt_hls.run(app(p_hls))

        rt_no = Runtime(machine, n_tasks=8, timeout=5.0)
        p_no = HLSProgram(rt_no, enabled=False)
        p_no.declare("t", shape=(1000,), scope="node")
        rt_no.run(app(p_no))

        saved = rt_no.node_live_bytes(0) - rt_hls.node_live_bytes(0)
        assert saved == p_hls.expected_node_saving(8) == 7 * nbytes

    def test_layout_report_mentions_instances(self):
        rt, prog = make()
        prog.declare("t", shape=(4,), scope="numa")
        rt.run(lambda ctx: prog.attach(ctx)["t"].sum())
        rep = prog.storage.layout_report()
        assert "numa#0" in rep and "numa#1" in rep


class TestProcessBackend:
    def test_hls_via_shared_segment(self):
        rt = ProcessRuntime(core2_cluster(1), n_tasks=8, timeout=5.0)
        prog = HLSProgram(rt)
        prog.declare("t", shape=(16,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("t"):
                h["t"][:] = 9.0
                h.single_done("t")
            return h["t"].sum()

        assert rt.run(main) == [144.0] * 8
        # the image lives once, in the node's shared segment
        assert rt.memory.segment_arena(0).live_bytes >= 16 * 8

    def test_images_in_segment_with_no_opt_in(self):
        """A process runtime puts every scope-shared image in its node's
        segment, which all its processes map -- never in a scope arena
        (level ``node`` or ``numa``), which none of them does."""
        rt = ProcessRuntime(core2_cluster(1), n_tasks=8, timeout=5.0)
        prog = HLSProgram(rt)
        prog.declare("t", shape=(16,), scope="node")
        prog.declare("u", shape=(4,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            return float(h["t"].sum() + h["u"].sum())

        assert rt.run(main) == [0.0] * 8
        levels = rt.memory.live_by_level(0)
        assert "node" not in levels and "numa" not in levels
        # one image of the (t, u) module per instance: the node and its
        # two numa domains
        assert levels["segment"] == 3 * (16 + 4) * 8

    def test_segment_base_identical_across_nodes(self):
        rt = ProcessRuntime(core2_cluster(2), n_tasks=16, timeout=5.0)
        assert rt.memory.segment_arena(0)._base == rt.memory.segment_arena(1)._base
        assert rt.memory.segment_arena(0).base == rt.memory.segment_arena(1).base

    def test_interposed_heap_routes_by_single_depth(self):
        from repro.hls import InterposedHeap

        rt = ProcessRuntime(core2_cluster(1), n_tasks=2, timeout=5.0)
        heap = InterposedHeap(rt)
        private = heap.malloc(0, 100)
        heap.enter_single(0)
        shared = heap.malloc(0, 200)
        heap.exit_single(0)
        assert rt.task_space(0).find(private.addr) is private
        assert rt.memory.segment_arena(0).find(shared.addr) is shared
        heap.free(0, shared)
        heap.free(0, private)
        assert rt.memory.segment_arena(0).live_bytes == 0

    def test_exit_without_enter_raises(self):
        from repro.hls import InterposedHeap

        rt = ProcessRuntime(core2_cluster(1), n_tasks=1, timeout=5.0)
        heap = InterposedHeap(rt)
        with pytest.raises(RuntimeError):
            heap.exit_single(0)


class TestMigration:
    def test_move_allowed_when_counters_match(self):
        rt, prog = make()
        prog.declare("t", shape=(1,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            h["t"]
            if ctx.rank == 0:
                ctx.move(1)    # same numa instance: always fine
            return ctx.pu

        res = rt.run(main)
        assert res[0] == 1

    def test_move_across_scopes_vetoed_on_mismatch(self):
        """Section IV-A: migration requires equal single/barrier counts."""
        rt, prog = make()
        prog.declare("t", shape=(1,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            if ctx.rank in (0, 1):
                h.barrier("t")     # only socket 0 tasks synchronise
            ctx.comm_world.barrier()
            if ctx.rank == 0:
                ctx.move(2)        # socket 1 has seen 0 directives
            return None

        with pytest.raises(MigrationError):
            rt.run(main)

    def test_single_nowait_stays_exactly_once_after_a_move(self):
        """A move must not zero a scope's nowait counters: tasks that
        reach nowait-single #2 after a peer's ``ctx.move`` still find it
        executed, and the gate still sees matching counts."""
        import threading

        rt = Runtime(core2_cluster(1), n_tasks=8, timeout=5.0)
        prog = HLSProgram(rt)
        prog.declare("v", shape=(1,), scope="node")
        ran, lock = [], threading.Lock()

        def main(ctx):
            h, c = prog.attach(ctx), ctx.comm_world

            def note(tag):
                with lock:
                    ran.append((tag, ctx.rank))

            h.single("v", lambda: note("s1"), nowait=True)
            c.barrier()
            if ctx.rank == 0:
                h.single("v", lambda: note("s2"), nowait=True)
            c.barrier()
            if ctx.rank == 7:
                ctx.move(ctx.pu)
            c.barrier()
            if ctx.rank != 0:
                h.single("v", lambda: note("s2"), nowait=True)
            c.barrier()
            if ctx.rank == 3:
                ctx.move(ctx.pu)   # counts compared against kept counters

        rt.run(main)
        assert sorted(tag for tag, _ in ran) == ["s1", "s2"]
        assert ("s2", 0) in ran

    def test_single_nowait_count_follows_a_task_across_instances(self):
        """A task that moves to another numa instance is level with the
        destination's nowait counter: it neither skips the next block
        there nor makes a resident run one twice."""
        import threading

        rt, prog = make()              # numa0 = ranks 0,1; numa1 = ranks 2,3
        prog.declare("t", shape=(1,), scope="numa")
        ran, lock = [], threading.Lock()

        def main(ctx):
            h, c = prog.attach(ctx), ctx.comm_world

            def nowait(tag):
                def note():
                    with lock:
                        ran.append((tag, h.scope_instance("t").index))
                h.single("t", note, nowait=True)

            nowait("s1")
            c.barrier()
            if ctx.rank == 0:
                ctx.move(2)            # gate: 1 directive == numa1's 1
                nowait("s2")
                nowait("s3")
            c.barrier()
            if ctx.rank != 0:
                nowait("s2")
                nowait("s3")

        rt.run(main)
        assert sorted(ran) == [(tag, numa) for tag in ("s1", "s2", "s3")
                               for numa in (0, 1)]

    def test_gate_reads_only_the_movers_counts(self):
        """check_migration iterates the migrating task's own counts, so
        peers executing their first directive on a scope cannot resize
        the dict under it."""
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")

        def main(ctx):
            h = prog.attach(ctx)
            h.barrier("a")
            if ctx.rank in (2, 3):
                h.barrier("b")
            return dict(prog.sync.directive_counts(ctx.rank))

        counts = rt.run(main)
        assert [len(c) for c in counts] == [1, 1, 2, 2]
        assert counts[0] is not counts[1]
