"""The per-task resolution table of :class:`~repro.hls.program.HLSHandle`.

A handle resolves a name (or a directive's variable list) once per task
and keeps the answer under a ``(runtime.pin_version,
storage.generation)`` stamp.  These tests hold the table to the
uncached semantics: the two invalidation events (``ctx.move``,
``HLSStorage.release``) take effect on the next call, the get-address
invariant of DESIGN.md section 7 survives, the declaration rules still
bite, and the resolvers run O(1) times per (task, name), not per call.
"""

import weakref

import numpy as np
import pytest

from repro.hls import HLSDeclarationError, HLSProgram
from repro.hls.sync import HLSSync
from repro.machine import core2_cluster, small_test_machine
from repro.machine.topology import Machine
from repro.memory import MemoryManager
from repro.runtime import Runtime
from repro.scheduler import dynamic_for


def make(machine=None, n=4, **kw):
    rt = Runtime(machine or small_test_machine(), n_tasks=n, timeout=5.0)
    return rt, HLSProgram(rt, **kw)


class TestMoveInvalidates:
    def test_get_follows_the_task_to_its_destination_instance(self):
        rt, prog = make()            # 2 sockets x 2 cores, ranks 0,1 | 2,3
        prog.declare("u", shape=(4,), scope="numa")
        views = {}

        def main(ctx):
            h = prog.attach(ctx)
            views[ctx.rank, "before"] = h.get("u")
            ctx.comm_world.barrier()
            if ctx.rank == 0:
                ctx.move(2)          # socket 0 -> socket 1
            views[ctx.rank, "after"] = h.get("u")
            views[ctx.rank, "addr"] = h.addr("u")

        rt.run(main)
        moved, source = views[0, "after"], views[1, "after"]
        assert np.shares_memory(moved, views[2, "after"])
        assert np.shares_memory(moved, views[3, "after"])
        assert not np.shares_memory(moved, source)
        assert np.shares_memory(views[0, "before"], source)
        assert views[0, "addr"] == views[2, "addr"] != views[1, "addr"]
        # an unmoved task re-resolves too (one stamp per runtime) --
        # to the same memory
        assert np.shares_memory(views[2, "after"], views[2, "before"])

    def test_barrier_synchronises_with_the_destination_tasks(self):
        rt, prog = make()
        prog.declare("u", shape=(4,), scope="numa")
        seen = {}

        def main(ctx):
            h = prog.attach(ctx)
            h.barrier("u")           # both instances: epoch 1, sizes 2 | 2
            ctx.comm_world.barrier()
            if ctx.rank == 0:
                ctx.move(2)          # counts match (1 == 1): allowed
            ctx.comm_world.barrier()
            u = h.get("u")
            if ctx.rank == 0:
                ctx.sleep(0.05)      # the destination must wait for me
            u[ctx.rank] = 1.0
            h.barrier("u")
            seen[ctx.rank] = u.copy()
            return h.scope_instance("u")

        insts = rt.run(main)
        assert insts[0] == insts[2] == insts[3] != insts[1]
        for r in (0, 2, 3):
            assert seen[r].tolist() == [1.0, 0.0, 1.0, 1.0]
        assert seen[1].tolist() == [0.0, 1.0, 0.0, 0.0]
        dst, src = prog.sync.state(insts[2]), prog.sync.state(insts[1])
        assert (dst.participants, src.participants) == ((0, 2, 3), (1,))
        assert (dst.epoch, src.epoch) == (2, 2)     # counters carried over


class TestReleaseInvalidates:
    def test_close_then_reuse_rematerialises(self):
        rt, prog = make()
        prog.declare("t", shape=(4,), scope="node",
                     initializer=lambda: np.full(4, 7.0))
        old, new = {}, {}

        def main(ctx):
            h = prog.attach(ctx)
            old[ctx.rank] = h.get("t")
            old[ctx.rank][ctx.rank] = -1.0
            ctx.comm_world.barrier()
            if ctx.rank == 0:
                prog.close()
            ctx.comm_world.barrier()
            new[ctx.rank] = h.get("t")
            return new[ctx.rank].tolist()

        assert rt.run(main) == [[7.0] * 4] * 4
        for r in range(4):
            assert new[r] is not old[r]
            assert not np.shares_memory(new[r], old[r])
            assert np.shares_memory(new[r], new[0])
        prog.close()
        assert rt.finalize().by_kind().get("hls", 0) == 0

    def test_close_drops_the_cached_views(self):
        """The tables must not pin a released image: ``close()`` lets
        the buffers go by refcount, not whenever the cyclic GC gets to
        the runtime that still holds the task contexts."""
        rt, prog = make()
        prog.declare("t", shape=(1024,), scope="node")
        refs = {}

        def main(ctx):
            refs[ctx.rank] = weakref.ref(prog.attach(ctx).get("t"))

        rt.run(main)
        assert all(r() is not None for r in refs.values())
        prog.close()
        assert all(r() is None for r in refs.values())

    def test_program_reused_across_runs(self):
        rt, prog = make()
        prog.declare("t", shape=(1,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            h.single("t", lambda: h.get("t").__iadd__(1.0))
            h.barrier("t")
            return float(h.get("t")[0])

        assert rt.run(main) == [1.0] * 4
        assert rt.run(main) == [2.0] * 4     # same images, new handles
        prog.close()
        assert rt.run(main) == [1.0] * 4     # released: fresh zeros + 1


    def test_closed_programs_leave_the_runtime_hooks(self):
        """Every dynamic_for builds and closes an HLS program: after
        five loops the runtime's migration gates and move hooks are back
        to their counts before the run."""
        rt = Runtime(core2_cluster(2), n_tasks=16, timeout=10.0,
                     backend="coop")
        before = len(rt.migration_checks), len(rt.post_move_hooks)

        def main(ctx):
            for _ in range(5):
                dynamic_for(ctx, 64, lambda lo, hi: float(hi - lo))

        rt.run(main)
        assert (len(rt.migration_checks), len(rt.post_move_hooks)) == before

    def test_trace_ordinal_not_reused_after_close(self):
        rt, first = make()
        first.close()
        second = HLSProgram(rt)
        assert (first.sync._ordinal, second.sync._ordinal) == (0, 1)


    def test_attach_after_close_hooks_again(self):
        rt, prog = make()
        prog.close()
        prog.close()
        assert (rt.migration_checks, rt.post_move_hooks) == ([], [])
        rt.run(prog.attach)
        assert rt.migration_checks == [prog.sync.check_migration]
        assert rt.post_move_hooks == [prog.sync._on_move]


class TestSemanticsKept:
    def test_get_address_invariant(self):
        """Same instance -> same memory; different instance -> not."""
        rt, prog = make()
        prog.declare("u", shape=(4,), scope="numa")
        prog.declare("p", shape=(4,))                  # private
        views = {}

        def main(ctx):
            h = prog.attach(ctx)
            for _ in range(3):                         # miss, then hits
                views[ctx.rank] = (h.get("u"), h["p"], h.addr("u"))
            mod = prog.registry["u"].module
            off = prog.registry["u"].offset
            assert h.hls_get_addr_numa(mod, off) == h.addr("u")
            assert h.hls_get_addr_numa(mod, off) == h.addr("u")
            with pytest.raises(ValueError):
                h.hls_get_addr_node(mod, off)

        rt.run(main)
        assert np.shares_memory(views[0][0], views[1][0])
        assert np.shares_memory(views[2][0], views[3][0])
        assert not np.shares_memory(views[0][0], views[2][0])
        assert views[0][2] == views[1][2] != views[2][2]
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.shares_memory(views[a][1], views[b][1])

    def test_mark_hls_after_first_access_still_refused(self):
        rt, prog = make()
        prog.declare("g", shape=(2,))

        def main(ctx):
            h = prog.attach(ctx)
            h.get("g")
            h.get("g")

        rt.run(main)
        with pytest.raises(HLSDeclarationError, match="already accessed"):
            prog.mark_hls("g", "node")

    def test_disabled_program_gives_per_task_copies(self):
        rt, prog = make(enabled=False)
        prog.declare("t", shape=(2,), scope="node")
        views, ran = {}, []

        def main(ctx):
            h = prog.attach(ctx)
            h.single("t", lambda: ran.append(ctx.rank))
            h.barrier("t")
            views[ctx.rank] = h.get("t")
            assert h.get("t") is views[ctx.rank]

        rt.run(main)
        assert sorted(ran) == [0, 1, 2, 3]
        for a in range(4):
            for b in range(a + 1, 4):
                assert not np.shares_memory(views[a], views[b])

    def test_directive_errors_are_not_cached_away(self):
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")
        prog.declare("p", shape=(1,))

        def main(ctx):
            h = prog.attach(ctx)
            for _ in range(2):
                with pytest.raises(HLSDeclarationError, match="share one"):
                    h.single_enter(["a", "b"])
                with pytest.raises(HLSDeclarationError, match="not HLS"):
                    h.barrier("p")
                with pytest.raises(HLSDeclarationError, match="unknown"):
                    h.get("nope")
            h.barrier(["a", "b"])        # widest scope: node
            h.barrier(n for n in ("a", "b"))   # any iterable, one pass
            return prog.sync.directive_counts(ctx.rank)

        counts = rt.run(main)
        assert all(list(c.values()) == [2] for c in counts)


class TestResolversRunOncePerTask:
    CALLS = 1000

    def test_call_counts_do_not_grow_with_calls(self, monkeypatch):
        """1 000 get + barrier + single per task reach the resolvers a
        constant number of times per (task, name)."""
        counts = {"scope_instance": 0, "state": 0, "scope_arena": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def wrapper(self, *a, **kw):
                counts[name] += 1            # under the GIL; exact enough
                return real(self, *a, **kw)

            monkeypatch.setattr(cls, name, wrapper)

        counted(Machine, "scope_instance")
        counted(HLSSync, "state")
        counted(MemoryManager, "scope_arena")

        n = 8
        rt = Runtime(core2_cluster(1), n_tasks=n, timeout=10.0)
        prog = HLSProgram(rt)
        names = ("N", "U")
        prog.declare("N", shape=(4,), scope="node")
        prog.declare("U", shape=(4,), scope="numa")

        def loop(ctx, calls):
            h = prog.attach(ctx)
            for _ in range(calls):
                for name in names:
                    h.single(name, lambda: None)
                    h.get(name)
                    h.barrier(name)

        rt.run(lambda ctx: loop(ctx, 1))
        first = dict(counts)
        rt.run(lambda ctx: loop(ctx, self.CALLS))
        pairs = n * len(names)
        for name, total in counts.items():
            # a constant per (task, name) -- and the same constant for
            # 1 000 calls as for one
            assert total - first[name] <= first[name] <= 8 * pairs, (name, counts)
        prog.close()
