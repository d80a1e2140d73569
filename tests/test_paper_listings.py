"""The paper's code listings 1-4, reproduced verbatim in the pragma
dialect and verified for the semantics the paper ascribes to them."""

import threading

import numpy as np
import pytest

from repro.hls import HLSProgram, compile_module_source, hls_compile
from repro.machine import core2_cluster, small_test_machine
from repro.runtime import Runtime


def make(machine=None, n=4):
    rt = Runtime(machine or small_test_machine(), n_tasks=n, timeout=10.0)
    return rt, HLSProgram(rt)


class TestListing1:
    """Listing 1: modifying HLS variables with the pragma single.

    int a,b;
    #pragma hls node(a)
    #pragma hls numa(b)
    ... #pragma hls single(a) { a = 4; }
        #pragma hls single(b) { b = 2; }
    """

    def test_listing1(self):
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")

        @hls_compile(prog)
        def f(ctx):
            #pragma hls single(a)
            a[0] = 4  # noqa: F821
            # value of a usable here: the single's implicit barrier
            assert a[0] == 4  # noqa: F821
            #pragma hls single(b)
            b[0] = 2  # noqa: F821
            return float(a[0] + b[0])  # noqa: F821

        assert rt.run(f) == [6.0] * 4


class TestListing2:
    """Listing 2: same writes, synchronised by two explicit barriers
    around nowait singles; "the two versions are not equivalent" --
    inside the region the values may not be updated yet, but after the
    final barrier they are."""

    def test_listing2(self):
        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="numa")

        @hls_compile(prog)
        def f(ctx):
            #pragma hls barrier(a, b)
            if True:
                pass    # no access to a and b
            #pragma hls single(a) nowait
            a[0] = 4  # noqa: F821
            #pragma hls single(b) nowait
            b[0] = 2  # noqa: F821
            #pragma hls barrier(a, b)
            return float(a[0] + b[0])  # noqa: F821

        assert rt.run(f) == [6.0] * 4

    def test_listing2_halves_barrier_count(self):
        """2 barriers instead of 2 singles' worth per variable pair."""
        from repro.machine import ScopeSpec

        rt, prog = make()
        prog.declare("a", shape=(1,), scope="node")
        prog.declare("b", shape=(1,), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            h.barrier(("a", "b"))
            if h.single_enter("a", nowait=True):
                h["a"][0] = 4
            if h.single_enter("b", nowait=True):
                h["b"][0] = 2
            h.barrier(("a", "b"))

        rt.run(main)
        inst = rt.machine.scope_instance(0, ScopeSpec.parse("node"))
        assert prog.sync.state(inst).epoch == 2


class TestListing3:
    """Listing 3: mesh update with a common table, through the full
    module compiler -- global array, node pragma, single-protected
    load, T time steps of mesh updates."""

    SOURCE = '''
import numpy as np

RES = 64
table = np.zeros(RES)
#pragma hls node(table)

def main(ctx, X, T):
    rng = np.random.default_rng(ctx.rank)
    mesh = rng.random(X)
    #pragma hls single(table)
    table[:] = np.linspace(0.0, 1.0, RES)   # load table (once per node)
    for t in range(T):
        ctx.comm_world.barrier()
        idx = np.clip((mesh * (RES - 1)).astype(int), 0, RES - 1)
        mesh = 0.5 * (mesh + table[idx])     # compute_cell
    return float(mesh.sum())
'''

    def test_listing3_runs_and_shares(self):
        rt, prog = make(machine=core2_cluster(1), n=8)
        ns = compile_module_source(self.SOURCE, prog)
        res = rt.run(ns["main"], 100, 3)
        assert all(isinstance(v, float) for v in res)
        # exactly one table image for the node
        assert prog.storage.hls_images_bytes() == prog.registry.modules[0].accounting_bytes

    def test_listing3_matches_private_semantics(self):
        rt0, prog0 = make(machine=core2_cluster(1), n=8)
        ns0 = compile_module_source(self.SOURCE, prog0)
        base = rt0.run(ns0["main"], 100, 3)
        rt1 = Runtime(core2_cluster(1), n_tasks=8, timeout=10.0)
        prog1 = HLSProgram(rt1, enabled=False)
        ns1 = compile_module_source(self.SOURCE, prog1)
        assert rt1.run(ns1["main"], 100, 3) == base


class TestListing4:
    """Listing 4: matrix multiplications with a common matrix B; B's
    allocation/initialisation and free are single-protected; every task
    computes C <- A.B + C each step."""

    def test_listing4(self):
        rt, prog = make(machine=core2_cluster(1), n=8)
        N = K = M = 8
        prog.declare("B", shape=(K, M), scope="node")

        def main(ctx):
            h = prog.attach(ctx)
            rng = np.random.default_rng(100 + ctx.rank)
            A = rng.random((N, K))
            C = np.zeros((N, M))
            if h.single_enter("B"):       # init_matrix(&B) once per node
                h["B"][...] = np.eye(K, M)
                h.single_done("B")
            B = h["B"]
            for t in range(3):
                C = A @ B + C             # cblas_dgemm
                ctx.comm_world.barrier()  # MPI_Barrier(MPI_COMM_WORLD)
            return float(np.allclose(C, 3 * A))

        assert rt.run(main) == [1.0] * 8

    def test_listing4_free_protected(self):
        """The free(B) is also single-protected: once per node."""
        from repro.hls import InterposedHeap
        from repro.runtime import ProcessRuntime

        rt = ProcessRuntime(core2_cluster(1), n_tasks=4, timeout=10.0)
        heap = InterposedHeap(rt)
        prog = HLSProgram(rt)
        prog.declare("Bptr", shape=(1,), dtype=np.int64, scope="node")
        allocs = {}

        def main(ctx):
            h = prog.attach(ctx)
            if h.single_enter("Bptr"):
                heap.enter_single(ctx.rank)
                allocs["B"] = heap.malloc(ctx.rank, 4096, label="B")
                h["Bptr"][0] = allocs["B"].addr
                heap.exit_single(ctx.rank)
                h.single_done("Bptr")
            addr = int(h["Bptr"][0])
            assert rt.memory.segment_arena(0).find(addr) is not None
            ctx.comm_world.barrier()
            if h.single_enter("Bptr"):
                heap.free(ctx.rank, allocs["B"])
                h.single_done("Bptr")

        rt.run(main)
        assert rt.memory.segment_arena(0).find(allocs["B"].addr) is None
