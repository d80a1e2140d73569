"""Collective-operation tests (compared against reference results)."""

import numpy as np
import pytest

from repro.runtime import (
    MAX, MIN, PROD, SUM, CountMismatchError, DeadlockError, MPIError, Runtime,
)


def run(n, main, **kw):
    kw.setdefault("timeout", 5.0)
    rt = Runtime(n_tasks=n, **kw)
    return rt.run(main)


class TestBarrier:
    def test_barrier_orders_phases(self):
        import threading
        flag = threading.Event()

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                flag.set()
            c.barrier()
            assert flag.is_set()     # nobody passes before rank 0 arrived

        run(8, main)

    def test_repeated_barriers(self):
        def main(ctx):
            for _ in range(50):
                ctx.comm_world.barrier()

        run(4, main)


class TestBcast:
    def test_bcast_object(self):
        def main(ctx):
            data = {"k": [1, 2]} if ctx.rank == 0 else None
            return ctx.comm_world.bcast(data, root=0)

        res = run(4, main)
        assert all(r == {"k": [1, 2]} for r in res)

    def test_bcast_receivers_get_private_copies(self):
        def main(ctx):
            data = np.arange(3) if ctx.rank == 0 else None
            got = ctx.comm_world.bcast(data, root=0)
            got += ctx.rank * 100    # mutations must stay private
            ctx.comm_world.barrier()
            return got.tolist()

        res = run(3, main)
        assert res[0] == [0, 1, 2]
        assert res[1] == [100, 101, 102]
        assert res[2] == [200, 201, 202]

    def test_bcast_nonzero_root(self):
        def main(ctx):
            data = "from-2" if ctx.rank == 2 else None
            return ctx.comm_world.bcast(data, root=2)

        assert run(4, main) == ["from-2"] * 4

    def test_bad_root_raises(self):
        def main(ctx):
            ctx.comm_world.bcast(1, root=9)

        # the one validator: the same class ibcast raises
        with pytest.raises(MPIError, match="root 9 outside"):
            run(2, main)


class TestReduce:
    def test_reduce_sum(self):
        def main(ctx):
            return ctx.comm_world.reduce(ctx.rank + 1, SUM, root=0)

        res = run(5, main)
        assert res[0] == 15
        assert res[1:] == [None] * 4

    @pytest.mark.parametrize("op,expect", [(SUM, 10), (PROD, 24), (MAX, 4), (MIN, 1)])
    def test_allreduce_ops(self, op, expect):
        def main(ctx):
            return ctx.comm_world.allreduce(ctx.rank + 1, op)

        assert run(4, main) == [expect] * 4

    def test_allreduce_numpy(self):
        def main(ctx):
            return ctx.comm_world.allreduce(np.full(3, ctx.rank, dtype=float), SUM)

        res = run(4, main)
        assert all((r == 6.0).all() for r in res)

    def test_scan_inclusive_prefix(self):
        def main(ctx):
            return ctx.comm_world.scan(ctx.rank + 1, SUM)

        assert run(4, main) == [1, 3, 6, 10]


class TestGatherScatter:
    def test_gather(self):
        def main(ctx):
            return ctx.comm_world.gather((ctx.rank + 1) ** 2, root=0)

        res = run(4, main)
        assert res[0] == [1, 4, 9, 16]
        assert res[1] is None

    def test_allgather(self):
        def main(ctx):
            return ctx.comm_world.allgather(ctx.rank * 2)

        assert run(3, main) == [[0, 2, 4]] * 3

    def test_scatter(self):
        def main(ctx):
            objs = [i * 10 for i in range(4)] if ctx.rank == 0 else None
            return ctx.comm_world.scatter(objs, root=0)

        assert run(4, main) == [0, 10, 20, 30]

    def test_scatter_wrong_length(self):
        def main(ctx):
            objs = [1, 2] if ctx.rank == 0 else None
            return ctx.comm_world.scatter(objs, root=0)

        with pytest.raises(CountMismatchError):
            run(3, main)

    def test_alltoall(self):
        def main(ctx):
            return ctx.comm_world.alltoall(
                [ctx.rank * 10 + j for j in range(ctx.size)]
            )

        res = run(3, main)
        assert res[0] == [0, 10, 20]
        assert res[1] == [1, 11, 21]
        assert res[2] == [2, 12, 22]

    def test_alltoall_wrong_length(self):
        def main(ctx):
            ctx.comm_world.alltoall([0])

        with pytest.raises(CountMismatchError):
            run(2, main)

    def test_gather_numpy_private(self):
        def main(ctx):
            arr = np.array([ctx.rank])
            out = ctx.comm_world.gather(arr, root=0)
            arr[:] = -1
            ctx.comm_world.barrier()
            return None if out is None else [int(a[0]) for a in out]

        res = run(3, main)
        assert res[0] == [0, 1, 2]


class TestBackToBackCollectives:
    def test_mixed_sequence(self):
        """Blackboard reuse across many different collectives."""
        def main(ctx):
            c = ctx.comm_world
            a = c.allreduce(1, SUM)
            b = c.bcast(ctx.rank if ctx.rank == 1 else None, root=1)
            g = c.allgather(ctx.rank)
            s = c.scatter(list(range(c.size)) if ctx.rank == 0 else None)
            c.barrier()
            return a, b, g, s

        res = run(4, main)
        for rank, (a, b, g, s) in enumerate(res):
            assert a == 4
            assert b == 1
            assert g == [0, 1, 2, 3]
            assert s == rank

    def test_many_iterations(self):
        def main(ctx):
            total = 0
            for i in range(30):
                total += ctx.comm_world.allreduce(i)
            return total

        n = 4
        res = run(n, main)
        assert res == [sum(i * n for i in range(30))] * n


class TestMutatingOpDiscipline:
    """Regression: the flat board reduce/allreduce/scan folded peer
    contributions straight off the blackboard without cloning, so an op
    that mutates its arguments (or returns a view of one) corrupted
    other ranks' board entries mid-collective.  The fold boundary must
    clone, exactly like alltoall's delivery discipline."""

    @staticmethod
    def _mutating_sum(a, b):
        # pathological but legal: accumulates into its *right* argument
        # in place and returns it -- pre-fix that argument was the
        # board entry, i.e. the contributing rank's live buffer
        if isinstance(b, np.ndarray):
            b += a
            return b
        return a + b

    @pytest.mark.parametrize("algorithm", ["flat", "hierarchical"])
    def test_allreduce_mutating_op_board_not_corrupted(self, algorithm):
        n = 4

        def main(ctx):
            mine = np.full(8, float(ctx.rank + 1))
            out = ctx.comm_world.allreduce(mine, self._mutating_sum)
            # the caller's own buffer must also be intact: a fold that
            # aliased board entries would have accumulated into it
            return out, mine

        res = Runtime(n_tasks=n, algorithm=algorithm, timeout=5.0).run(main)
        expected = float(sum(range(1, n + 1)))
        for rank, (out, mine) in enumerate(res):
            assert np.array_equal(out, np.full(8, expected)), (rank, out)
            assert np.array_equal(mine, np.full(8, float(rank + 1))), (
                f"rank {rank}'s contribution was mutated: {mine}"
            )

    @pytest.mark.parametrize("algorithm", ["flat", "hierarchical"])
    def test_reduce_and_scan_mutating_op(self, algorithm):
        n = 4

        def main(ctx):
            mine = np.full(4, float(ctx.rank + 1))
            r = ctx.comm_world.reduce(mine, self._mutating_sum, root=2)
            s = ctx.comm_world.scan(mine, self._mutating_sum)
            return r, s, mine

        res = Runtime(n_tasks=n, algorithm=algorithm, timeout=5.0).run(main)
        for rank, (r, s, mine) in enumerate(res):
            if rank == 2:
                assert np.array_equal(r, np.full(4, 10.0))
            else:
                assert r is None
            assert np.array_equal(
                s, np.full(4, float(sum(range(1, rank + 2))))
            ), (rank, s)
            assert np.array_equal(mine, np.full(4, float(rank + 1)))

    def test_view_returning_op(self):
        """An op returning a view of its right argument must not leak
        board aliases into the result handed to callers."""
        n = 3

        def pick_right_view(a, b):
            return b[:] if isinstance(b, np.ndarray) else b

        def main(ctx):
            mine = np.full(4, float(ctx.rank))
            out = ctx.comm_world.allreduce(mine, pick_right_view)
            out += 100.0          # caller mutates its result...
            return ctx.comm_world.allgather(mine)

        res = Runtime(n_tasks=n, algorithm="flat", timeout=5.0).run(main)
        # ...which must not have been anyone's live contribution
        for rank, gathered in enumerate(res):
            assert gathered == [
                pytest.approx(np.full(4, float(r)).tolist())
                for r in range(n)
            ], (rank, gathered)
