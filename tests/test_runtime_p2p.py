"""Point-to-point communication tests for the thread-based runtime."""

import numpy as np
import pytest

from repro.machine import core2_cluster, small_test_machine
from repro.runtime import (
    ANY_SOURCE,
    ANY_TAG,
    AbortError,
    DeadlockError,
    Runtime,
    Status,
)


def run(n, main, machine=None, **kw):
    kw.setdefault("timeout", 5.0)
    rt = Runtime(machine, n_tasks=n, **kw) if machine else Runtime(n_tasks=n, **kw)
    return rt, rt.run(main)


class TestBlockingSendRecv:
    def test_ping(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send({"a": 7}, dest=1, tag=11)
                return None
            return c.recv(source=0, tag=11)

        _, res = run(2, main)
        assert res[1] == {"a": 7}

    def test_numpy_payload_is_copied(self):
        """MPI value semantics: receiver's array is private."""
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                data = np.arange(4)
                c.send(data, dest=1)
                ack = c.recv(source=1)   # wait until 1 has the copy
                data[:] = -1             # must not affect rank 1
                c.send(0, dest=1)
                return None
            got = c.recv(source=0)
            c.send("ack", dest=0)
            c.recv(source=0)
            return got.tolist()

        _, res = run(2, main)
        assert res[1] == [0, 1, 2, 3]

    def test_wildcard_source_and_status(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                st = Status()
                vals = [c.recv(source=ANY_SOURCE, tag=5, status=st) for _ in range(2)]
                return sorted(vals), st.tag
            c.send(ctx.rank * 10, dest=0, tag=5)
            return None

        _, res = run(3, main)
        vals, tag = res[0]
        assert vals == [10, 20]
        assert tag == 5

    def test_wildcard_tag(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send("x", dest=1, tag=42)
            else:
                st = Status()
                val = c.recv(source=0, tag=ANY_TAG, status=st)
                return val, st.tag, st.source
            return None

        _, res = run(2, main)
        assert res[1] == ("x", 42, 0)

    def test_tag_selectivity(self):
        """A recv on tag B must not consume an earlier message on tag A."""
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send("first", dest=1, tag=1)
                c.send("second", dest=1, tag=2)
                return None
            b = c.recv(source=0, tag=2)
            a = c.recv(source=0, tag=1)
            return a, b

        _, res = run(2, main)
        assert res[1] == ("first", "second")

    def test_fifo_per_source_and_tag(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                for i in range(20):
                    c.send(i, dest=1, tag=7)
                return None
            return [c.recv(source=0, tag=7) for _ in range(20)]

        _, res = run(2, main)
        assert res[1] == list(range(20))

    def test_sendrecv(self):
        def main(ctx):
            c = ctx.comm_world
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            return c.sendrecv(ctx.rank, dest=right, source=left)

        _, res = run(4, main)
        assert res == [3, 0, 1, 2]

    def test_recv_into_buffer(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(np.full(8, 3.0), dest=1)
                return None
            buf = np.zeros(8)
            out = c.recv(source=0, buf=buf)
            assert out is buf
            return buf.sum()

        _, res = run(2, main)
        assert res[1] == 24.0

    def test_deadlock_detection(self):
        def main(ctx):
            return ctx.comm_world.recv(source=0, tag=9)  # nobody sends

        with pytest.raises(DeadlockError):
            run(2, main, timeout=0.3)

    def test_send_to_unknown_rank(self):
        from repro.runtime import MPIError

        def main(ctx):
            ctx.comm_world.send(1, dest=99)

        with pytest.raises(MPIError):
            run(2, main)


class TestNonBlocking:
    def test_isend_irecv_wait(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                req = c.isend([1, 2, 3], dest=1, tag=3)
                req.wait()
                return None
            req = c.irecv(source=0, tag=3)
            return req.wait()

        _, res = run(2, main)
        assert res[1] == [1, 2, 3]

    def test_irecv_test_polls(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.recv(source=1)             # rendezvous first
                c.send("late", dest=1)
                return None
            req = c.irecv(source=0)
            assert not req.test()            # nothing sent yet
            c.send("go", dest=0)
            while not req.test():
                pass
            return req.wait()

        _, res = run(2, main)
        assert res[1] == "late"

    def test_waitall(self):
        from repro.runtime import Request

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                reqs = [c.irecv(source=s, tag=s) for s in range(1, 4)]
                return Request.waitall(reqs)
            c.send(ctx.rank ** 2, dest=0, tag=ctx.rank)
            return None

        _, res = run(4, main)
        assert res[0] == [1, 4, 9]

    def test_status_from_wait(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(b"abc", dest=1, tag=8)
                return None
            st = Status()
            req = c.irecv(source=ANY_SOURCE, tag=ANY_TAG)
            val = req.wait(status=st)
            return val, st.source, st.tag, st.nbytes

        _, res = run(2, main)
        assert res[1] == (b"abc", 0, 8, 3)

    def test_iprobe(self):
        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                assert c.iprobe() is None or True  # may race; just exercise
                c.send("m", dest=1, tag=4)
                return None
            while c.iprobe(source=0, tag=4) is None:
                pass
            st = c.iprobe(source=0, tag=4)
            val = c.recv(source=0, tag=4)
            return st.tag, val

        _, res = run(2, main)
        assert res[1] == (4, "m")


class TestCopyElision:
    def test_same_buffer_recv_elides_copy(self):
        """Tachyon's rank-0 optimisation: receiving into the very buffer
        that was sent performs no copy (section V-B3)."""
        machine = small_test_machine()  # 4 PUs, one node
        rt = Runtime(machine, n_tasks=2, timeout=5.0)
        shared = np.arange(16.0)  # stands in for the HLS-shared image

        def main(ctx):
            c = ctx.comm_world
            view = shared[4:8]
            if ctx.rank == 1:
                c.send(view, dest=0)
            else:
                c.recv(source=1, buf=view)

        rt.run(main)
        assert rt.stats.elided == 1
        assert rt.stats.elided_bytes == 32
        assert rt.stats.recv_copies == 0

    def test_distinct_buffer_still_copies(self):
        rt = Runtime(small_test_machine(), n_tasks=2, timeout=5.0)
        src = np.arange(4.0)
        dst = np.zeros(4)

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 1:
                c.send(src, dest=0)
            else:
                c.recv(source=1, buf=dst)

        rt.run(main)
        assert rt.stats.elided == 0
        assert rt.stats.recv_copies == 1
        assert dst.tolist() == [0, 1, 2, 3]

    def test_inter_node_message_copied_at_send(self):
        machine = core2_cluster(2)
        # tasks 0..7 on node 0, 8..15 on node 1
        rt = Runtime(machine, n_tasks=16, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(np.ones(4), dest=8)
            elif ctx.rank == 8:
                c.recv(source=0)

        rt.run(main)
        assert rt.stats.inter_node == 1
        assert rt.stats.send_copies == 1


class TestErrorPropagation:
    def test_user_exception_reraised_with_rank(self):
        def main(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            ctx.comm_world.barrier()

        with pytest.raises(ValueError, match=r"\[rank 2\] boom"):
            run(4, main, timeout=2.0)

    def test_abort_wakes_blocked_receivers(self):
        """A crash on one rank must not hang ranks blocked in recv."""
        import time

        def main(ctx):
            if ctx.rank == 0:
                time.sleep(0.05)
                raise RuntimeError("die")
            ctx.comm_world.recv(source=0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            run(2, main, timeout=30.0)
        assert time.monotonic() - t0 < 5.0

    def test_run_after_abort_names_the_earlier_run(self):
        """A runtime an earlier run aborted refuses the next run up
        front instead of failing its first blocking call."""
        def crash(ctx):
            if ctx.rank == 0:
                raise ValueError("boom")
            ctx.comm_world.barrier()

        def clean(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(1, dest=1)
                return None
            return c.recv(source=0)

        rt = Runtime(n_tasks=2, timeout=5.0)
        with pytest.raises(ValueError, match=r"\[rank 0\] boom"):
            rt.run(crash)
        with pytest.raises(AbortError, match="aborted by an earlier run"):
            rt.run(clean)
