"""Tests for the PR 2 point-to-point fast path: zero-copy shared
deliveries, ownership requests, event-driven receive timeouts, cheap
payload clones and the sharded stats counters."""

import time
from array import array

import numpy as np
import pytest

from repro.machine import core2_cluster, small_test_machine
from repro.runtime import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MPIError,
    ProcessRuntime,
    Runtime,
)
from repro.runtime.payload import clone, payload_nbytes


class TestZeroCopySharedDelivery:
    def test_shared_recv_hands_out_reference(self):
        """Under sharing="shared", an intra-node recv returns the very
        object the sender posted -- no clone, one elision counted."""
        rt = Runtime(small_test_machine(), n_tasks=2, timeout=5.0,
                     sharing="shared")

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                data = np.arange(8.0)
                c.send(data, dest=1)
                c.recv(source=1)   # ack: keep `data` alive until delivered
                return id(data)
            got = c.recv(source=0)
            c.send("ack", dest=0)
            return id(got), got.tolist()

        res = rt.run(main)
        got_id, got_vals = res[1]
        assert got_id == res[0]            # same object, by reference
        assert got_vals == list(range(8))
        stats = rt.stats
        assert stats.elided == 1
        assert stats.elided_bytes == 64
        assert stats.recv_copies == 1   # only the "ack" string's free clone

    def test_own_requests_private_copy(self):
        """recv(own=True) forces copy-on-receive even on the fast path."""
        rt = Runtime(small_test_machine(), n_tasks=2, timeout=5.0,
                     sharing="shared")

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                data = np.arange(4.0)
                c.send(data, dest=1)
                c.recv(source=1)        # wait until rank 1 owns its copy
                data[:] = -1.0          # must not affect rank 1
                c.send(0, dest=1)
                return None
            got = c.recv(source=0, own=True)
            c.send("ack", dest=0)
            c.recv(source=0)
            return got.tolist()

        res = rt.run(main)
        assert res[1] == [0.0, 1.0, 2.0, 3.0]
        stats = rt.stats
        assert stats.recv_copies == 3   # payload + the two ack scalars
        assert stats.elided == 0

    def test_private_mode_still_copies(self):
        """Default sharing="private": receiver gets a private clone."""
        rt = Runtime(small_test_machine(), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                data = np.arange(4.0)
                c.send(data, dest=1)
                return id(data)
            return id(c.recv(source=0))

        res = rt.run(main)
        assert res[0] != res[1]
        assert rt.stats.elided == 0
        assert rt.stats.recv_copies == 1

    def test_inter_node_never_shares(self):
        """The sharing policy only applies within an address space;
        cross-node messages are still copied at the sender."""
        rt = Runtime(core2_cluster(2), n_tasks=16, timeout=10.0,
                     sharing="shared")

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(np.ones(4), dest=8)   # node 0 -> node 1
            elif ctx.rank == 8:
                return c.recv(source=0).tolist()

        res = rt.run(main)
        assert res[8] == [1.0] * 4
        assert rt.stats.send_copies == 1
        assert rt.stats.elided == 0

    def test_irecv_supports_ownership(self):
        rt = Runtime(small_test_machine(), n_tasks=2, timeout=5.0,
                     sharing="shared")

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                data = bytearray(b"abcd")
                c.send(data, dest=1)
                c.recv(source=1)
                return id(data)
            got = c.irecv(source=0, own=True).wait()
            c.send("ack", dest=0)
            return id(got), bytes(got)

        res = rt.run(main)
        assert res[1][0] != res[0]          # ownership -> private copy
        assert res[1][1] == b"abcd"


class TestProcessBackendStaysCopying:
    def test_rejects_shared_policy(self):
        with pytest.raises(MPIError):
            ProcessRuntime(core2_cluster(1), n_tasks=2, sharing="shared")

    def test_every_message_copied_and_stats_consistent(self):
        """Process backend: sender-side copy for every message, zero
        elisions; counters stay coherent with the thread backend's."""
        def job(rt):
            def main(ctx):
                c = ctx.comm_world
                if ctx.rank == 0:
                    c.send(np.arange(6.0), dest=1)
                    return None
                return c.recv(source=0).sum()

            return rt.run(main)

        machine = core2_cluster(1)
        proc = ProcessRuntime(machine, n_tasks=2, timeout=5.0)
        thread = Runtime(machine, n_tasks=2, timeout=5.0)
        assert job(proc) == job(thread)

        for rt, send_copies, recv_copies in ((proc, 1, 0), (thread, 0, 1)):
            stats = rt.stats
            assert stats.messages == 1
            assert stats.bytes == 48
            assert stats.intra_node == 1 and stats.inter_node == 0
            assert stats.send_copies == send_copies
            assert stats.recv_copies == recv_copies
            assert stats.elided == 0


class TestReceiveTimeoutAccounting:
    def test_timeout_despite_unmatched_traffic(self):
        """Regression (PR 1 barrier bug class): a stream of wakeups for
        non-matching messages must not stall a receive past its
        configured timeout.  The seed implementation only shrank the
        deadline when wait() timed out, so steady traffic on another tag
        postponed the deadlock detection forever."""
        rt = Runtime(n_tasks=2, timeout=0.5)
        t0 = time.monotonic()

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                end = time.monotonic() + 2.5
                while time.monotonic() < end:
                    c.send(0, dest=1, tag=2)   # wrong tag: wakes, never matches
                    time.sleep(0.005)
                return None
            with pytest.raises(DeadlockError):
                c.recv(source=0, tag=1)
            return time.monotonic() - t0

        res = rt.run(main)
        assert res[1] < 2.0   # timed out on schedule, not at traffic end

    def test_plain_timeout_still_fires(self):
        rt = Runtime(n_tasks=2, timeout=0.3)

        def main(ctx):
            return ctx.comm_world.recv(source=0, tag=9)   # nobody sends

        with pytest.raises(DeadlockError):
            rt.run(main)

    def test_blocking_probe_times_out(self):
        rt = Runtime(n_tasks=2, timeout=0.3)

        def main(ctx):
            if ctx.rank == 1:
                ctx.comm_world.probe(source=0, tag=3)

        with pytest.raises(DeadlockError):
            rt.run(main)

    def test_blocking_probe_wakes_on_post(self):
        rt = Runtime(n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                time.sleep(0.05)
                c.send("m", dest=1, tag=4)
                return None
            st = c.probe(source=ANY_SOURCE, tag=ANY_TAG)
            return st.source, st.tag, c.recv(source=0, tag=4)

        res = rt.run(main)
        assert res[1] == (0, 4, "m")


class TestLinearMatcherBackend:
    def test_unknown_matcher_rejected(self):
        """Runtime mailboxes always use the indexed matcher: the
        ``matcher=`` keyword is gone, not silently ignored."""
        with pytest.raises(TypeError):
            Runtime(n_tasks=2, matcher="linear")
        assert Runtime(n_tasks=2).metrics("p2p").matcher == "indexed"


class TestCheapClones:
    def test_bytearray_clone_is_slice_copy(self):
        src = bytearray(b"hello")
        out = clone(src)
        assert out == src and out is not src
        out[0] = 0
        assert src == b"hello"

    def test_array_clone_is_slice_copy(self):
        src = array("d", [1.0, 2.0, 3.0])
        out = clone(src)
        assert out == src and out is not src and out.typecode == "d"
        out[0] = -1.0
        assert src[0] == 1.0

    def test_memoryview_clone_materialises_private_bytes(self):
        buf = bytearray(b"abcdef")
        out = clone(memoryview(buf))
        assert out == b"abcdef"
        buf[0] = 0
        assert out == b"abcdef"   # private copy, not a view

    def test_numpy_and_containers_unchanged(self):
        a = np.arange(3)
        out = clone(a)
        assert out is not a and out.tolist() == [0, 1, 2]
        nested = {"k": [1, 2, bytearray(b"x")]}
        out = clone(nested)
        assert out == nested and out is not nested
        assert out["k"][2] is not nested["k"][2]


class TestPayloadNbytes:
    def test_flat_buffer_sizes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(8)) == 8
        assert payload_nbytes(array("d", [0.0] * 4)) == 32
        assert payload_nbytes(memoryview(np.zeros(4))) == 32
        assert payload_nbytes(np.zeros((2, 2), dtype=np.float32)) == 16

    def test_containers_still_recurse(self):
        assert payload_nbytes([b"ab", b"cd"]) == 4
        assert payload_nbytes({"k": b"xyz"}) == payload_nbytes("k") + 3


class TestShardedStats:
    def test_stats_aggregate_over_many_senders(self):
        """Each rank's counters land in its own shard; the aggregate
        matches the traffic exactly (no lost updates without a lock)."""
        n = 8
        rt = Runtime(core2_cluster(1), n_tasks=n, timeout=10.0)
        rounds = 20

        def main(ctx):
            c = ctx.comm_world
            for r in range(rounds):
                for d in range(1, ctx.size):
                    dest = (ctx.rank + d) % ctx.size
                    c.send((ctx.rank, r), dest=dest, tag=d)
            for _ in range(rounds * (ctx.size - 1)):
                c.recv(source=ANY_SOURCE, tag=ANY_TAG)

        rt.run(main)
        stats = rt.stats
        assert stats.messages == n * (n - 1) * rounds
        assert stats.intra_node == stats.messages
        assert stats.recv_copies + stats.elided == stats.messages

    def test_stats_property_is_snapshot(self):
        rt = Runtime(n_tasks=2, timeout=5.0)
        before = rt.stats

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(1, dest=1)
            else:
                c.recv(source=0)

        rt.run(main)
        assert before.messages == 0        # old snapshot unchanged
        assert rt.stats.messages == 1

    def test_p2p_metrics_snapshot(self):
        rt = Runtime(n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world
            if ctx.rank == 0:
                c.send(np.ones(2), dest=1, tag=5)
            else:
                c.recv(source=0, tag=5)

        rt.run(main)
        snap = rt.metrics("p2p").snapshot()
        assert snap["matcher"] == "indexed"
        assert snap["posted"] == snap["delivered"] == snap["messages"] == 1
        assert snap["pending"] == 0
        assert snap["comparisons"] >= 1
        assert "p2p metrics" in rt.metrics("p2p").render()


class TestAbortWakesEventDrivenReceives:
    def test_signal_abort_wakes_parked_receiver_quickly(self):
        """Event-driven receives have no poll; signal_abort must wake
        them immediately (well under the ABORT_TICK safety cap)."""
        rt = Runtime(n_tasks=2, timeout=30.0)

        def main(ctx):
            if ctx.rank == 0:
                time.sleep(0.05)
                raise RuntimeError("die")
            ctx.comm_world.recv(source=0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            rt.run(main)
        assert time.monotonic() - t0 < 2.0
