"""Tests for the happens-before relation (paper section III-A)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import HappensBefore, Trace, TraceError


class TestPaperExample:
    """The exact example of section III-A:

        // rank 0            // rank 1
        a();                 b();
        MPI_Send(.., 1, ..); MPI_Recv(.., 0, ..);
        c();                 d();
    """

    @pytest.fixture(scope="class")
    def setup(self):
        tr = Trace(2)
        a = tr.read(0, "a", 0)        # stand-ins for the function calls
        s = tr.send(0, 1, tag=0, seq=0)
        c = tr.read(0, "c", 0)
        b = tr.read(1, "b", 0)
        r = tr.recv(1, 0, tag=0, seq=0)
        d = tr.read(1, "d", 0)
        return HappensBefore(tr), a, b, c, d

    def test_a_precedes_d(self, setup):
        hb, a, b, c, d = setup
        assert hb.precedes(a, d)

    def test_c_parallel_with_b_and_d(self, setup):
        hb, a, b, c, d = setup
        assert hb.parallel(c, b)
        assert hb.parallel(c, d)

    def test_program_order(self, setup):
        hb, a, b, c, d = setup
        assert hb.precedes(a, c)
        assert hb.precedes(b, d)

    def test_irreflexive(self, setup):
        hb, a, *_ = setup
        assert not hb.precedes(a, a)
        assert not hb.parallel(a, a)


class TestCollectives:
    def test_barrier_orders_across_tasks(self):
        tr = Trace(3)
        pre = [tr.write(t, f"x{t}", t) for t in range(3)]
        tr.barrier_all(epoch=1)
        post = [tr.read(t, f"y{t}", t) for t in range(3)]
        hb = HappensBefore(tr)
        for p in pre:
            for q in post:
                assert hb.precedes(p, q)

    def test_events_before_barrier_unordered(self):
        tr = Trace(2)
        w0 = tr.write(0, "x", 1)
        w1 = tr.write(1, "x", 2)
        tr.barrier_all(epoch=1)
        hb = HappensBefore(tr)
        assert hb.parallel(w0, w1)

    def test_two_barrier_phases(self):
        tr = Trace(2)
        a = tr.write(0, "x", 1)
        tr.barrier_all(epoch=1)
        b = tr.write(1, "x", 2)
        tr.barrier_all(epoch=2)
        c = tr.read(0, "x", 2)
        tr.collective(1, epoch=3, op="barrier")  # lone extra event on 1
        hb = HappensBefore(tr)
        assert hb.precedes(a, b)
        assert hb.precedes(b, c)
        assert hb.precedes(a, c)

    def test_subgroup_collective_does_not_order_outsiders(self):
        tr = Trace(3)
        w = tr.write(0, "x", 1)
        tr.collective(0, epoch=1, op="barrier", group=(0, 1))
        tr.collective(1, epoch=1, op="barrier", group=(0, 1))
        r2 = tr.read(2, "x", 0)
        hb = HappensBefore(tr)
        assert hb.parallel(w, r2)


class TestMessages:
    def test_transitive_through_chain(self):
        tr = Trace(3)
        a = tr.write(0, "x", 1)
        tr.send(0, 1, seq=0)
        tr.recv(1, 0, seq=0)
        tr.send(1, 2, seq=0)
        tr.recv(2, 1, seq=0)
        b = tr.read(2, "x", 1)
        hb = HappensBefore(tr)
        assert hb.precedes(a, b)

    def test_unmatched_recv_rejected(self):
        tr = Trace(2)
        tr.recv(1, 0, seq=0)
        with pytest.raises(TraceError):
            HappensBefore(tr)

    def test_unmatched_send_is_fine(self):
        """A send whose receive was not traced is legal (in-flight)."""
        tr = Trace(2)
        tr.send(0, 1, seq=0)
        HappensBefore(tr)

    def test_duplicate_send_key_rejected(self):
        tr = Trace(2)
        tr.send(0, 1, tag=0, seq=0)
        tr.send(0, 1, tag=0, seq=0)
        with pytest.raises(TraceError):
            HappensBefore(tr)


# --------------------------------------------------------------- property

@st.composite
def random_traces(draw):
    """Random traces of local ops, matched messages, and barriers."""
    n = draw(st.integers(2, 4))
    tr = Trace(n)
    epoch = 0
    msgs = []
    for _ in range(draw(st.integers(1, 15))):
        action = draw(st.sampled_from(["local", "send", "barrier"]))
        if action == "local":
            t = draw(st.integers(0, n - 1))
            tr.read(t, "v", 0)
        elif action == "send":
            src = draw(st.integers(0, n - 1))
            dst = draw(st.integers(0, n - 1).filter(lambda d: d != src))
            seq = len(msgs)
            tr.send(src, dst, seq=seq)
            tr.recv(dst, src, seq=seq)
            msgs.append((src, dst))
        else:
            epoch += 1
            tr.barrier_all(epoch=epoch)
    return tr


@settings(max_examples=40, deadline=None)
@given(random_traces())
def test_property_clocks_agree_with_reachability(tr):
    """Vector-clock precedence == graph reachability (ground truth)."""
    hb = HappensBefore(tr)
    events = tr.all_events()
    reach = dict(nx.all_pairs_shortest_path_length(hb.graph))
    for a in events:
        for b in events:
            if a.eid == b.eid:
                continue
            truth = b.eid in reach.get(a.eid, {})
            assert hb.precedes(a, b) == truth


@settings(max_examples=40, deadline=None)
@given(random_traces())
def test_property_strict_partial_order(tr):
    """≺ is irreflexive and antisymmetric; ∥ is symmetric."""
    hb = HappensBefore(tr)
    events = tr.all_events()
    for a in events:
        assert not hb.precedes(a, a)
        for b in events:
            if hb.precedes(a, b):
                assert not hb.precedes(b, a)
            assert hb.parallel(a, b) == hb.parallel(b, a)
