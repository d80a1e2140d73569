"""Unit tests for the flat reference CollectiveState driven by raw
threads (below the Comm layer), including failure injection: the oracle
the property suites trust has to be right -- and must fail fast, not
hang -- on its own."""

import threading

import numpy as np
import pytest

from repro.runtime.errors import AbortError, DeadlockError
from repro.runtime.payload import clone
from tests.oracle import CollectiveState


def make_state(n, timeout=5.0, abort=None):
    return CollectiveState(
        n, abort or threading.Event(), timeout=timeout, clone=clone
    )


def run_threads(n, fn):
    errs = []

    def wrap(rank):
        try:
            fn(rank)
        except BaseException as e:  # noqa: BLE001
            errs.append(e)

    ts = [threading.Thread(target=wrap, args=(r,)) for r in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return errs


class TestConstruction:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            make_state(0)

    def test_size_one_trivial(self):
        st = make_state(1)
        st.barrier()
        assert st.bcast(0, "x", 0) == "x"
        assert st.allgather(0, 5) == [5]


class TestFailureInjection:
    def test_missing_participant_times_out(self):
        st = make_state(3, timeout=0.3)
        errs = run_threads(2, lambda r: st.barrier())
        assert errs and isinstance(errs[0], DeadlockError)

    def test_abort_releases_waiters(self):
        abort = threading.Event()
        st = make_state(2, timeout=30.0, abort=abort)

        def body(rank):
            if rank == 1:
                abort.set()
                return
            st.barrier()

        errs = run_threads(2, body)
        assert errs and isinstance(errs[0], AbortError)

    def test_reduce_with_raising_op_propagates(self):
        st = make_state(2, timeout=2.0)

        def bad_op(a, b):
            raise ZeroDivisionError("bad op")

        def body(rank):
            st.reduce(rank, rank, bad_op, 0)

        errs = run_threads(2, body)
        assert any(isinstance(e, ZeroDivisionError) for e in errs)


class TestValueSemantics:
    def test_scatter_root_keeps_reference_others_clone(self):
        st = make_state(2, timeout=5.0)
        payload = [np.zeros(2), np.zeros(2)]
        got = {}

        def body(rank):
            got[rank] = st.scatter(rank, payload if rank == 0 else None, 0)

        assert not run_threads(2, body)
        got[1][0] = 9.0
        assert payload[1][0] == 0.0      # rank 1 got a clone

    def test_exchange_shares_references(self):
        st = make_state(2, timeout=5.0)
        arr = np.zeros(2)
        out = {}

        def body(rank):
            out[rank] = st.exchange(rank, arr if rank == 0 else None)

        assert not run_threads(2, body)
        assert out[1][0] is arr          # exchange does NOT clone

    def test_allreduce_deterministic_rank_order(self):
        """Fold order is rank order: results identical across ranks even
        for non-commutative ops."""
        st = make_state(3, timeout=5.0)
        out = {}

        def concat(a, b):
            return f"{a},{b}"

        def body(rank):
            out[rank] = st.allreduce(rank, str(rank), concat)

        assert not run_threads(3, body)
        assert set(out.values()) == {"0,1,2"}


class TestBlackboardReuse:
    def test_many_back_to_back_collectives(self):
        st = make_state(4, timeout=5.0)
        results = {}

        def body(rank):
            acc = []
            for i in range(25):
                acc.append(st.allreduce(rank, i + rank, lambda a, b: a + b))
            results[rank] = acc

        assert not run_threads(4, body)
        expect = [4 * i + 6 for i in range(25)]
        for r in range(4):
            assert results[r] == expect


class TestTimeoutAccounting:
    """The barrier deadline is monotonic-clock based and extended on
    progress: a slow-but-progressing barrier must never spuriously raise
    DeadlockError; only a genuinely stalled one does."""

    def test_slow_but_progressing_barrier_does_not_timeout(self):
        import time

        # Total wall time (0.5s) exceeds the per-gap timeout (0.3s), but
        # each arrival lands within 0.3s of the previous one.
        st = make_state(3, timeout=0.3)

        def body(rank):
            time.sleep(0.22 * rank)
            st.barrier(rank)

        assert not run_threads(3, body)

    def test_slow_but_progressing_allreduce_does_not_timeout(self):
        import time

        st = make_state(4, timeout=0.3)
        out = {}

        def body(rank):
            time.sleep(0.2 * rank)
            out[rank] = st.allreduce(rank, rank, lambda a, b: a + b)

        assert not run_threads(4, body)
        assert set(out.values()) == {6}

    def test_stalled_barrier_still_times_out_quickly(self):
        import time

        st = make_state(3, timeout=0.3)
        t0 = time.monotonic()
        errs = run_threads(2, lambda r: st.barrier(r))
        assert errs and all(isinstance(e, DeadlockError) for e in errs)
        # the deadline must not grow without progress
        assert time.monotonic() - t0 < 5.0

    def test_hierarchical_progress_extends_deadline(self):
        """Any arrival resets the deadline of every rank parked in the
        engine's episode, whatever tree shape it will be planned with."""
        import time

        from repro.machine import small_test_machine
        from repro.runtime import Runtime

        size = 8
        rt = Runtime(small_test_machine(n_nodes=2), n_tasks=size,
                     algorithm="hierarchical", timeout=0.4)

        def main(ctx):
            # one straggler per arrival wave; every wave lands within
            # the timeout of the previous one but the total exceeds it
            time.sleep(0.15 * ctx.rank)
            return ctx.comm_world.allreduce(ctx.rank, lambda a, b: a + b)

        assert rt.run(main) == [sum(range(size))] * size
