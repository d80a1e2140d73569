"""Abort propagation through collectives.

An ``abort()`` fired while peers are blocked inside a collective must
wake every one of them with :class:`AbortError`, whatever shape the
episode was going to take -- the straggler never arrives, so every
waiter is parked on an unplanned episode.  The flat reference gets the
same treatment (a hung oracle would hang the suites that use it).
"""

import threading
import time

import pytest

from repro.machine import core2_cluster, small_test_machine
from repro.runtime import AbortError, Runtime, SUM
from repro.runtime.payload import clone
from tests.oracle import CollectiveState, RefComm

ALGOS = ["flat", "hierarchical"]


def run_with_straggler(target, machine, size, body, park_s):
    """Run ``body(coll)`` on ranks ``0..size-2`` -- ``coll`` offering
    ``allreduce(obj, op)`` and ``barrier()`` -- while rank ``size-1``
    never shows up; after ``park_s`` the job is aborted.  ``target`` is
    ``"CollectiveState"`` (the flat reference on plain threads) or
    ``"IcollState"`` (the engine, through ``Comm``).  Returns once every
    rank has terminated."""
    if target == "IcollState":
        rt = Runtime(machine, n_tasks=size, timeout=30.0)

        def main(ctx):
            if ctx.rank == size - 1:
                time.sleep(park_s)
                rt.signal_abort()
            else:
                body(ctx.comm_world)

        rt.run(main)
        return
    abort_flag = threading.Event()
    state = CollectiveState(size, abort_flag, timeout=30.0, clone=clone)

    threads = [
        threading.Thread(target=body, args=(RefComm(state, r),))
        for r in range(size - 1)
    ]
    for t in threads:
        t.start()
    time.sleep(park_s)  # let everyone park
    abort_flag.set()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "abort failed to wake a task"


@pytest.mark.parametrize("target", ["CollectiveState", "IcollState"])
def test_abort_wakes_tasks_at_every_tree_level(target):
    """15 of 16 ranks enter an allreduce spanning two nodes and every
    cache level; the straggler never deposits.  Setting the abort flag
    must wake all 15."""
    size = 16
    outcomes = {}

    def body(coll):
        try:
            coll.allreduce(coll.rank, SUM)
            outcomes[coll.rank] = "returned"
        except AbortError:
            outcomes[coll.rank] = "aborted"
        except Exception as exc:  # pragma: no cover - failure path
            outcomes[coll.rank] = exc

    run_with_straggler(target, core2_cluster(2), size, body, 0.3)
    assert outcomes == {r: "aborted" for r in range(size - 1)}


@pytest.mark.parametrize("target", ["CollectiveState", "IcollState"])
def test_abort_wakes_barrier_waiters(target):
    size = 8
    hits = []

    def body(coll):
        with pytest.raises(AbortError):
            coll.barrier()
        hits.append(coll.rank)

    run_with_straggler(target, small_test_machine(n_nodes=2), size, body, 0.2)
    assert sorted(hits) == list(range(size - 1))


@pytest.mark.parametrize("algorithm", ALGOS)
def test_comm_abort_mid_collective(algorithm):
    """End-to-end through the Runtime: one task calls Comm.abort while
    all the others are inside an allreduce; every task terminates and
    the run reports the abort."""
    machine = core2_cluster(2)
    n = 16

    def main(ctx):
        if ctx.rank == 5:
            time.sleep(0.2)
            ctx.comm_world.abort("task 5 gave up")
        return ctx.comm_world.allreduce(1)

    rt = Runtime(machine, n_tasks=n, algorithm=algorithm, timeout=30.0)
    t0 = time.monotonic()
    with pytest.raises(AbortError):
        rt.run(main)
    # every worker actually woke (rt.run joins them); it must have been
    # the abort, not the 30s deadlock timeout, that ended the run
    assert time.monotonic() - t0 < 20.0


@pytest.mark.parametrize("algorithm", ALGOS)
def test_comm_abort_mid_subcomm_collective(algorithm):
    """Abort raised inside a split sub-communicator must still tear down
    tasks blocked on the *world* communicator."""
    machine = small_test_machine(n_nodes=2)
    n = 8

    def main(ctx):
        sub = ctx.comm_world.split(ctx.rank % 2, key=ctx.rank)
        if ctx.rank == 3:
            time.sleep(0.2)
            sub.abort("sub-communicator failure")
        if ctx.rank % 2 == 1:
            return sub.allreduce(ctx.rank)
        return ctx.comm_world.allreduce(ctx.rank)

    rt = Runtime(machine, n_tasks=n, algorithm=algorithm, timeout=30.0)
    t0 = time.monotonic()
    with pytest.raises(AbortError):
        rt.run(main)
    assert time.monotonic() - t0 < 20.0


def test_peer_failure_inside_tree_poisons_waiters():
    """If the fold blows up in the rank executing it, every waiting
    peer must get an AbortError rather than hang (the poison path)."""
    size = 8

    class Boom(RuntimeError):
        pass

    def bad_add(a, b):
        raise Boom("op failure")

    outcomes = {}

    def main(ctx):
        try:
            ctx.comm_world.allreduce(ctx.rank, bad_add)
            outcomes[ctx.rank] = "returned"
        except Boom:
            outcomes[ctx.rank] = "boom"
        except AbortError as exc:
            assert "aborted by peer failure" in str(exc)
            outcomes[ctx.rank] = "aborted"

    rt = Runtime(small_test_machine(n_nodes=2), n_tasks=size, timeout=10.0)
    rt.run(main)
    # exactly one task (the one that ran the fold) sees the original
    # exception; everyone else gets AbortError
    assert sorted(outcomes) == list(range(size))
    vals = list(outcomes.values())
    assert vals.count("boom") == 1
    assert vals.count("aborted") == size - 1
