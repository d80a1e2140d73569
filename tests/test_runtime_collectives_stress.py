"""Stress / interleaving tests for concurrent collectives.

These hammer the episode bookkeeping of the collective engine (and the
generation counter of the flat reference): several communicators derived
from the same world run simultaneous, back-to-back collectives from
overlapping rank sets.  A lost wakeup or an episode mix-up shows up as a
wrong value or a :class:`DeadlockError` within the runtime timeout.

Marked ``stress``: CI reruns this module several times to surface flaky
interleavings.  Set ``REPRO_SHARING=shared`` to run the whole battery
with the zero-copy fast path enabled (CI does both).
"""

import os

import pytest

from repro.machine import core2_cluster, small_test_machine
from repro.runtime import Runtime, SUM
from tests.oracle import run_reference

pytestmark = pytest.mark.stress

ALGOS = ["flat", "hierarchical"]
#: sharing policy for the whole battery (CI runs "private" and "shared")
SHARING = os.environ.get("REPRO_SHARING", "private")


@pytest.mark.parametrize("algorithm", ALGOS)
def test_split_with_concurrent_subcomm_allreduce(algorithm):
    """Two colour groups run different allreduce streams concurrently,
    periodically joining a world-wide collective."""
    machine = core2_cluster(2)
    n = 16
    reps = 12

    def main(ctx):
        w = ctx.comm_world
        color = ctx.rank % 2
        sub = w.split(color, key=ctx.rank)
        out = []
        for i in range(reps):
            # the two colour groups intentionally feed different values
            out.append(sub.allreduce((color + 1) * (i + 1)))
            if i % 3 == 0:
                out.append(w.allreduce(ctx.rank * i))
        return color, out

    for _ in range(3):
        rt = Runtime(machine, n_tasks=n, algorithm=algorithm, timeout=30.0,
                 sharing=SHARING)
        results = rt.run(main)
        world_sum_base = sum(range(n))
        for rank, (color, out) in enumerate(results):
            expect = []
            for i in range(reps):
                expect.append((color + 1) * (i + 1) * (n // 2))
                if i % 3 == 0:
                    expect.append(world_sum_base * i)
            assert out == expect, f"rank {rank} (color {color})"


@pytest.mark.parametrize("algorithm", ALGOS)
def test_nested_overlapping_communicators(algorithm):
    """world + dup + node-split + parity-split all active at once, with
    different collective streams interleaved on each."""
    machine = small_test_machine(n_nodes=2)  # 8 PUs
    n = 8

    def main(ctx):
        w = ctx.comm_world
        d = w.dup()
        node = w.split_by_node()
        parity = w.split(ctx.rank % 2, key=ctx.rank)
        out = []
        for i in range(10):
            out.append(node.allreduce(i + ctx.rank))
            out.append(parity.allgather(ctx.rank))
            out.append(d.allreduce(1))
            out.append(w.scan(1))
        return out

    rt = Runtime(machine, n_tasks=n, algorithm=algorithm, timeout=30.0,
                 sharing=SHARING)
    results = rt.run(main)
    evens = [r for r in range(n) if r % 2 == 0]
    odds = [r for r in range(n) if r % 2 == 1]
    for rank, out in enumerate(results):
        node_peers = [r for r in range(n) if r // 4 == rank // 4]
        expect = []
        for i in range(10):
            expect.append(sum(i + r for r in node_peers))
            expect.append(evens if rank % 2 == 0 else odds)
            expect.append(n)
            expect.append(rank + 1)
        assert out == expect, f"rank {rank}"


def storm(target, size, body):
    """Run ``body(comm)`` on ``size`` ranks with no delay between calls:
    ``target`` is ``"CollectiveState"`` (the flat reference on plain
    threads) or ``"IcollState"`` (the engine, through ``Comm``)."""
    if target == "IcollState":
        rt = Runtime(core2_cluster(2), n_tasks=size, timeout=30.0,
                     sharing=SHARING)
        rt.run(lambda ctx: body(ctx.comm_world))
    else:
        run_reference(size, lambda ctx: body(ctx.comm_world), timeout=30.0)


@pytest.mark.parametrize("target", ["CollectiveState", "IcollState"])
def test_back_to_back_barrier_storm(target):
    """Many ranks issue hundreds of back-to-back barriers with no delay,
    the classic trap for generation counters and episode ids."""

    def body(coll):
        for _ in range(200):
            coll.barrier()

    storm(target, 16, body)


@pytest.mark.parametrize("target", ["CollectiveState", "IcollState"])
def test_back_to_back_allreduce_storm(target):
    """Same, but with data flowing: the i-th allreduce result must never
    leak into the (i+1)-th even when fast ranks lap slow ones."""
    size = 16

    def body(coll):
        for i in range(100):
            got = coll.allreduce(coll.rank * (i + 1), SUM)
            want = (i + 1) * sum(range(size))
            assert got == want, f"iter {i}: {got} != {want}"

    storm(target, size, body)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_disjoint_subcomms_never_couple(algorithm):
    """Collectives on disjoint split halves must not synchronise with
    each other: one half runs 3x as many ops as the other and both
    finish within the timeout."""
    machine = core2_cluster(2)
    n = 16

    def main(ctx):
        half = ctx.comm_world.split(ctx.rank // (n // 2), key=ctx.rank)
        reps = 30 if ctx.rank < n // 2 else 10
        acc = 0
        for i in range(reps):
            acc += half.allreduce(i)
        return acc

    rt = Runtime(machine, n_tasks=n, algorithm=algorithm, timeout=30.0,
                 sharing=SHARING)
    results = rt.run(main)
    lo = sum(i * (n // 2) for i in range(30))
    hi = sum(i * (n // 2) for i in range(10))
    assert results == [lo] * (n // 2) + [hi] * (n // 2)
