"""Property-based equivalence for the collective engine.

Every ``Comm.i*`` collective must produce **bit-identical** results to
its blocking twin -- across execution backend (threads / coop /
process), sharing policy (private / shared), algorithm (flat /
hierarchical / pipelined, including chunk sizes small enough to force
multi-chunk pipelines), under injected delays at the ``coll.ichunk``
fault site, and under random cooperative schedules.  Blocking calls
run on the same engine, so the twin is computed by an oracle that is
not the engine: the flat reference of ``tests/oracle.py``.

Bit-identical matters doubly here: the pipelined reduction folds each
chunk independently, and only the per-element identity of chunked and
unchunked fold order keeps float results exact (see
repro.runtime.icoll).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.machine import core2_cluster
from repro.runtime import (
    MAX,
    MIN,
    MPIError,
    PROD,
    ProcessRuntime,
    Request,
    Runtime,
    SUM,
)
from tests.test_runtime_collectives_equivalence import (
    MACHINES,
    PAYLOAD_KINDS,
    REDUCIBLE_KINDS,
    SETTINGS,
    assert_bit_identical,
    make_payload,
)
from tests.oracle import run_reference

OPS = {"SUM": SUM, "PROD": PROD, "MAX": MAX, "MIN": MIN}

SCHED_SEED = int(os.environ.get("REPRO_ICOLL_SCHED_SEED", "11"))

#: every valid backend x sharing combination (the process baseline
#: rejects sharing="shared" by construction; asserted below), plus the
#: coop pair again with a link time (see _with_link_time)
CONFIGS = {
    "threads-private": lambda n: Runtime(
        core2_cluster(2), n_tasks=n, timeout=20.0, sharing="private"
    ),
    "threads-shared": lambda n: Runtime(
        core2_cluster(2), n_tasks=n, timeout=20.0, sharing="shared"
    ),
    "coop-private": lambda n: Runtime(
        core2_cluster(2), n_tasks=n, timeout=20.0, sharing="private",
        backend="coop", schedule=f"random:{SCHED_SEED}",
    ),
    "coop-shared": lambda n: Runtime(
        core2_cluster(2), n_tasks=n, timeout=20.0, sharing="shared",
        backend="coop", schedule=f"random:{SCHED_SEED + 1}",
    ),
    "process": lambda n: ProcessRuntime(
        core2_cluster(2), n_tasks=n, timeout=20.0
    ),
}


def _with_link_time(make):
    """The same runtime with a modeled link time: episodes that would
    be one cell are planned as flat / tree cell DAGs instead (virtual
    time under coop, so it costs nothing)."""
    def build(n):
        rt = make(n)
        rt.icoll_link_time_per_mib = 0.5
        return rt
    return build


for _name in ("coop-private", "coop-shared"):
    CONFIGS[_name + "-link"] = _with_link_time(CONFIGS[_name])

config_param = pytest.mark.parametrize("config", sorted(CONFIGS))

ALGORITHMS = ["flat", "hierarchical", "pipelined"]


def run_twins(config, n, main):
    """Run ``main(ctx, icoll=...)`` once blocking on the flat reference,
    once nonblocking on the configured runtime; returns both result
    lists."""
    return run_reference(n, main, False), CONFIGS[config](n).run(main, True)


# ----------------------------------------------------------- per-collective
@config_param
@given(
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
    algorithm=st.sampled_from(ALGORITHMS),
)
@settings(**SETTINGS)
def test_ibcast_equals_bcast(config, n, data, kind, seed, algorithm):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx, icoll):
        c = ctx.comm_world
        obj = make_payload(kind, seed, root) if ctx.rank == root else None
        if icoll:
            return c.ibcast(obj, root=root, algorithm=algorithm).wait()
        return c.bcast(obj, root=root)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"ibcast rank {r}")


@config_param
@given(
    n=st.integers(1, 8),
    data=st.data(),
    opname=st.sampled_from(sorted(OPS)),
    kind=st.sampled_from(REDUCIBLE_KINDS),
    seed=st.integers(0, 10_000),
    algorithm=st.sampled_from(ALGORITHMS),
)
@settings(**SETTINGS)
def test_ireduce_equals_reduce(config, n, data, opname, kind, seed, algorithm):
    root = data.draw(st.integers(0, n - 1))
    op = OPS[opname]

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            return c.ireduce(mine, op, root=root, algorithm=algorithm).wait()
        return c.reduce(mine, op, root=root)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"ireduce rank {r}")


@config_param
@given(
    n=st.integers(1, 8),
    opname=st.sampled_from(sorted(OPS)),
    kind=st.sampled_from(REDUCIBLE_KINDS),
    seed=st.integers(0, 10_000),
    algorithm=st.sampled_from(ALGORITHMS),
)
@settings(**SETTINGS)
def test_iallreduce_equals_allreduce(config, n, opname, kind, seed, algorithm):
    op = OPS[opname]

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            return c.iallreduce(mine, op, algorithm=algorithm).wait()
        return c.allreduce(mine, op)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(
            blocking[r], nonblocking[r], f"iallreduce rank {r}"
        )


@config_param
@given(
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_igather_equals_gather(config, n, data, kind, seed):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            return c.igather(mine, root=root).wait()
        return c.gather(mine, root=root)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"igather rank {r}")


@config_param
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_iallgather_equals_allgather(config, n, kind, seed):
    def main(ctx, icoll):
        c = ctx.comm_world
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            return c.iallgather(mine).wait()
        return c.allgather(mine)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(
            blocking[r], nonblocking[r], f"iallgather rank {r}"
        )


@config_param
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_ialltoall_equals_alltoall(config, n, kind, seed):
    def main(ctx, icoll):
        c = ctx.comm_world
        objs = [make_payload(kind, seed + d, ctx.rank) for d in range(n)]
        if icoll:
            return c.ialltoall(objs).wait()
        return c.alltoall(objs)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(
            blocking[r], nonblocking[r], f"ialltoall rank {r}"
        )


@config_param
@given(
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_iscatter_equals_scatter(config, n, data, kind, seed):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx, icoll):
        c = ctx.comm_world
        objs = None
        if ctx.rank == root:
            objs = [make_payload(kind, seed, r) for r in range(n)]
        if icoll:
            return c.iscatter(objs, root=root).wait()
        return c.scatter(objs, root=root)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"iscatter rank {r}")


@config_param
@given(
    n=st.integers(1, 8),
    opname=st.sampled_from(sorted(OPS)),
    kind=st.sampled_from(REDUCIBLE_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_iscan_equals_scan(config, n, opname, kind, seed):
    op = OPS[opname]

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            return c.iscan(mine, op).wait()
        return c.scan(mine, op)

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"iscan rank {r}")


@config_param
@given(
    n=st.integers(2, 8),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
    stride=st.integers(1, 3),
)
@settings(**SETTINGS)
def test_ineighbor_exchange_equals_sendrecv_ring(config, n, kind, seed, stride):
    """The neighborhood collective against the blocking reference it
    replaces in apps/eulermhd.py: a sendrecv ring at the same stride."""
    def main(ctx, icoll):
        c = ctx.comm_world
        right = (ctx.rank + stride) % n
        left = (ctx.rank - stride) % n
        mine = make_payload(kind, seed, ctx.rank)
        if icoll:
            got = c.ineighbor_exchange({right: mine}).wait()
            return got[left]
        return c.sendrecv(mine, dest=right, source=left, sendtag=7)

    # the twin is point-to-point, which shares nothing with the engine
    blocking = CONFIGS[config](n).run(main, False)
    nonblocking = CONFIGS[config](n).run(main, True)
    for r in range(n):
        assert_bit_identical(
            blocking[r], nonblocking[r], f"ineighbor rank {r}"
        )


def test_ibarrier_orders_before_after(subtests=None):
    """ibarrier completion implies every rank entered: a flag set
    before the barrier by each rank is visible to all after wait()."""
    flags = [False] * 8

    def main(ctx):
        flags[ctx.rank] = True
        ctx.comm_world.ibarrier().wait()
        return all(flags)

    assert all(Runtime(core2_cluster(1), n_tasks=8).run(main))


# --------------------------------------------------------- chunked pipelines
@config_param
@pytest.mark.parametrize("chunk_bytes", [128, 1 << 11])
def test_chunked_pipeline_bit_identical(config, chunk_bytes):
    """Tiny chunk sizes force deep multi-chunk pipelines; results must
    still match the blocking engines bit-for-bit (elementwise fold
    identity) for float and int payloads."""
    n = 8

    def main(ctx, icoll):
        c = ctx.comm_world
        rng = np.random.default_rng(41 + ctx.rank)
        f = rng.normal(size=1024)             # 8 KiB -> up to 64 chunks
        i = rng.integers(-9, 9, size=1024)
        if icoll:
            a = c.ibcast(
                f if ctx.rank == 0 else None, root=0,
                algorithm="pipelined", chunk_bytes=chunk_bytes,
            ).wait()
            b = c.iallreduce(
                f, SUM, algorithm="pipelined", chunk_bytes=chunk_bytes
            ).wait()
            d = c.ireduce(
                i, PROD, root=3, algorithm="pipelined",
                chunk_bytes=chunk_bytes,
            ).wait()
            return a, b, d
        return (
            c.bcast(f if ctx.rank == 0 else None, root=0),
            c.allreduce(f, SUM),
            c.reduce(i, PROD, root=3),
        )

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"chunked rank {r}")


def test_noncontiguous_and_custom_ops_fall_back():
    """Non-contiguous arrays and non-elementwise ops must take the
    generic (unchunked) path and still match the blocking twin."""
    n = 4

    def weird(a, b):
        # order-sensitive, non-elementwise: chunking this would be wrong
        return a * 0.5 + b

    def main(ctx, icoll):
        c = ctx.comm_world
        base = np.arange(64.0).reshape(8, 8)[::2, :]   # non-contiguous
        mine = base + ctx.rank
        if icoll:
            a = c.ibcast(
                mine if ctx.rank == 0 else None, root=0,
                algorithm="pipelined", chunk_bytes=64,
            ).wait()
            b = c.iallreduce(
                np.full(256, 1.0 + ctx.rank), weird,
                algorithm="pipelined", chunk_bytes=64,
            ).wait()
            return a, b
        return (
            c.bcast(mine if ctx.rank == 0 else None, root=0),
            c.allreduce(np.full(256, 1.0 + ctx.rank), weird),
        )

    blocking = run_reference(n, main, False)
    nonblocking = Runtime(core2_cluster(1), n_tasks=n).run(main, True)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"fallback rank {r}")


# -------------------------------------------------- overlap & multi-request
@config_param
def test_outstanding_collectives_complete_out_of_order(config):
    """Several collectives in flight at once, completed in reverse
    start order -- any wait must be able to progress any episode."""
    n = 8

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = np.full(64, float(ctx.rank))
        if icoll:
            r1 = c.ibcast(np.arange(64.0) if ctx.rank == 0 else None, root=0)
            r2 = c.iallreduce(mine, SUM)
            r3 = c.iallgather(ctx.rank * 3)
            # reverse completion order
            g = r3.wait()
            s = r2.wait()
            b = r1.wait()
            return b, s, g
        return (
            c.bcast(np.arange(64.0) if ctx.rank == 0 else None, root=0),
            c.allreduce(mine, SUM),
            c.allgather(ctx.rank * 3),
        )

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(
            blocking[r], nonblocking[r], f"out-of-order rank {r}"
        )


@config_param
def test_waitall_over_mixed_collectives(config):
    n = 8

    def main(ctx, icoll):
        c = ctx.comm_world
        if icoll:
            reqs = [
                c.ibarrier(),
                c.ibcast("tok" if ctx.rank == 2 else None, root=2),
                c.iallreduce(float(ctx.rank)),
                c.igather(ctx.rank, root=1),
            ]
            return Request.waitall(reqs)
        c.barrier()
        return [
            None,
            c.bcast("tok" if ctx.rank == 2 else None, root=2),
            c.allreduce(float(ctx.rank)),
            c.gather(ctx.rank, root=1),
        ]

    blocking, nonblocking = run_twins(config, n, main)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"waitall rank {r}")


def test_test_makes_progress_without_wait():
    """A compute/test loop alone must drive the collective to
    completion -- progress may not hide inside wait()."""
    n = 4

    def main(ctx):
        c = ctx.comm_world
        req = c.iallreduce(np.full(512, 1.0), SUM,
                           algorithm="pipelined", chunk_bytes=256)
        spins = 0
        while not req.test():
            spins += 1
            ctx.sleep(0.001)
            assert spins < 10_000
        return req.wait()[0]

    rt = Runtime(core2_cluster(1), n_tasks=n)
    assert rt.run(main) == [float(n)] * n


# ------------------------------------------------------------ fault plans
@pytest.mark.parametrize("backend", ["threads", "coop"])
@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_equivalence_under_ichunk_delays(backend, fault_seed):
    """Seeded delay plans at coll.ichunk perturb cell timing (and under
    coop, the schedule); results must not change."""
    n = 8
    plan = FaultPlan.random(
        seed=fault_seed, n_tasks=n, n_faults=6, sites=("coll.ichunk",),
        max_nth=4, max_delay=0.003, crash_rate=0.0,
    )

    def main(ctx, icoll):
        c = ctx.comm_world
        mine = np.linspace(ctx.rank, ctx.rank + 1, 256)
        if icoll:
            b = c.ibcast(mine if ctx.rank == 5 else None, root=5,
                         algorithm="pipelined", chunk_bytes=512).wait()
            s = c.iallreduce(mine, SUM, algorithm="pipelined",
                             chunk_bytes=512).wait()
            return b, s
        return (
            c.bcast(mine if ctx.rank == 5 else None, root=5),
            c.allreduce(mine, SUM),
        )

    def rt(faults):
        kw = dict(schedule=f"random:{SCHED_SEED}") if backend == "coop" else {}
        return Runtime(core2_cluster(2), n_tasks=n, timeout=20.0,
                       backend=backend, faults=faults, **kw)

    blocking = run_reference(n, main, False)
    nonblocking = rt(plan).run(main, True)
    for r in range(n):
        assert_bit_identical(blocking[r], nonblocking[r], f"fault rank {r}")


@pytest.mark.parametrize("seed", range(5))
def test_equivalence_across_random_coop_schedules(seed):
    """The same program under five random cooperative schedules: the
    interleaving may not change any collective's result."""
    n = 8

    def main(ctx):
        c = ctx.comm_world
        mine = np.linspace(ctx.rank, ctx.rank + 2, 128)
        reqs = [
            c.ibcast(mine if ctx.rank == 3 else None, root=3,
                     algorithm="pipelined", chunk_bytes=256),
            c.iallreduce(mine, SUM, algorithm="pipelined", chunk_bytes=256),
            c.ialltoall([float(ctx.rank * n + d) for d in range(n)]),
        ]
        return Request.waitall(reqs)

    reference = Runtime(core2_cluster(2), n_tasks=n).run(main)
    got = Runtime(
        core2_cluster(2), n_tasks=n, backend="coop",
        schedule=f"random:{seed}",
    ).run(main)
    for r in range(n):
        assert_bit_identical(reference[r], got[r], f"schedule {seed} rank {r}")


# ------------------------------------------------------------- error paths
def test_kind_mismatch_detected():
    """Ranks disagreeing on which collective comes next must raise
    MPIError (collective mismatch), not deadlock."""
    def main(ctx):
        c = ctx.comm_world
        if ctx.rank == 0:
            return c.ibcast("x", root=0).wait()
        return c.iallreduce(1.0).wait()

    with pytest.raises(MPIError, match="mismatch"):
        Runtime(core2_cluster(1), n_tasks=4, timeout=5.0).run(main)


def test_root_out_of_range():
    def main(ctx):
        return ctx.comm_world.ibcast("x", root=99).wait()

    with pytest.raises(MPIError, match="root"):
        Runtime(core2_cluster(1), n_tasks=4, timeout=5.0).run(main)


def test_process_runtime_rejects_shared_sharing():
    with pytest.raises(MPIError):
        ProcessRuntime(core2_cluster(1), n_tasks=4, sharing="shared")


def test_icoll_on_split_subcommunicator():
    """Collectives on a split comm use the sub-group's ranks and tree:
    each parity class sums its own members, blocking or not."""
    n = 8

    def main(ctx):
        sub = ctx.comm_world.split(color=ctx.rank % 2, key=ctx.rank)
        mine = np.full(32, float(ctx.rank))
        return sub.allreduce(mine, SUM), sub.iallreduce(mine, SUM).wait()

    got = Runtime(core2_cluster(2), n_tasks=n).run(main)
    for r in range(n):
        want = np.full(32, float(sum(range(r % 2, n, 2))))
        assert_bit_identical(want, got[r][0], f"split rank {r} blocking")
        assert_bit_identical(want, got[r][1], f"split rank {r} nonblocking")
