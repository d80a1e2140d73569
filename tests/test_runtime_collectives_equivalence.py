"""Property-based equivalence: the collective engine must produce
**bit-identical** results to the flat reference algorithm
(``tests/oracle.py``) for every op, payload type, root, communicator
size, machine shape and cell-shape default.

Bit-identical matters: floating-point folds are not associative, so the
engine must fold contributions in exactly the flat algorithm's rank
order no matter how its cells are laid out.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.machine import build_machine, core2_cluster, small_test_machine
from repro.runtime import LAND, LOR, MAX, MIN, PROD, SUM, Runtime
from tests.oracle import run_reference

OPS = {"SUM": SUM, "PROD": PROD, "MAX": MAX, "MIN": MIN,
       "LAND": LAND, "LOR": LOR}

MACHINES = {
    "flat-1node": build_machine(
        n_nodes=1, sockets_per_node=1, cores_per_socket=8, caches=(),
        name="flat-1node",
    ),
    "2node-2socket": small_test_machine(n_nodes=2),
    "core2-2node": core2_cluster(2),
}

SETTINGS = dict(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- values
def make_payload(kind: str, seed: int, rank: int):
    """Deterministic per-rank payload; ``kind`` selects the dtype/shape."""
    rng = np.random.default_rng(seed * 1009 + rank)
    if kind == "int":
        return int(rng.integers(-50, 50))
    if kind == "float":
        return float(rng.normal())
    if kind == "str":
        return f"s{seed}r{rank}"
    if kind == "list":
        return [int(x) for x in rng.integers(0, 9, size=3)]
    if kind == "dict":
        return {"r": rank, "v": float(rng.normal())}
    if kind == "f64":
        return rng.normal(size=5)
    if kind == "f32":
        return rng.normal(size=4).astype(np.float32)
    if kind == "i64":
        return rng.integers(-4, 5, size=6)
    raise AssertionError(kind)


PAYLOAD_KINDS = ["int", "float", "str", "list", "dict", "f64", "f32", "i64"]
#: kinds safe to feed every reduction op (bools/strings break PROD etc.)
REDUCIBLE_KINDS = ["int", "float", "f64", "f32", "i64"]


def assert_bit_identical(a, b, where=""):
    assert type(a) is type(b), f"{where}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{where}: dtype {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, f"{where}: shape {a.shape} != {b.shape}"
        assert a.tobytes() == b.tobytes(), f"{where}: array bits differ"
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), \
            f"{where}: float bits differ: {a!r} vs {b!r}"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), f"{where}: keys differ"
        for k in a:
            assert_bit_identical(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def run_both(machine, n, main, **kw):
    """The flat reference's results and the engine's -- the latter run
    under both ``algorithm=`` defaults, which must agree."""
    out = {}
    for algo in ("flat", "hierarchical"):
        rt = Runtime(machine, n_tasks=n, algorithm=algo, timeout=20.0, **kw)
        out[algo] = rt.run(main)
    for r in range(n):
        assert_bit_identical(
            out["flat"][r], out["hierarchical"][r], f"shapes differ, rank {r}"
        )
    return run_reference(n, main), out["hierarchical"]


# ------------------------------------------------------------------ per-op
@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_bcast_equivalent(machine, n, data, kind, seed):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx):
        obj = make_payload(kind, seed, root) if ctx.rank == root else None
        return ctx.comm_world.bcast(obj, root=root)

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"bcast rank {r}")


@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(1, 8),
    data=st.data(),
    opname=st.sampled_from(sorted(OPS)),
    kind=st.sampled_from(REDUCIBLE_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_reduce_equivalent(machine, n, data, opname, kind, seed):
    root = data.draw(st.integers(0, n - 1))
    op = OPS[opname]

    def main(ctx):
        return ctx.comm_world.reduce(
            make_payload(kind, seed, ctx.rank), op, root=root
        )

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"reduce rank {r}")


@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(1, 8),
    opname=st.sampled_from(sorted(OPS)),
    kind=st.sampled_from(REDUCIBLE_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_allreduce_equivalent(machine, n, opname, kind, seed):
    op = OPS[opname]

    def main(ctx):
        return ctx.comm_world.allreduce(make_payload(kind, seed, ctx.rank), op)

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"allreduce rank {r}")


@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_gather_equivalent(machine, n, data, kind, seed):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx):
        return ctx.comm_world.gather(
            make_payload(kind, seed, ctx.rank), root=root
        )

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"gather rank {r}")


@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(1, 8),
    data=st.data(),
    kind=st.sampled_from(PAYLOAD_KINDS),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_scatter_equivalent(machine, n, data, kind, seed):
    root = data.draw(st.integers(0, n - 1))

    def main(ctx):
        objs = None
        if ctx.rank == root:
            objs = [make_payload(kind, seed, r) for r in range(n)]
        return ctx.comm_world.scatter(objs, root=root)

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"scatter rank {r}")


# ---------------------------------------------------------- mixed programs
@given(
    machine=st.sampled_from(sorted(MACHINES)),
    n=st.integers(2, 8),
    program=st.lists(
        st.tuples(
            st.sampled_from(
                ["bcast", "reduce", "allreduce", "gather", "scatter",
                 "allgather", "alltoall", "scan", "barrier"]
            ),
            st.integers(0, 10_000),
        ),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
@settings(**SETTINGS)
def test_mixed_program_equivalent(machine, n, program, data):
    """Back-to-back mixed collectives reuse blackboard/engine state;
    reference and engine must agree on the whole transcript."""
    steps = [
        (opname, seed, data.draw(st.integers(0, n - 1), label=f"root{i}"))
        for i, (opname, seed) in enumerate(program)
    ]

    def main(ctx):
        c = ctx.comm_world
        out = []
        for opname, seed, root in steps:
            mine = make_payload("f64", seed, ctx.rank)
            if opname == "bcast":
                out.append(c.bcast(mine if ctx.rank == root else None, root=root))
            elif opname == "reduce":
                out.append(c.reduce(mine, SUM, root=root))
            elif opname == "allreduce":
                out.append(c.allreduce(mine, SUM))
            elif opname == "gather":
                out.append(c.gather(mine, root=root))
            elif opname == "scatter":
                objs = [make_payload("f64", seed, r) for r in range(n)]
                out.append(c.scatter(objs if ctx.rank == root else None, root=root))
            elif opname == "allgather":
                out.append(c.allgather(mine))
            elif opname == "alltoall":
                out.append(c.alltoall([mine + r for r in range(n)]))
            elif opname == "scan":
                out.append(c.scan(mine, SUM))
            elif opname == "barrier":
                c.barrier()
                out.append(None)
        return out

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"program rank {r}")


# -------------------------------------------------------------- zero-copy
@given(
    n=st.integers(2, 8),
    kind=st.sampled_from(["f64", "list", "dict"]),
    seed=st.integers(0, 10_000),
)
@settings(**SETTINGS)
def test_zero_copy_values_match_flat(n, kind, seed):
    """The zero-copy fast path may alias payloads but must deliver the
    same values as the fully-copying flat algorithm."""
    machine = MACHINES["2node-2socket"]

    def main(ctx):
        c = ctx.comm_world
        root = 0
        a = c.bcast(
            make_payload(kind, seed, root) if ctx.rank == root else None,
            root=root,
        )
        b = c.allgather(make_payload(kind, seed + 1, ctx.rank))
        return a, b

    rt_zc = Runtime(
        machine, n_tasks=n, algorithm="hierarchical", sharing="shared",
        timeout=20.0,
    )
    flat = run_reference(n, main)
    zc = rt_zc.run(main)
    for r in range(n):
        assert_bit_identical(flat[r], zc[r], f"zero-copy rank {r}")


# --------------------------------------------------------------- exhaustive
@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("opname", sorted(OPS))
def test_all_ops_all_machines_exact(machine, opname):
    """Non-randomized sweep: every op on every machine shape at a size
    that straddles scope boundaries."""
    n = 6
    op = OPS[opname]

    def main(ctx):
        c = ctx.comm_world
        mine = np.linspace(ctx.rank, ctx.rank + 1, 4)
        return (
            c.allreduce(mine, op),
            c.reduce(mine, op, root=n - 1),
            c.scan(mine, op),
        )

    flat, hier = run_both(MACHINES[machine], n, main)
    for r in range(n):
        assert_bit_identical(flat[r], hier[r], f"{opname} rank {r}")
