"""Property-based RMA checks: fence-synchronised put/get round-trips
bit-for-bit for arbitrary payloads and displacements, accumulate
matches a sequential numpy fold regardless of origin interleaving, and
the sharing policies are observationally equivalent."""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine import core2_cluster
from repro.runtime import MAX, MIN, PROD, Runtime, SUM, Win

N = 4
OPS = {"sum": SUM, "max": MAX, "min": MIN, "prod": PROD}
#: default sharing policy (stress/chaos-suite convention: the CI rma
#: job runs the whole file under both settings)
SHARING = os.environ.get("REPRO_SHARING", "private")


def make_rt(sharing=None):
    return Runtime(core2_cluster(1), n_tasks=N, timeout=10.0,
                   sharing=sharing or SHARING)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    win_count=st.integers(min_value=1, max_value=16),
    sharing=st.sampled_from(["private", "shared"]),
)
def test_put_fence_get_roundtrip_bit_for_bit(seed, win_count, sharing):
    """Each rank puts a random payload at a random in-range displacement
    of its neighbour's segment; after the fence, get returns exactly the
    bytes that were put."""
    def payload(rank):
        rng = np.random.default_rng((seed, rank))
        count = int(rng.integers(1, win_count + 1))
        disp = int(rng.integers(0, win_count - count + 1))
        data = rng.standard_normal(count)
        return disp, data

    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, win_count)
        win.fence()
        disp, data = payload(ctx.rank)
        win.put(data, (ctx.rank + 1) % ctx.size, target_disp=disp)
        win.fence()
        mine = win.get(ctx.rank)
        win.fence_end()
        win.free()
        return mine

    res = make_rt(sharing).run(main)
    for rank, got in enumerate(res):
        origin = (rank - 1) % N
        disp, data = payload(origin)
        expected = np.zeros(win_count)
        expected[disp:disp + data.size] = data
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    op_name=st.sampled_from(sorted(OPS)),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_accumulate_matches_sequential_fold(seed, op_name, rounds):
    """Concurrent accumulates from every origin equal the sequential
    numpy fold of the same contributions (small integer-valued floats,
    so the result is exact in any order)."""
    op = OPS[op_name]

    def contribs(rank):
        rng = np.random.default_rng((seed, rank))
        return [rng.integers(1, 4, size=2).astype(float)
                for _ in range(rounds)]

    def main(ctx):
        c = ctx.comm_world
        win = Win.allocate(c, 2)
        if ctx.rank == 0:
            win.local()[:] = 1.0            # op-neutral-ish known start
        win.fence()
        for contrib in contribs(ctx.rank):
            win.accumulate(contrib, 0, op=op)
        win.fence()
        out = win.get(0)
        win.fence_end()
        return out

    res = make_rt().run(main)
    expected = np.ones(2)
    for rank in range(N):
        for contrib in contribs(rank):
            expected = np.asarray(op(expected, contrib), dtype=float)
    for got in res:
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sharing_policies_observationally_equivalent(seed):
    """The zero-copy fast path is an optimisation, not a semantic: the
    same program returns identical results under sharing="shared" and
    sharing="private" (only the copy metrics differ)."""
    def main(ctx):
        c = ctx.comm_world
        rng = np.random.default_rng((seed, ctx.rank))
        win = Win.allocate(c, 4)
        win.fence()
        # integer-valued payloads throughout: FP addition of integers is
        # exact, so the accumulate fold is order-independent and both
        # runs are comparable bit-for-bit
        win.put(rng.integers(0, 1000, size=4).astype(float),
                (ctx.rank + 1) % ctx.size)
        win.fence()
        win.accumulate(rng.integers(0, 100, size=4).astype(float), 0, op=SUM)
        win.fence()
        out = win.get(0) + win.get(ctx.rank)
        win.fence_end()
        return out.tolist()

    rt_priv, rt_shared = make_rt("private"), make_rt("shared")
    res_priv = rt_priv.run(main)
    res_shared = rt_shared.run(main)
    assert res_priv == res_shared
    assert rt_shared.metrics("rma").staged_bytes == 0
    assert rt_priv.metrics("rma").staged_bytes > 0
