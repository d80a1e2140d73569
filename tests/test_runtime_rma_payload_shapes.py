"""Payload shapes and ``get`` destinations: an in-memory window answers
exactly what a storage window answers.

Both kinds run every verb through one access path that flattens the
payload once and stages a ``buf=`` it cannot fill in place, so

* a multi-dimensional ``put`` / ``accumulate`` payload lands in
  row-major order on ``Win.create``, ``Win.allocate`` and
  ``Win.allocate_shared`` windows, as it does on
  ``Win.allocate_storage``;
* ``get(buf=...)`` fills a strided view, a buffer of another dtype and
  a 2-D buffer in place -- and leaves the rest of a strided view's host
  array alone.
"""

import shutil
import tempfile

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import ProcessRuntime, Runtime, SUM, Win
from repro.storage import ChunkStore

N = 2
TIMEOUT = 10.0
COUNT = 6

RUNTIMES = {
    "thread-private": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, sharing="private"),
    "thread-shared": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, sharing="shared"),
    "process": lambda: ProcessRuntime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT),
}

MEMORY_WINDOWS = {
    "create": lambda c: Win.create(c, np.zeros(COUNT)),
    "allocate": lambda c: Win.allocate(c, COUNT),
    "allocate_shared": lambda c: Win.allocate_shared(c, COUNT),
}

#: every (runtime, in-memory window kind) pair
CASES = [(rt, kind) for rt in RUNTIMES for kind in MEMORY_WINDOWS]
case_param = pytest.mark.parametrize("rt_name,kind", CASES)


def run_on(rt_name, program, kind):
    """``program(ctx, win)`` on one window kind; ``kind="storage"`` is
    a fresh store with two-element chunks, so every access spans
    chunks."""
    rt = RUNTIMES[rt_name]()
    if kind != "storage":
        return rt.run(lambda ctx: program(
            ctx, MEMORY_WINDOWS[kind](ctx.comm_world)))
    root = tempfile.mkdtemp(prefix="repro-rma-shapes-")
    try:
        store = ChunkStore.create(root)
        return rt.run(lambda ctx: program(ctx, Win.allocate_storage(
            ctx.comm_world, COUNT, store=store, name="w", chunk_elems=2)))
    finally:
        shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------- multi-dimensional payloads
def put_accumulate_2d(ctx, win):
    target = (ctx.rank + 1) % ctx.size
    win.fence()
    win.put(np.arange(6.0).reshape(2, 3) + 10 * ctx.rank, target)
    win.fence()
    win.accumulate(np.full((3, 2), 100.0), target, op=SUM)
    win.fence()
    out = win.get(ctx.rank).tolist()
    win.fence_end()
    win.free()
    return out


@case_param
def test_multidimensional_put_and_accumulate(rt_name, kind):
    """A ``(2, 3)`` put and a ``(3, 2)`` accumulate into six elements
    land row-major, exactly as on a storage window."""
    expected = [
        [100.0 + 10 * ((r - 1) % N) + i for i in range(COUNT)]
        for r in range(N)
    ]
    assert run_on(rt_name, put_accumulate_2d, "storage") == expected
    assert run_on(rt_name, put_accumulate_2d, kind) == expected


# ------------------------------------------------------ get destinations
def strided_host():
    host = np.full((2, 6), -1.0)
    return host, host[:, :3]


def other_dtype():
    buf = np.full(COUNT, -1.0, dtype=np.float32)
    return buf, buf


def two_d():
    buf = np.full((2, 3), -1.0)
    return buf, buf


DESTINATIONS = {"strided": strided_host, "dtype": other_dtype, "2d": two_d}


def get_into(make_dest):
    def program(ctx, win):
        target = (ctx.rank + 1) % ctx.size
        win.fence()
        win.put(np.arange(6.0) + 10 * ctx.rank, target)
        win.fence()
        host, buf = make_dest()
        assert win.get(target, COUNT, buf=buf) is buf
        win.fence_end()
        win.free()
        return host.dtype.str, host.shape, host.reshape(-1).tolist()
    return program


@case_param
@pytest.mark.parametrize("dest", DESTINATIONS)
def test_get_fills_any_destination_in_place(rt_name, kind, dest):
    """``get(buf=...)`` into a strided view, a float32 buffer and a 2-D
    buffer: each rank reads back what it put, the rest of a strided
    view's host is untouched, and the answer equals the storage
    window's."""
    program = get_into(DESTINATIONS[dest])
    on_storage = run_on(rt_name, program, "storage")
    for (_, _, flat), r in zip(on_storage, range(N)):
        want = [10.0 * r + i for i in range(COUNT)]
        if dest == "strided":
            assert [x for x in flat if x != -1.0] == want
            assert flat.count(-1.0) == 6
        else:
            assert flat == want
    assert run_on(rt_name, program, kind) == on_storage
