"""Hypothesis equivalence battery: storage-backed windows are
observationally identical to in-memory windows.

The property: for a random program of fence-separated put / get /
accumulate / fetch_and_op / compare_and_swap phases -- payloads sized
to span chunk boundaries and shaped 2-D, gets landing in a fresh,
contiguous, strided or other-dtype buffer, targets chosen bijectively
so every phase is deterministic -- running the program against ``Win.allocate`` and
against ``Win.allocate_storage`` yields bit-for-bit identical per-rank
results, on every backend (threads private/shared, coop, process).
All values are integer-valued floats, so arithmetic is exact and
order-independent within a phase.

Mirrors ``test_runtime_rma_properties.py``; the CI storage and rma
jobs run the file under both ``REPRO_SHARING`` settings.
"""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import core2_cluster
from repro.runtime import MAX, MIN, ProcessRuntime, Runtime, SUM, Win
from repro.storage import ChunkStore

N = 4
TIMEOUT = 10.0
WIN_COUNT = 40          # per-rank elements; chunk_elems below forces spans
CHUNK_ELEMS = 7         # deliberately misaligned with WIN_COUNT
OPS = {"sum": SUM, "max": MAX, "min": MIN}
SHARING = os.environ.get("REPRO_SHARING", "private")

RUNTIMES = {
    "thread": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, sharing=SHARING),
    "coop": lambda: Runtime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT, backend="coop",
        schedule="random:11"),
    "process": lambda: ProcessRuntime(
        core2_cluster(1), n_tasks=N, timeout=TIMEOUT),
}

runtime_param = pytest.mark.parametrize(
    "factory", RUNTIMES.values(), ids=RUNTIMES.keys())


# ------------------------------------------------------------ the program
#: where a ``get`` lands: a fresh array, a contiguous ``buf``, a 2-D
#: strided view of a larger host array (the phase's ``shape``), or a
#: ``buf`` of another dtype
DESTS = ("none", "contiguous", "strided", "float32")


def make_phases(seed, n_phases):
    """A deterministic random program: per phase one op kind, one
    bijective target shift (same for all ranks, so each rank is hit by
    exactly one origin and old-value reads are deterministic), and
    per-rank payload geometry -- a 2-D ``shape`` holding ``count``
    elements for put / accumulate payloads and strided ``get``
    destinations, and a ``get`` destination from ``DESTS``."""
    rng = np.random.default_rng(seed)
    phases = []
    for _ in range(n_phases):
        kind = rng.choice(["put", "accumulate", "fetch_and_op",
                           "compare_and_swap", "get"])
        shift = int(rng.integers(0, N))
        count = int(rng.integers(1, WIN_COUNT + 1))
        disp = int(rng.integers(0, WIN_COUNT - count + 1))
        op = str(rng.choice(sorted(OPS)))
        values = rng.integers(0, 100, size=(N, count)).astype(float)
        # a proper 2-D shape whenever ``count`` has one
        rows = int(rng.choice([d for d in range(2, count) if count % d == 0]
                              or [1, count]))
        phases.append({
            "kind": str(kind), "shift": shift, "count": count,
            "disp": disp, "op": op, "values": values,
            "shape": (rows, count // rows),
            "dest": str(rng.choice(DESTS)),
        })
    return phases


def get_into(win, target, ph):
    """``win.get`` into the phase's destination; returns every element
    the destination's host array holds afterwards."""
    count, disp = ph["count"], ph["disp"]
    dest = ph.get("dest", "none")
    if dest == "none":
        return win.get(target, count, target_disp=disp)
    if dest == "strided":
        rows, cols = ph["shape"]
        host = np.full((rows, 2 * cols), -1.0)
        buf = host[:, cols:]
    else:
        host = buf = np.full(count, -1.0, dtype=(
            np.float32 if dest == "float32" else np.float64))
    assert win.get(target, count, target_disp=disp, buf=buf) is buf
    return host.reshape(-1)


def run_program(ctx, win, phases):
    """Execute the phase list against one window handle; returns the
    per-rank observation log (old values, reads, final segment)."""
    rank, size = ctx.rank, ctx.size
    log = []
    win.fence()
    for ph in phases:
        target = (rank + ph["shift"]) % size
        vals = ph["values"][rank]
        if ph["kind"] in ("put", "accumulate"):
            vals = vals.reshape(ph.get("shape", vals.shape))
        if ph["kind"] == "put":
            win.put(vals, target, target_disp=ph["disp"])
        elif ph["kind"] == "accumulate":
            win.accumulate(vals, target, op=OPS[ph["op"]],
                           target_disp=ph["disp"])
        elif ph["kind"] == "fetch_and_op":
            old = win.fetch_and_op(vals[0], target, op=OPS[ph["op"]],
                                   target_disp=ph["disp"])
            log.append(float(np.asarray(old).reshape(-1)[0]))
        elif ph["kind"] == "compare_and_swap":
            old = win.compare_and_swap(0.0, vals[0], target,
                                       target_disp=ph["disp"])
            log.append(float(np.asarray(old).reshape(-1)[0]))
        else:                                   # get
            log.append([float(x) for x in get_into(win, target, ph)])
        win.fence()
    final = win.get(rank)
    win.fence_end()
    log.append([float(x) for x in final])
    win.free()
    return log


def run_memory(factory, phases):
    def main(ctx):
        win = Win.allocate(ctx.comm_world, WIN_COUNT,
                           chunk_elems=CHUNK_ELEMS)
        return run_program(ctx, win, phases)
    return factory().run(main)


def run_storage(factory, phases):
    root = tempfile.mkdtemp(prefix="repro-storage-prop-")
    try:
        rt = factory()
        store = ChunkStore.create(root)

        def main(ctx):
            win = Win.allocate_storage(
                ctx.comm_world, WIN_COUNT, store=store, name="w",
                chunk_elems=CHUNK_ELEMS,
            )
            return run_program(ctx, win, phases)

        return rt.run(main)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ------------------------------------------------------------- properties
@runtime_param
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=5),
)
def test_storage_windows_equal_memory_windows_bit_for_bit(
    factory, seed, n_phases
):
    """The tentpole equivalence: same random program, same per-rank
    observations, whether the window lives in memory or on storage."""
    phases = make_phases(seed, n_phases)
    assert run_storage(factory, phases) == run_memory(factory, phases)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_storage_equivalence_survives_spill_pressure(seed):
    """The same equivalence with the arena capacity capped so chunks
    spill mid-program: paging is invisible to RMA semantics."""
    phases = make_phases(seed, 4)
    baseline = run_memory(RUNTIMES["thread"], phases)

    root = tempfile.mkdtemp(prefix="repro-storage-prop-")
    try:
        rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT,
                     sharing=SHARING)
        # room for a handful of 56-byte chunks, far below the
        # 4 x 40 x 8 = 1280-byte window footprint
        rt.memory.cap_node(0, 512)
        store = ChunkStore.create(root)

        def main(ctx):
            win = Win.allocate_storage(
                ctx.comm_world, WIN_COUNT, store=store, name="w",
                chunk_elems=CHUNK_ELEMS,
            )
            return run_program(ctx, win, phases)

        assert rt.run(main) == baseline
        assert rt.metrics("storage").spills > 0, (
            "the cap was meant to force paging"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sharing_policies_equivalent_on_storage_windows(seed):
    """sharing="shared" vs "private" cannot be observed through a
    storage window (all accesses stage through the chunk cache)."""
    phases = make_phases(seed, 3)
    res = {
        sharing: run_storage(
            lambda s=sharing: Runtime(core2_cluster(1), n_tasks=N,
                                      timeout=TIMEOUT, sharing=s),
            phases,
        )
        for sharing in ("private", "shared")
    }
    assert res["private"] == res["shared"]


# --------------------------------------------- chunk-boundary differential
#: rma counters that describe the traffic a program issued; chunk-lock
#: and epoch-wait counts depend on paging and timing and stay out
TRAFFIC = (
    "windows", "ops", "puts", "gets", "accumulates", "fetch_and_ops",
    "compare_and_swaps", "bytes", "staged_copies", "staged_bytes",
    "zero_copy_hits", "zero_copy_bytes", "fences", "locks", "mirror_bytes",
)
BOUNDARIES = range(CHUNK_ELEMS, WIN_COUNT, CHUNK_ELEMS)


@st.composite
def straddling_phase(draw):
    """One phase whose access crosses (or, for the single-element
    atomic, touches) a chunk boundary: ``left`` elements before it and
    ``right`` from it on."""
    kind = draw(st.sampled_from(["put", "accumulate", "fetch_and_op", "get"]))
    boundary = draw(st.sampled_from(BOUNDARIES))
    if kind == "fetch_and_op":
        left, right = draw(st.sampled_from([(1, 0), (0, 1)]))
    else:
        left = draw(st.integers(1, boundary))
        right = draw(st.integers(1, WIN_COUNT - boundary))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        "kind": kind, "shift": draw(st.integers(0, N - 1)),
        "disp": boundary - left, "count": left + right,
        "op": draw(st.sampled_from(sorted(OPS))),
        "values": rng.integers(0, 100, size=(N, left + right)).astype(float),
    }


def traffic(rt):
    snap = rt.metrics("rma").snapshot()
    return {name: snap[name] for name in TRAFFIC}


@settings(max_examples=10, deadline=None)
@given(phases=st.lists(straddling_phase(), min_size=1, max_size=5))
def test_boundary_straddling_accesses_equal_memory_under_spill(phases):
    """get / put / accumulate / fetch_and_op drawn to straddle chunk
    boundaries, on a storage window paging at a fifth of its footprint:
    the same values as the in-memory window, and the same rma traffic
    counters as its staged (``sharing="private"``) path -- one staged
    copy of every payload byte, however many chunks it crossed."""
    memory_rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT,
                        sharing="private")
    rt = Runtime(core2_cluster(1), n_tasks=N, timeout=TIMEOUT,
                 sharing=SHARING)
    rt.memory.cap_node(0, 256)            # 4 x 40 x 8 = 1280 B of window
    assert run_storage(lambda: rt, phases) == run_memory(
        lambda: memory_rt, phases)
    assert traffic(rt) == traffic(memory_rt)
    assert rt.metrics("storage").spills > 0, (
        "the cap was meant to force paging"
    )
