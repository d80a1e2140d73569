"""There is one collective engine, and it does not thrash.

Structural checks on :class:`repro.runtime.icoll.IcollState` that the
value-level suites cannot see: every collective entry point reaches it,
blocking is start + wait on the very methods a request uses, an episode
with nothing to pipeline is one cell, waiters are woken per state change
(not per deposit or per cell), a complete episode costs one lock
acquisition, and arguments are rejected by one validator.
"""

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import (
    CountMismatchError,
    IcollState,
    MPIError,
    Runtime,
    SUM,
    Win,
)
from repro.runtime import icoll
from repro.scheduler import dynamic_for


class CountingCond:
    """The engine's condition, counting lock acquisitions and notifies."""

    def __init__(self, cond):
        self._cond = cond
        self.acquires = 0
        self.notifies = 0

    def __enter__(self):
        self.acquires += 1
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquires += 1
        return self._cond.acquire(*args, **kwargs)

    def release(self):
        self._cond.release()

    def wait(self, timeout=None):
        return self._cond.wait(timeout)

    def notify(self, n=1):
        self.notifies += 1
        self._cond.notify(n)

    def notify_all(self):
        self.notifies += 1
        self._cond.notify_all()


def world_engine(rt):
    """The world communicator's engine with a counting condition."""
    eng = rt.icoll_state(rt._world_context, rt._world_group)
    eng._cond = CountingCond(eng._cond)
    return eng


@pytest.fixture
def engine_calls(monkeypatch):
    """Records ``(method, rank, kind)`` for every deposit and blocking
    completion on any engine."""
    calls = []
    real_start, real_wait = IcollState.start, IcollState.wait_complete

    def start(self, seq, kind, rank, *args, **kw):
        calls.append(("start", rank, kind))
        return real_start(self, seq, kind, rank, *args, **kw)

    def wait_complete(self, rank, ep):
        calls.append(("wait_complete", rank, ep.kind))
        return real_wait(self, rank, ep)

    monkeypatch.setattr(IcollState, "start", start)
    monkeypatch.setattr(IcollState, "wait_complete", wait_complete)
    return calls


# --------------------------------------------------------------- one engine
def test_blocking_and_nonblocking_run_the_same_methods(engine_calls):
    def main(ctx, icoll_form):
        c = ctx.comm_world
        x = np.full(4, float(ctx.rank))
        return c.iallreduce(x, SUM).wait() if icoll_form else c.allreduce(x, SUM)

    seen = []
    for icoll_form in (False, True):
        del engine_calls[:]
        out = Runtime(core2_cluster(1), n_tasks=4).run(main, icoll_form)
        assert [v.tolist() for v in out] == [[6.0] * 4] * 4
        seen.append(sorted(engine_calls))
    want = sorted(
        (m, r, "allreduce") for m in ("start", "wait_complete") for r in range(4)
    )
    assert seen == [want, want]


def test_every_collective_entry_point_reaches_the_engine(engine_calls):
    n = 4
    rt = Runtime(core2_cluster(1), n_tasks=n, timeout=20.0)

    def main(ctx):
        c, r = ctx.comm_world, ctx.rank
        c.barrier()
        c.bcast(r)
        c.gather(r)
        c.allgather(r)
        c.scatter(list(range(n)) if r == 0 else None)
        c.reduce(r)
        c.allreduce(r)
        c.scan(r)
        c.alltoall([r] * n)
        c.reduce_scatter([r] * n)
        c.dup()
        c.split(0)
        Win.allocate(c, 2)
        dynamic_for(ctx, 8, lambda lo, hi: None)

    rt.run(main)
    mine = [kind for m, r, kind in engine_calls if m == "start" and r == 0]
    assert mine[:16] == [
        "barrier", "bcast", "gather", "allgather", "scatter", "reduce",
        "allreduce", "scan", "alltoall", "reduce_scatter",
        "bcast",                    # dup
        "exchange", "bcast",        # split
        "exchange", "barrier",      # Win.allocate
        "exchange",                 # ChunkQueue set-up
    ]
    # rank 0 is in every communicator here, so it saw every episode
    episodes = sum(rt.collective_metrics.icoll_episodes.values())
    assert episodes == len(mine)


# ------------------------------------------------------------- granularity
def test_small_episode_at_512_coop_tasks_is_one_cell():
    rt = Runtime(core2_cluster(64), n_tasks=512, backend="coop", timeout=30.0)
    x = np.arange(256.0)                         # 2 KiB

    def main(ctx):
        return float(ctx.comm_world.iallreduce(x, SUM).wait()[3])

    assert rt.run(main) == [3.0 * 512] * 512
    assert rt.collective_metrics.icoll_cells == 1


def test_chunkable_or_link_timed_episodes_keep_their_cells():
    def cells(link, x):
        rt = Runtime(core2_cluster(1), n_tasks=4, backend="coop")
        rt.icoll_link_time_per_mib = link
        rt.run(lambda ctx: ctx.comm_world.allreduce(x, SUM))
        return rt.collective_metrics.icoll_cells

    small, big = np.ones(8), np.ones(32 << 10)   # 64 B, 256 KiB (4 chunks)
    assert cells(0.0, small) == 1
    assert cells(1.0, small) == 4 + 3            # fold chain + deliveries
    assert cells(0.0, big) == 4 * 3 + 4 * 3      # per chunk: folds, copies


# ------------------------------------------------------------------- wakes
def test_an_episode_wakes_its_waiters_at_most_twice():
    n = 8
    rt = Runtime(core2_cluster(1), n_tasks=n, timeout=20.0)
    eng = world_engine(rt)

    def main(ctx):
        c, r = ctx.comm_world, ctx.rank
        c.barrier()
        c.allreduce(np.full(16, float(r)), SUM)
        c.bcast([r] if r == 2 else None, root=2)
        c.gather(r, root=1)
        c.iallreduce(np.full(16, float(r)), SUM).wait()
        c.ineighbor_exchange({(r + 1) % n: [r]}).wait()

    rt.run(main)
    episodes = sum(rt.collective_metrics.icoll_episodes.values())
    assert episodes == 6
    assert 0 < eng._cond.notifies <= 2 * episodes


def test_complete_episode_returns_after_one_lock_acquisition(monkeypatch):
    built = []

    def no_watchdog(*args):
        built.append(args)
        raise AssertionError("a wait that never parks built a Watchdog")

    monkeypatch.setattr(icoll, "Watchdog", no_watchdog)
    rt = Runtime(core2_cluster(1), n_tasks=1)
    eng = world_engine(rt)

    def main(ctx):
        req = ctx.comm_world.iallreduce(np.ones(4), SUM)
        before = eng._cond.acquires
        out = req.wait()
        return eng._cond.acquires - before, out.tolist()

    assert rt.run(main) == [(1, [1.0] * 4)]
    assert built == []          # never parked: no watchdog


# --------------------------------------------------------------- validator
@pytest.mark.parametrize("form", ["blocking", "nonblocking"])
def test_one_validator_for_both_forms(form):
    def call(ctx, name, *args, **kw):
        c = ctx.comm_world
        if form == "blocking":
            return getattr(c, name)(*args, **kw)
        return getattr(c, "i" + name)(*args, **kw).wait()

    def run(main):
        Runtime(core2_cluster(1), n_tasks=3, timeout=5.0).run(main)

    with pytest.raises(MPIError, match="root 9 outside communicator of size 3"):
        run(lambda ctx: call(ctx, "bcast", 1, root=9))
    with pytest.raises(CountMismatchError, match="scatter at root needs a list of 3"):
        run(lambda ctx: call(ctx, "scatter", [1, 2] if ctx.rank == 0 else None))
    with pytest.raises(CountMismatchError, match="alltoall needs exactly 3 items, got 1"):
        run(lambda ctx: call(ctx, "alltoall", [0]))


def test_rejected_call_deposits_nothing():
    rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

    def main(ctx):
        c = ctx.comm_world
        with pytest.raises(CountMismatchError, match="reduce_scatter needs 2 items, got 3"):
            c.reduce_scatter([1, 2, 3])
        assert c._seq == 0                   # no episode id consumed
        return c.reduce_scatter([ctx.rank, 10 + ctx.rank])

    assert rt.run(main) == [1, 21]


# ------------------------------------------------------------- cell shape
def test_auto_is_an_unknown_algorithm():
    with pytest.raises(MPIError, match="unknown collective algorithm 'auto'"):
        Runtime(core2_cluster(1), n_tasks=2, algorithm="auto")
    rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)
    with pytest.raises(MPIError, match="unknown collective algorithm 'auto'"):
        rt.run(lambda ctx: ctx.comm_world.iallreduce(1, SUM, algorithm="auto"))


def test_a_call_may_pin_its_shape_over_the_runtime_default():
    x = np.ones(32 << 10)                        # 256 KiB

    def planned(runtime_algorithm, **pin):
        rt = Runtime(core2_cluster(1), n_tasks=4, backend="coop",
                     algorithm=runtime_algorithm)
        rt.run(lambda ctx: ctx.comm_world.iallreduce(x, SUM, **pin).wait())
        m = rt.collective_metrics
        return dict(m.icoll_episodes), m.icoll_cells

    per_chunk = 3 + 3                            # folds, copies
    assert planned("hierarchical") == ({"pipelined": 1}, 4 * per_chunk)
    assert planned("flat") == ({"flat": 1}, 1)
    assert planned("hierarchical", algorithm="flat") == ({"flat": 1}, 1)
    assert planned("hierarchical", chunk_bytes=128 << 10) == (
        {"pipelined": 1}, 2 * per_chunk)
    assert planned("flat", algorithm="pipelined") == (
        {"pipelined": 1}, 4 * per_chunk)


def test_src_reads_no_environment_and_no_trajectory_file():
    """A runtime's behaviour is a function of its arguments: nothing
    under ``src/repro`` consults the environment or a ``BENCH_*`` file."""
    import pathlib
    import re

    import repro

    banned = re.compile(r"os\.environ|getenv|BENCH_")
    root = pathlib.Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{n}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
