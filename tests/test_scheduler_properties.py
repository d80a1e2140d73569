"""Property suite for the loop self-scheduling subsystem.

The contract under test: for any chunk-sizing policy, any coop
schedule, and any steal interleaving, ``dynamic_for`` executes every
iteration of the loop **exactly once** -- the packed head/tail word
makes a claim (fetch-and-add) and a steal (compare-and-swap on the
same word) mutually exclusive per chunk.  Under injected crashes at
the claim/steal fault sites the guarantee degrades to *at most* once
(a crash can lose work, never duplicate it).  And because iteration
results do not depend on the executing task, the dynamic result is
bit-equal to the static oracle decomposition."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.machine import core2_cluster
from repro.runtime import AbortError, InjectedCrash, ProcessRuntime, Runtime
from repro.scheduler import dynamic_for, make_policy

N_NODES = 2
N_TASKS = 16
TIMEOUT = 30.0

POLICIES = ["even", "fixed:1", "fixed:3", "guided", "guided:2", "factoring"]

policy_st = st.sampled_from(POLICIES)


def coop_rt(seed, **kw):
    return Runtime(core2_cluster(N_NODES), n_tasks=N_TASKS, timeout=TIMEOUT,
                   backend="coop", schedule=f"random:{seed}", **kw)


def make_loop_main(hits, n_iters, policy, steal=True, out=None):
    """An SPMD main running one dynamic_for; every body execution
    increments the per-(rank, iteration) hit cells, so lost or
    duplicated iterations are visible from outside the run even when
    the job aborts mid-loop."""
    def main(ctx):
        def body(lo, hi):
            hits[ctx.rank, lo:hi] += 1
            if out is not None:
                for i in range(lo, hi):
                    out[i] = np.sin(0.7 * i) + i * i
            return float(hi - lo)
        stats = dynamic_for(ctx, n_iters, body, policy=policy, steal=steal)
        return stats.iterations
    return main


# ----------------------------------------------------------- exactly once
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), policy=policy_st,
       steal=st.booleans(), n_iters=st.integers(1, 80))
def test_exactly_once_under_random_coop_schedules(seed, policy, steal,
                                                  n_iters):
    """Any coop schedule, any policy, steal on or off: every iteration
    runs exactly once and per-task counts sum to the loop size."""
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    rt = coop_rt(seed)
    res = rt.run(make_loop_main(hits, n_iters, policy, steal))
    assert sum(res) == n_iters
    assert (hits.sum(axis=0) == 1).all()


@pytest.mark.parametrize("backend", ["threads", "threads-shared", "coop",
                                     "process"])
@pytest.mark.parametrize("policy", POLICIES)
def test_exactly_once_all_backends(backend, policy):
    """The claim/steal protocol holds on every backend the atomics
    support (threads private/shared, coop, process mirror copies)."""
    factories = {
        "threads": lambda: Runtime(core2_cluster(N_NODES), n_tasks=N_TASKS,
                                   timeout=TIMEOUT, sharing="private"),
        "threads-shared": lambda: Runtime(core2_cluster(N_NODES),
                                          n_tasks=N_TASKS, timeout=TIMEOUT,
                                          sharing="shared"),
        "coop": lambda: coop_rt(99),
        "process": lambda: ProcessRuntime(core2_cluster(N_NODES),
                                          n_tasks=N_TASKS, timeout=TIMEOUT),
    }
    n_iters = 64
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    rt = factories[backend]()
    res = rt.run(make_loop_main(hits, n_iters, policy))
    assert sum(res) == n_iters
    assert (hits.sum(axis=0) == 1).all()


@pytest.mark.parametrize("sharing", ["private", "shared"])
@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_stealing_loop_leaves_no_memory_behind(backend, sharing):
    """The queue's ``sched_chunks`` HLS program is closed with its two
    windows: after a loop, ``finalize()`` reports nothing live (one
    node-scope image per node used to survive every loop)."""
    n_iters = 64
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    rt = Runtime(core2_cluster(N_NODES), n_tasks=N_TASKS, timeout=TIMEOUT,
                 backend=backend, sharing=sharing)
    res = rt.run(make_loop_main(hits, n_iters, "fixed:1", steal=True))
    assert sum(res) == n_iters
    report = rt.finalize()
    assert report.total_bytes == 0, report.records


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), policy=policy_st)
def test_dynamic_bit_equal_static_oracle(seed, policy):
    """Iteration results are a pure function of the index, so any
    dynamic execution must reproduce the static oracle bit-for-bit."""
    n_iters = 60
    oracle = np.array([np.sin(0.7 * i) + i * i for i in range(n_iters)])
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    out = np.zeros(n_iters)
    rt = coop_rt(seed)
    rt.run(make_loop_main(hits, n_iters, policy, out=out))
    assert (hits.sum(axis=0) == 1).all()
    assert np.array_equal(out, oracle)


# -------------------------------------------------------- under injection
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       site=st.sampled_from(["sched.claim", "sched.steal"]),
       nth=st.integers(1, 20), task=st.integers(-1, N_TASKS - 1),
       policy=policy_st)
def test_crash_at_sched_sites_at_most_once(seed, site, nth, task, policy):
    """A crash before a claim's FAA or a steal's CAS can abort the job
    (losing unexecuted chunks) but can never duplicate an iteration."""
    n_iters = 48
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    plan = FaultPlan([FaultSpec(site=site, action="crash", task=task,
                                nth=nth)])
    rt = coop_rt(seed, faults=plan)
    try:
        res = rt.run(make_loop_main(hits, n_iters, policy))
    except (InjectedCrash, AbortError):
        # aborted mid-loop: at-most-once is all that can be promised
        assert (hits.sum(axis=0) <= 1).all()
    else:
        # the spec's hit window was never reached: full exactly-once
        assert sum(res) == n_iters
        assert (hits.sum(axis=0) == 1).all()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), policy=policy_st,
       action=st.sampled_from(["delay", "wake"]))
def test_soft_faults_at_sched_sites_preserve_exactly_once(seed, policy,
                                                          action):
    """Delays and spurious wakes at the claim/steal sites perturb the
    interleaving but must not break exactly-once."""
    n_iters = 48
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)
    plan = FaultPlan([
        FaultSpec(site="sched.claim", action=action, nth=2, count=3,
                  param=0.002),
        FaultSpec(site="sched.steal", action=action, nth=1, count=2,
                  param=0.002),
    ])
    rt = coop_rt(seed, faults=plan)
    res = rt.run(make_loop_main(hits, n_iters, policy))
    assert sum(res) == n_iters
    assert (hits.sum(axis=0) == 1).all()


# ------------------------------------------------------------- regressions
@pytest.mark.parametrize("backend", ["threads", "coop", "process"])
def test_concurrent_donations_claimed_exactly_once(backend):
    """Regression for the donate/steal descriptor race: donation rows
    come from a monotonic allocation cursor that is never reused, so
    concurrent donors (and donors racing a thief's exposed rows) can
    never write rows another party reads.  Every donated chunk must be
    claimed exactly once, none lost, none duplicated."""
    from repro.scheduler.queue import ChunkQueue

    per_task = 5

    def main(ctx):
        c = ctx.comm_world
        q = ChunkQueue(ctx, c, 0, make_policy("fixed:1"))
        mine = [(ctx.rank * per_task + i, ctx.rank * per_task + i + 1)
                for i in range(per_task)]
        ok = q.donate(mine)
        c.barrier()
        got = []
        for node in q.nodes:
            while True:
                chunk = q.claim(node)
                if chunk is None:
                    break
                got.append(chunk)
        c.barrier()
        q.close()
        return ok, got

    factories = {
        "threads": lambda: Runtime(core2_cluster(N_NODES), n_tasks=N_TASKS,
                                   timeout=TIMEOUT),
        "coop": lambda: coop_rt(7),
        "process": lambda: ProcessRuntime(core2_cluster(N_NODES),
                                          n_tasks=N_TASKS, timeout=TIMEOUT),
    }
    res = factories[backend]().run(main)
    assert all(ok for ok, _ in res)
    claimed = sorted(ch for _, got in res for ch in got)
    expected = sorted(
        (r * per_task + i, r * per_task + i + 1)
        for r in range(N_TASKS) for i in range(per_task)
    )
    assert claimed == expected


def test_dynamic_for_on_subcommunicator():
    """Regression: the queue's descriptor fill used an HLS node-scope
    ``single`` whose barrier waits for *every* runtime task on the
    node, so a ``dynamic_for`` over any sub-communicator hung on
    shared-address-space runtimes.  An even/odd split puts only half
    of each node's tasks in each communicator."""
    n_iters = 40
    hits = np.zeros((N_TASKS, n_iters), dtype=np.int64)

    def main(ctx):
        c = ctx.comm_world
        color = c.rank % 2
        sub = c.split(color, c.rank)

        def body(lo, hi):
            hits[ctx.rank, lo:hi] += 1

        stats = dynamic_for(ctx, n_iters, body, comm=sub,
                            policy="fixed:3", label=f"half{color}")
        return stats.iterations

    rt = Runtime(core2_cluster(N_NODES), n_tasks=N_TASKS, timeout=10.0,
                 sharing="shared")
    rt.run(main)
    # each half executes the full loop once: every iteration hit twice
    assert (hits.sum(axis=0) == 2).all()


def test_policy_spec_reports_non_default_args():
    """``policy_spec`` compares against each policy class's own
    constructor default: ``fixed:1`` (pure self-scheduling) must not
    collapse into the default ``fixed`` (k=4), and a non-default
    ``guided:4`` keeps its min_chunk in loop reports."""
    from repro.scheduler import policy_spec

    assert policy_spec(make_policy("static")) == "static"
    assert policy_spec(make_policy("fixed")) == "fixed"
    assert policy_spec(make_policy("fixed:4")) == "fixed"
    assert policy_spec(make_policy("fixed:1")) == "fixed:1"
    assert policy_spec(make_policy("guided")) == "guided"
    assert policy_spec(make_policy("guided:1")) == "guided"
    assert policy_spec(make_policy("guided:4")) == "guided:4"
    assert policy_spec(make_policy("factoring:4")) == "factoring:4"


# ------------------------------------------------------- atomic primitives
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), adds=st.integers(1, 6))
def test_fetch_and_add_is_atomic_under_coop_schedules(seed, adds):
    """N ranks x `adds` increments: all old values distinct, final
    value exact -- for any coop interleaving."""
    from repro.runtime import Win

    def main(ctx):
        c = ctx.comm_world
        win = Win.create(c, np.zeros(1, dtype=np.uint64))
        win.lock_all()
        olds = [int(win.fetch_and_op(np.uint64(1), target=0))
                for _ in range(adds)]
        c.barrier()
        final = int(win.fetch_and_op(np.uint64(0), target=0))
        win.unlock_all()
        win.free()
        return olds, final

    res = coop_rt(seed).run(main)
    all_olds = [o for olds, _ in res for o in olds]
    assert sorted(all_olds) == list(range(N_TASKS * adds))
    assert {final for _, final in res} == {N_TASKS * adds}
