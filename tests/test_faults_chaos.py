"""Chaos battery: seeded random fault plans against real workloads.

The invariant under test is *liveness under perturbation*: whatever a
(valid) plan injects -- delays, reorders, spurious wakeups, transient
allocation failures, outright crashes -- every run must end, within the
deadlock timeout, in either a clean result or a clean ``MPIError``
(usually ``InjectedCrash`` at the root, ``AbortError`` on the peers).
A hang is the only failure mode, and the per-test timeout turns a hang
into a failure.

Reproducing a failure: every unexpected outcome dumps the offending
plan to ``chaos_failplan_seed<N>.json`` (uploaded as a CI artifact);
feed it back with ``FaultPlan.load(path)`` + ``rt.install_faults``.

``REPRO_CHAOS_SEEDS`` overrides the sweep width (default 20 seeds);
``REPRO_SHARING=shared`` runs the thread runtime with the zero-copy
delivery policy.
"""

import os
import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import ChaosArtifact, FaultPlan, FaultSpec
from repro.storage import ChunkStore
from repro.hls import HLSProgram
from repro.machine import core2_cluster
from repro.runtime import (
    AbortError,
    InjectedCrash,
    MPIError,
    Runtime,
    SUM,
    Win,
)

#: sweep width; CI may widen it, a laptop may narrow it
N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "20"))
#: sharing policy for the thread runtime (stress-suite convention)
SHARING = os.environ.get("REPRO_SHARING", "private")

N_TASKS = 8
TIMEOUT = 10.0


def make_runtime(plan=None, **kw):
    rt = Runtime(
        core2_cluster(1), n_tasks=N_TASKS, timeout=TIMEOUT,
        sharing=SHARING, **kw,
    )
    if plan is not None:
        rt.install_faults(plan)
    return rt


# --------------------------------------------------------------- workloads
def wl_p2p_alltoall(ctx):
    """Two rounds of all-to-all point-to-point traffic."""
    total = 0
    for rnd in range(2):
        for peer in range(ctx.size):
            if peer != ctx.rank:
                ctx.comm_world.send((rnd, ctx.rank), dest=peer, tag=rnd)
        for peer in range(ctx.size):
            if peer != ctx.rank:
                r, src = ctx.comm_world.recv(source=peer, tag=rnd)
                assert r == rnd and src == peer
                total += src
    return total


def wl_collectives(ctx):
    """A mix of hierarchical collectives (the tree sweep hot path)."""
    token = ctx.comm_world.bcast("go" if ctx.rank == 0 else None)
    assert token == "go"
    s = ctx.comm_world.allreduce(ctx.rank, op=SUM)
    ctx.comm_world.barrier()
    ranks = ctx.comm_world.allgather(ctx.rank)
    assert ranks == list(range(ctx.size))
    return s


def wl_hls_nowait(program):
    """HLS single-nowait work queue + plain singles + scope barriers."""
    def main(ctx):
        h = program.attach(ctx)
        done = 0
        for _ in range(4):
            if h.single_enter("q", nowait=True):
                h.get("q")[0] += 1.0
                done += 1
            h.barrier("q")
            if h.single_enter("q"):
                h.get("q")[1] += 1.0
                h.single_done("q")
        return (done, float(h.get("q")[0]), float(h.get("q")[1]))
    return main


def wl_rma(ctx):
    """One-sided traffic across all three sync families: fence put/get,
    a passive-target read, and a lock_all accumulate.  Every value is
    integer-valued and every read is ordered after the writes it
    observes, so the result is schedule-invariant."""
    c = ctx.comm_world
    win = Win.allocate(c, 2)
    win.fence()
    win.put(np.full(2, float(ctx.rank + 1)), (ctx.rank + 1) % ctx.size)
    win.fence()
    out = float(win.get(ctx.rank)[0])          # neighbour's store
    win.fence_end()
    win.lock_all()
    win.accumulate(np.full(2, 1.0), 0, op=SUM)
    win.unlock_all()
    c.barrier()                                # all accumulates done
    win.lock(0)
    total = float(win.get(0)[0])
    win.unlock(0)
    return (out, total)


def wl_icoll(ctx):
    """Nonblocking collectives: overlapping pipelined episodes drained
    by one waitall, plus the neighborhood halo.  Every value is a
    deterministic function of rank, so the result is schedule- and
    perturbation-invariant."""
    from repro.runtime import Request

    c = ctx.comm_world
    right = (ctx.rank + 1) % ctx.size
    reqs = [
        c.ibcast(np.arange(64.0) if ctx.rank == 0 else None, root=0,
                 algorithm="pipelined", chunk_bytes=128),
        c.iallreduce(np.arange(16.0) + ctx.rank, op=SUM,
                     algorithm="pipelined", chunk_bytes=64),
        c.ineighbor_exchange({right: float(ctx.rank)}),
    ]
    bcast, total, halo = Request.waitall(reqs)
    left = (ctx.rank - 1) % ctx.size
    return (float(bcast[-1]), float(total[0]), halo[left])


def run_workload(name, rt):
    if name == "p2p":
        return rt.run(wl_p2p_alltoall)
    if name == "coll":
        return rt.run(wl_collectives)
    if name == "icoll":
        return rt.run(wl_icoll)
    if name == "hls":
        prog = HLSProgram(rt)
        prog.declare("q", shape=(2,), scope="node")
        return rt.run(wl_hls_nowait(prog))
    if name == "rma":
        return rt.run(wl_rma)
    raise AssertionError(name)


#: which injection sites each workload actually exercises (plans over
#: unvisited sites test nothing)
WORKLOAD_SITES = {
    "p2p": ("p2p.post", "p2p.recv", "p2p.alloc"),
    "coll": ("coll.sweep",),
    "icoll": ("coll.ichunk",),
    "hls": ("hls.single", "hls.nowait", "hls.barrier"),
    "rma": ("rma.put", "rma.get", "rma.epoch"),
}


def check_clean(name, plan, outcome_ok):
    """Assert the run ended cleanly; dump the plan artifact if not."""
    if outcome_ok:
        return
    path = f"chaos_failplan_seed{plan.seed}.json"
    plan.dump(path)
    pytest.fail(
        f"chaos run ({name}, seed {plan.seed}) ended badly -- "
        f"plan saved to {path}"
    )


# ------------------------------------------------------------- seeded sweep
@pytest.mark.parametrize("workload", ["p2p", "coll", "icoll", "hls", "rma"])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_chaos_sweep_terminates_cleanly(workload, seed):
    """Random plan, real workload: clean result or clean MPIError,
    never a hang (the suite timeout enforces the 'never')."""
    plan = FaultPlan.random(
        seed, N_TASKS,
        n_faults=6,
        sites=WORKLOAD_SITES[workload],
        max_nth=8,
        max_delay=0.005,
    )
    rt = make_runtime(plan)
    start = time.monotonic()
    try:
        run_workload(workload, rt)
        ok = True
    except MPIError:
        ok = True       # clean failure: the root cause propagated
    except Exception:
        ok = False      # anything else is a harness bug
    elapsed = time.monotonic() - start
    check_clean(workload, plan, ok)
    assert elapsed < TIMEOUT * 3, "termination took longer than the watchdog"
    # the abort path, when taken, must come down fast
    if rt.abort_recovery_s is not None:
        assert rt.abort_recovery_s < TIMEOUT


def canonical(workload, result):
    """Schedule-invariant view of a workload result: which task wins an
    hls ``single nowait`` is legitimately schedule-dependent, so for the
    hls workload compare the aggregate (exactly 4 executions, every rank
    seeing the final counter), not the per-rank winner split."""
    if workload == "hls":
        return (
            sum(d for d, _, _ in result),
            sorted((a, b) for _, a, b in result),
        )
    return result


@pytest.mark.parametrize("workload", ["p2p", "coll", "icoll", "hls", "rma"])
def test_chaos_soft_perturbations_preserve_results(workload):
    """Crash-free plans may slow a run down but must not corrupt it:
    the perturbed result equals the undisturbed one."""
    baseline = canonical(workload, run_workload(workload, make_runtime()))
    for seed in range(min(N_SEEDS, 10)):
        plan = FaultPlan.random(
            seed, N_TASKS,
            n_faults=6,
            sites=WORKLOAD_SITES[workload],
            max_nth=8,
            max_delay=0.005,
            crash_rate=0.0,
        )
        rt = make_runtime(plan)
        try:
            result = run_workload(workload, rt)
        except MPIError as exc:  # pragma: no cover - diagnostic path
            plan.dump(f"chaos_failplan_seed{seed}.json")
            pytest.fail(f"soft plan (seed {seed}) crashed the job: {exc}")
        assert canonical(workload, result) == baseline, (
            f"seed {seed} corrupted the result"
        )


# ----------------------------------------------------- crash at every site
CRASH_SITES = [
    ("p2p.post", "p2p"),       # delivery, sender side
    ("p2p.recv", "p2p"),       # delivery, receiver side
    ("coll.sweep", "coll"),    # collective sweep
    ("coll.ichunk", "icoll"),  # nonblocking collective deposit/cell
    ("hls.barrier", "hls"),    # scope barrier
    ("hls.single", "hls"),     # hls single (nowait enter in the workload)
    ("rma.put", "rma"),        # one-sided store/accumulate
    ("rma.get", "rma"),        # one-sided load
    ("rma.epoch", "rma"),      # fence/lock/PSCW epoch boundary
]


@pytest.mark.parametrize("site,workload", CRASH_SITES)
def test_crash_at_each_site_aborts_everyone(site, workload):
    """A crash injected at any site category must terminate every
    surviving task with AbortError well inside the deadlock timeout,
    and run() must re-raise the InjectedCrash as the root cause."""
    plan = FaultPlan.single(site, "crash", task=3, nth=1)
    rt = make_runtime(plan)
    start = time.monotonic()
    with pytest.raises(InjectedCrash):
        run_workload(workload, rt)
    elapsed = time.monotonic() - start
    # run() joined every thread, so returning at all proves no task is
    # still blocked; the clock proves the abort woke the parked ones
    # rather than their timeouts expiring.
    assert elapsed < TIMEOUT, f"abort propagation took {elapsed:.1f}s"
    m = rt.metrics("faults")
    assert m.fired.get("crash") == 1
    assert m.aborts_propagated >= 1, "no parked task was woken by the abort"
    assert m.recovery_latency_s is not None
    assert m.recovery_latency_s < TIMEOUT


def test_injected_crash_is_not_an_abort_error():
    # the root-cause preference in run() depends on this distinction
    assert issubclass(InjectedCrash, MPIError)
    assert not issubclass(InjectedCrash, AbortError)


# ------------------------------------------------------------ record/replay
@pytest.mark.parametrize("workload", ["p2p", "coll", "hls", "rma"])
def test_record_replay_bit_for_bit(workload):
    """to_json -> from_json -> rerun reproduces the identical injection
    sequence: same canonical JSON, same sorted fired-log."""
    plan = FaultPlan.random(
        1234, N_TASKS,
        n_faults=8,
        sites=WORKLOAD_SITES[workload],
        max_nth=6,
        max_delay=0.002,
        crash_rate=0.0,   # crash-free: every task completes its sequence
    )
    rt1 = make_runtime(plan)
    run_workload(workload, rt1)
    recorded = rt1.faults.sorted_log()

    replayed_plan = FaultPlan.from_json(plan.to_json())
    assert replayed_plan.to_json() == plan.to_json()
    rt2 = make_runtime(replayed_plan)
    run_workload(workload, rt2)
    assert rt2.faults.sorted_log() == recorded


def test_replay_from_dumped_artifact(tmp_path):
    """The CI artifact round-trip: dump on failure, load, reproduce."""
    plan = FaultPlan.single("p2p.post", "crash", task=1, nth=3)
    path = tmp_path / "chaos_failplan_seed0.json"
    plan.dump(path)

    rt = make_runtime(FaultPlan.load(path))
    with pytest.raises(InjectedCrash):
        run_workload("p2p", rt)
    assert rt.faults.sorted_log() == [("p2p.post", 1, 3, "crash")]


# ------------------------------------------------- chaos x coop schedules
# Fault plans and schedule policies are orthogonal perturbation axes;
# composed, a failure is captured as ONE artifact -- (plan, trace) --
# and replayed from it bit-for-bit.  Under the coop backend injected
# delays park on the virtual clock, so the whole battery runs at
# scheduler speed, not wall-clock speed.

def check_clean_artifact(name, rt, plan, outcome_ok):
    """Assert the run ended cleanly; dump the full (plan, schedule)
    artifact if not (the coop-era superset of ``check_clean``)."""
    if outcome_ok:
        return
    path = f"chaos_artifact_seed{plan.seed}.json"
    ChaosArtifact.from_runtime(rt, plan, workload=name).dump(path)
    pytest.fail(
        f"chaos run ({name}, seed {plan.seed}) ended badly -- "
        f"artifact saved to {path}"
    )


@pytest.mark.parametrize("workload", ["p2p", "coll", "icoll", "hls", "rma"])
@pytest.mark.parametrize("seed", range(min(N_SEEDS, 10)))
def test_chaos_under_random_coop_schedules_terminates(workload, seed):
    """The chaos sweep, rerun with the schedule itself randomised: the
    plan seed perturbs the faults, the same seed perturbs the
    interleaving, and the liveness contract is unchanged."""
    plan = FaultPlan.random(
        seed, N_TASKS,
        n_faults=6,
        sites=WORKLOAD_SITES[workload],
        max_nth=8,
        max_delay=0.005,
    )
    rt = make_runtime(plan, backend="coop", schedule=f"random:{seed}")
    try:
        run_workload(workload, rt)
        ok = True
    except MPIError:
        ok = True
    except Exception:
        ok = False
    check_clean_artifact(workload, rt, plan, ok)
    if rt.abort_recovery_s is not None:
        assert rt.abort_recovery_s < TIMEOUT


@pytest.mark.parametrize("workload", ["p2p", "coll", "icoll", "hls", "rma"])
def test_chaos_with_schedule_replays_as_one_artifact(workload, tmp_path):
    """Record a fault-perturbed coop run, capture (plan, trace) in one
    ChaosArtifact, replay from the artifact alone: identical injection
    log, identical schedule, identical result."""
    plan = FaultPlan.random(
        4321, N_TASKS,
        n_faults=8,
        sites=WORKLOAD_SITES[workload],
        max_nth=6,
        max_delay=0.002,
        crash_rate=0.0,
    )
    rt1 = make_runtime(plan, backend="coop", schedule="random:77")
    result1 = run_workload(workload, rt1)
    path = tmp_path / "chaos_artifact.json"
    ChaosArtifact.from_runtime(rt1, workload=workload).dump(path)

    art = ChaosArtifact.load(path)
    assert art.backend == "coop" and art.n_tasks == N_TASKS
    assert art.meta["workload"] == workload
    rt2 = make_runtime(art.plan, backend="coop",
                       schedule=art.replay_schedule())
    result2 = run_workload(workload, rt2)
    assert rt2.faults.sorted_log() == rt1.faults.sorted_log()
    assert rt2.schedule_trace().events == rt1.schedule_trace().events
    assert canonical(workload, result2) == canonical(workload, result1)


def test_chaos_crash_artifact_replays_the_crash(tmp_path):
    """A *failing* chaos run replays to the identical failure from its
    artifact -- the acceptance-criterion loop."""
    plan = FaultPlan.single("p2p.post", "crash", task=2, nth=2)
    rt1 = make_runtime(plan, backend="coop", schedule="random:13")
    with pytest.raises(InjectedCrash):
        run_workload("p2p", rt1)
    path = tmp_path / "chaos_artifact.json"
    ChaosArtifact.from_runtime(rt1, workload="p2p").dump(path)

    art = ChaosArtifact.load(path)
    rt2 = make_runtime(art.plan, backend="coop",
                       schedule=art.replay_schedule())
    with pytest.raises(InjectedCrash):
        run_workload("p2p", rt2)
    assert rt2.faults.sorted_log() == rt1.faults.sorted_log()
    # the replay schedule follows the recording up to the abort point
    # (post-abort draining is unrecorded on both sides)
    n = len(rt2.schedule_trace().events)
    assert rt1.schedule_trace().events[:n] == rt2.schedule_trace().events


# ------------------------------------------- storage checkpoint/restart
# The durability contract under chaos: a crash at ANY storage or RMA
# fault site leaves the store manifest at the last completed fence
# epoch, and restore_storage() + resume-from-epoch lands bit-for-bit on
# the uninterrupted result.  A violated restore dumps the manifest as
# ``storage_failmanifest_<site>.json`` (a CI artifact).

S_COUNT = 32
S_CHUNK = 8
S_ITERS = 4


def s_payload(it, rank):
    return np.arange(S_COUNT, dtype=float) * (it + 1) + rank * 100


def wl_storage(store, start, iters):
    """Fenced accumulate chain on a storage window: every iteration is
    one checkpoint, so ``start`` can be ``store.epoch`` on a restart."""
    def main(ctx):
        win = Win.allocate_storage(ctx.comm_world, S_COUNT, store=store,
                                   name="w", chunk_elems=S_CHUNK)
        rank, size = ctx.rank, ctx.size
        win.fence()
        for it in range(start, iters):
            win.accumulate(s_payload(it, rank), (rank + 1) % size, op=SUM)
            win.fence()
        final = win.get(rank)
        win.fence_end()
        win.free()
        return [float(x) for x in final]
    return main


def s_expected(rank):
    left = (rank - 1) % N_TASKS
    acc = np.zeros(S_COUNT)
    for it in range(S_ITERS):
        acc += s_payload(it, left)
    return [float(x) for x in acc]


def check_restored(site, store, results):
    """Bit-equality of the restored run; manifest artifact on failure."""
    expected = [s_expected(r) for r in range(N_TASKS)]
    if results == expected:
        return
    path = f"storage_failmanifest_{site.replace('.', '_')}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(store.manifest_json())
    pytest.fail(
        f"restore after a crash at {site} diverged -- "
        f"manifest saved to {path}"
    )


#: (site, victim task) -- flush/commit runs on rank 0 only
STORAGE_CRASH_SITES = [
    ("storage.read", 3),
    ("storage.write", 3),
    ("storage.flush", 0),
    ("rma.put", 3),       # accumulate on the storage window
    ("rma.get", 3),       # the final read-back
    ("rma.epoch", 3),     # the fence/checkpoint boundary itself
]


@pytest.mark.parametrize(
    "site,victim", STORAGE_CRASH_SITES, ids=[s for s, _ in STORAGE_CRASH_SITES])
def test_crash_then_restore_storage_is_bit_equal(site, victim, tmp_path):
    """Crash mid-loop at each storage/RMA site, reopen the manifest,
    resume from the last fence epoch: final state equals the
    uninterrupted run's, bit for bit."""
    root = tmp_path / "store"

    # phase 1: two clean fenced iterations, committed (pre-populates the
    # store so chunk *reads* fire from the first access of phase 2)
    store0 = ChunkStore.create(root)
    make_runtime().run(wl_storage(store0, 0, 2))
    assert store0.epoch == 2

    # phase 2: resume under a crash plan -- dies somewhere in [2, 4)
    plan = FaultPlan.single(site, "crash", task=victim, nth=1)
    rt1 = make_runtime(plan)
    store1 = rt1.restore_storage(root)
    with pytest.raises(InjectedCrash):
        rt1.run(wl_storage(store1, store1.epoch, S_ITERS))
    assert rt1.metrics("faults").fired.get("crash") == 1

    # phase 3: restore from whatever the crash left behind and finish
    rt2 = make_runtime()
    store2 = rt2.restore_storage(root)
    assert 2 <= store2.epoch <= S_ITERS, (
        "a crash must never roll a committed epoch back"
    )
    results = rt2.run(wl_storage(store2, store2.epoch, S_ITERS))
    check_restored(site, store2, results)
    assert rt2.finalize().by_kind().get("storage", 0) == 0


def test_storage_crash_artifact_replays_and_restores(tmp_path):
    """The coop-era loop for storage: a failing run is captured as ONE
    (plan, schedule) artifact, replays to the identical crash, and the
    store it leaves behind restores bit-for-bit."""
    root = tmp_path / "store"
    plan = FaultPlan.single("storage.write", "crash", task=3, nth=2)
    rt1 = make_runtime(plan, backend="coop", schedule="random:13")
    store1 = ChunkStore.create(root)
    with pytest.raises(InjectedCrash):
        rt1.run(wl_storage(store1, 0, S_ITERS))
    path = tmp_path / "chaos_artifact.json"
    ChaosArtifact.from_runtime(rt1, workload="storage").dump(path)

    # replay the artifact against a FRESH store: identical injection log
    art = ChaosArtifact.load(path)
    rt2 = make_runtime(art.plan, backend="coop",
                       schedule=art.replay_schedule())
    store2 = ChunkStore.create(tmp_path / "replay")
    with pytest.raises(InjectedCrash):
        rt2.run(wl_storage(store2, 0, S_ITERS))
    assert rt2.faults.sorted_log() == rt1.faults.sorted_log()

    # and the original crash's store restores to the full result
    rt3 = make_runtime()
    store3 = rt3.restore_storage(root)
    results = rt3.run(wl_storage(store3, store3.epoch, S_ITERS))
    check_restored("storage.write", store3, results)


@pytest.mark.parametrize("seed", range(min(N_SEEDS, 8)))
def test_storage_chaos_sweep_random_plans(seed):
    """Seeded random fault plans over the storage sites: liveness (clean
    result or clean MPIError, never a hang) on the paging hot path."""
    plan = FaultPlan.random(
        seed, N_TASKS,
        n_faults=6,
        sites=("storage.read", "storage.write", "storage.flush",
               "rma.put", "rma.epoch"),
        max_nth=6,
        max_delay=0.005,
    )
    rt = make_runtime(plan)
    root = tempfile.mkdtemp(prefix="repro-chaos-storage-")
    try:
        store = ChunkStore.create(root)
        try:
            rt.run(wl_storage(store, 0, S_ITERS))
            ok = True
        except MPIError:
            ok = True
        except Exception:
            ok = False
        check_clean("storage", plan, ok)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------- hypothesis property
@settings(max_examples=20, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=N_TASKS - 1),
    step=st.integers(min_value=1, max_value=4),
)
def test_crash_at_step_n_during_hierarchical_reduce(victim, step):
    """Property: crashing any task at any sweep step of a hierarchical
    reduce chain leaves no task blocked, and the chaos stats are
    consistent with exactly one injected crash."""
    plan = FaultPlan.single("coll.sweep", "crash", task=victim, nth=step)
    rt = make_runtime(plan, algorithm="hierarchical")

    def chain(ctx):
        acc = ctx.rank
        for _ in range(4):
            acc = ctx.comm_world.allreduce(acc, op=SUM)
        return acc

    with pytest.raises(InjectedCrash):
        rt.run(chain)
    # run() joined all threads: nobody is blocked.  Stats consistency:
    m = rt.metrics("faults")
    assert m.fired == {"crash": 1}
    assert m.hits >= step            # the victim reached its window
    assert m.aborts_propagated >= 1
    assert m.recovery_latency_s is not None and m.recovery_latency_s < TIMEOUT
