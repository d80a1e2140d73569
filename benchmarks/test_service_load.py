"""Heavy-traffic load harness for the multi-tenant job service.

The tenancy claim, made machine-checkable: **hundreds of coop-backend
jobs running concurrently in one process, where one tenant's injected
crash, deliberate leak, or address-space exhaustion never perturbs a
sibling's results or liveness**.

Shape of the main run (``REPRO_SERVICE_JOBS`` jobs, default 224; CI
runs a scaled-down smoke at 96):

* Every job's worker thread is gated on one ``threading.Barrier`` via
  the manager's ``on_start`` hook, so all jobs are *genuinely
  simultaneous* -- ``peak_running`` must equal the job count, and a
  coop runtime's virtual clock cannot fake the overlap.
* Clean ring jobs (both sharings) must return results **bit-identical**
  to a solo baseline run with nothing else in the process.
* Interleaved chaos tenants: fault-plan crash jobs
  (:class:`InjectedCrash`), deliberate leak jobs
  (:class:`JobLeakError` from the enforced finalize report), and arena
  hogs (:class:`AddressSpaceExhausted`).  Each must fail with exactly
  its own error -- and nothing else.
* Queue liveness after the storm: a job submitted once the burst
  drains must admit and complete immediately.

A second scenario forces admission queueing (capacity for only a few
footprints) and asserts FIFO drain under churn.
"""

import os
import threading

import pytest

from benchmarks.conftest import run_once
from repro.faults import FaultPlan
from repro.memsim.address_space import AddressSpaceExhausted
from repro.runtime.errors import InjectedCrash
from repro.service import JobLeakError, JobManager, JobSpec

MB = 1 << 20

#: total concurrent tenants of the main run (>= 200 is the acceptance
#: bar; CI sets a scaled-down smoke via the environment)
N_JOBS = int(os.environ.get("REPRO_SERVICE_JOBS", "224"))

#: chaos mix inside the burst
N_CRASH = max(2, N_JOBS // 20)
N_LEAK = max(2, N_JOBS // 40)
N_HOG = max(2, N_JOBS // 40)
N_CHAOS = N_CRASH + N_LEAK + N_HOG

RING_PARAMS = {"seed": 11, "elems": 64, "rounds": 2}


def _solo_baseline(sharing):
    """What a clean ring job returns with nothing else running."""
    with JobManager() as jm:
        job = jm.wait(jm.submit(JobSpec(
            app="ring", n_tasks=2, backend="coop", sharing=sharing,
            params=RING_PARAMS,
        )), timeout=60.0)
        assert job.state == "completed", job.error
        return job.results


def _chaos_specs():
    crash_plan = FaultPlan.single("p2p.post", "crash", task=0, nth=1)
    specs = []
    for _ in range(N_CRASH):
        specs.append(("crash", JobSpec(
            app="ring", n_tasks=2, backend="coop",
            fault_plan=crash_plan, params=RING_PARAMS,
            footprint_bytes=1 * MB,
        )))
    for _ in range(N_LEAK):
        specs.append(("leak", JobSpec(
            app="alloc_churn", n_tasks=2, backend="coop",
            params={"leak": True, "nbytes": 1 << 14},
            footprint_bytes=1 * MB,
        )))
    for _ in range(N_HOG):
        specs.append(("hog", JobSpec(
            app="hog", n_tasks=2, backend="coop",
            footprint_bytes=1 * MB,
        )))
    return specs


def _run_burst():
    """The main scenario; returns (manager metrics, isolation verdicts)."""
    baselines = {s: _solo_baseline(s) for s in ("private", "shared")}

    start_line = threading.Barrier(N_JOBS)

    def on_start(job):
        # every burst tenant reaches the line before any proceeds: the
        # burst is simultaneous by construction, not by luck (jobs
        # submitted after the burst -- the liveness probe -- skip it)
        if job.id < N_JOBS:
            start_line.wait(timeout=90.0)

    jm = JobManager(
        capacity_bytes=(N_JOBS + 8) * MB,
        queue_limit=N_JOBS,
        max_workers=N_JOBS,
        on_start=on_start,
    )
    clean, chaos = [], []
    chaos_specs = _chaos_specs()
    n_clean = N_JOBS - N_CHAOS
    ci = 0
    for i in range(N_JOBS):
        # interleave chaos tenants through the submission order
        if chaos_specs and i % (N_JOBS // N_CHAOS) == 1:
            kind, spec = chaos_specs.pop(0)
            chaos.append((kind, jm.submit(spec)))
        else:
            sharing = "private" if ci % 2 == 0 else "shared"
            ci += 1
            clean.append(jm.submit(JobSpec(
                app="ring", n_tasks=2, backend="coop", sharing=sharing,
                params=RING_PARAMS, footprint_bytes=1 * MB,
            )))
    while chaos_specs:           # any chaos not yet interleaved
        kind, spec = chaos_specs.pop(0)
        chaos.append((kind, jm.submit(spec)))
    assert len(clean) + len(chaos) == N_JOBS
    assert len(clean) >= 2 * (n_clean // 2)

    jm.drain(timeout=110.0)
    return jm, baselines, clean, chaos


class TestServiceLoad:
    def test_concurrent_burst_isolation(self, benchmark):
        jm, baselines, clean, chaos = run_once(benchmark, _run_burst)
        try:
            sm = jm.service_metrics()

            # the burst was genuinely simultaneous
            assert sm["peak_running"] == N_JOBS, sm

            # every clean tenant: completed, leak-free, unperturbed
            mismatches = 0
            for job in clean:
                assert job.state == "completed", (job.id, job.error)
                assert job.leak_bytes == 0
                if job.results != baselines[job.spec.sharing]:
                    mismatches += 1
                assert job.metrics["faults"]["injections"] == 0
            assert mismatches == 0        # bit-identical to solo runs

            # every chaos tenant: failed with exactly its own error
            for kind, job in chaos:
                assert job.state == "failed", (kind, job.id)
                if kind == "crash":
                    assert isinstance(job.error, InjectedCrash), job.error
                elif kind == "leak":
                    assert isinstance(job.error, JobLeakError), job.error
                    assert job.leak_bytes > 0
                elif kind == "hog":
                    assert isinstance(job.error, AddressSpaceExhausted), \
                        job.error

            # queue liveness after the storm
            late = jm.wait(jm.submit(JobSpec(
                app="ring", n_tasks=2, backend="coop",
                params=RING_PARAMS, footprint_bytes=1 * MB,
            )), timeout=60.0)
            assert late.state == "completed"
            assert late.results == baselines["private"]

            sm = jm.service_metrics()
            assert sm["states"]["completed"] == len(clean) + 1
            assert sm["states"]["failed"] == len(chaos)
            assert sm["committed_bytes"] == 0
            assert sm["queue_depth"] == 0

            benchmark.extra_info["n_jobs"] = N_JOBS
            benchmark.extra_info["peak_running"] = sm["peak_running"]
            benchmark.extra_info["latency_p95_s"] = sm["latency_s"]["p95"]
        finally:
            jm.shutdown(wait=False)


def _run_queued_wave(n_jobs, capacity_slots):
    """Admission-queue churn: capacity for only a few footprints, so
    most of the wave queues and drains strictly FIFO."""
    jm = JobManager(
        capacity_bytes=capacity_slots * MB,
        queue_limit=n_jobs,
        max_workers=capacity_slots,
    )
    jobs = [jm.submit(JobSpec(
        app="ring", n_tasks=2, backend="coop",
        sharing="private" if i % 2 == 0 else "shared",
        params=RING_PARAMS, footprint_bytes=1 * MB,
    )) for i in range(n_jobs)]
    jm.drain(timeout=110.0)
    return jm, jobs


class TestAdmissionQueueUnderLoad:
    def test_queued_wave_drains_fifo(self, benchmark):
        n_jobs, slots = max(32, N_JOBS // 4), 8
        jm, jobs = run_once(benchmark, _run_queued_wave, n_jobs, slots)
        try:
            assert all(j.state == "completed" for j in jobs)
            # FIFO: admission order is submission order
            admitted = sorted(jobs, key=lambda j: j.admitted_at)
            assert [j.id for j in admitted] == [j.id for j in jobs]
            sm = jm.service_metrics()
            assert sm["peak_running"] <= slots
            assert sm["queue_wait_s"]["max"] > 0.0   # queueing happened
        finally:
            jm.shutdown(wait=False)
