"""Unit tests for the job service: spec (de)serialisation, the app
registry, admission control (reject / bounded FIFO queue /
backpressure), machine-checkable leak enforcement at teardown, the
concurrent-finalize regression, and per-runtime fault-injector
rebinding."""

from __future__ import annotations

import threading

import pytest

from repro.faults import FaultPlan
from repro.memory.registry import BaseAddressRegistry
from repro.runtime import Runtime
from repro.runtime.errors import InjectedCrash, MPIError
from repro.service import (
    DEFAULT_APPS,
    AdmissionError,
    AppEntry,
    AppRegistry,
    Job,
    JobLeakError,
    JobManager,
    JobSpec,
    QueueFullError,
    UnknownAppError,
)


# --------------------------------------------------------------------- spec
class TestJobSpec:
    def test_round_trip_json(self):
        spec = JobSpec(app="ring", n_tasks=4, params={"seed": 7},
                       preset="small", sharing="shared", backend="coop",
                       footprint_bytes=1 << 20, timeout=12.0)
        again = JobSpec.from_json(spec.to_json())
        assert again == spec

    def test_round_trip_with_fault_plan(self):
        plan = FaultPlan.single("p2p.post", "crash", task=0, nth=1)
        spec = JobSpec(app="ring", fault_plan=plan)
        again = JobSpec.from_json(spec.to_json())
        assert again.fault_plan is not None
        assert again.fault_plan.to_dict() == plan.to_dict()

    def test_canonical_json_is_deterministic(self):
        a = JobSpec(app="ring", params={"b": 1, "a": 2})
        b = JobSpec(app="ring", params={"b": 1, "a": 2})
        assert a.to_json() == b.to_json()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({"app": "ring", "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(app="")
        with pytest.raises(ValueError):
            JobSpec(app="ring", n_tasks=0)
        with pytest.raises(ValueError):
            JobSpec(app="ring", footprint_bytes=-1)

    def test_machine_presets(self):
        assert JobSpec(app="ring", n_tasks=3).machine_for().n_pus == 3
        assert JobSpec(app="ring", n_tasks=4,
                       preset="flat:2").machine_for().n_nodes == 2
        assert JobSpec(app="ring", preset="small").machine_for().n_pus > 0
        assert JobSpec(app="ring", preset="nehalem:8").machine_for().n_pus > 0
        with pytest.raises(MPIError, match="unknown machine preset"):
            JobSpec(app="ring", preset="warehouse").machine_for()


# ------------------------------------------------------------- app registry
class TestAppRegistry:
    def test_default_registry_has_kernels_and_paper_apps(self):
        names = DEFAULT_APPS.names()
        for kernel in ("ring", "allreduce", "hls_table", "alloc_churn",
                       "hog", "sleepy"):
            assert kernel in names
        for driver in ("mesh_update", "matmul", "eulermhd", "gadget",
                       "tachyon"):
            assert driver in names

    def test_unknown_app(self):
        with pytest.raises(UnknownAppError, match="registered:"):
            DEFAULT_APPS.get("not-an-app")

    def test_duplicate_registration_rejected(self):
        reg = AppRegistry()
        reg.register(AppEntry(name="x", kind="task", factory=lambda rt: None))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(AppEntry(name="x", kind="task",
                                  factory=lambda rt: None))

    def test_kind_validation(self):
        reg = AppRegistry()
        with pytest.raises(ValueError, match="unknown app kind"):
            reg.register(AppEntry(name="x", kind="magic"))
        with pytest.raises(ValueError, match="need a factory"):
            reg.register(AppEntry(name="x", kind="task"))
        with pytest.raises(ValueError, match="driver and config_cls"):
            reg.register(AppEntry(name="x", kind="driver"))

    def test_describe_is_json_ready(self):
        desc = DEFAULT_APPS.describe()
        assert desc["ring"]["kind"] == "task"
        assert desc["matmul"]["kind"] == "driver"


# --------------------------------------------------------------- admission
MB = 1 << 20


class TestAdmissionControl:
    def test_never_fits_rejected_at_submit(self):
        with JobManager(capacity_bytes=4 * MB) as jm:
            with pytest.raises(AdmissionError, match="can never be admitted"):
                jm.submit(JobSpec(app="ring", footprint_bytes=5 * MB))
            assert jm.jobs() == []          # no ghost job recorded

    def test_unknown_app_fails_fast(self):
        with JobManager() as jm:
            with pytest.raises(UnknownAppError):
                jm.submit(JobSpec(app="not-an-app"))
            assert jm.jobs() == []

    def test_queue_full_backpressure(self):
        gate = threading.Event()
        with JobManager(capacity_bytes=4 * MB, queue_limit=1,
                        max_workers=1,
                        on_start=lambda job: gate.wait(30.0)) as jm:
            spec = JobSpec(app="ring", footprint_bytes=3 * MB)
            first = jm.submit(spec)          # admitted, blocks in on_start
            second = jm.submit(spec)         # does not fit -> queued
            assert second.state == "queued"
            with pytest.raises(QueueFullError, match="retry later"):
                jm.submit(spec)              # bounded queue is full
            gate.set()
            jm.drain(timeout=30.0)
            assert first.state == "completed"
            assert second.state == "completed"

    def test_fifo_no_overtaking(self):
        """A small late arrival must not overtake a large queued job,
        even when the small one would fit immediately."""
        gate = threading.Event()
        order = []
        lock = threading.Lock()

        def on_start(job: Job) -> None:
            gate.wait(30.0)
            with lock:
                order.append(job.id)

        with JobManager(capacity_bytes=10 * MB, queue_limit=8,
                        max_workers=1, on_start=on_start) as jm:
            hog = jm.submit(JobSpec(app="ring", footprint_bytes=8 * MB))
            big = jm.submit(JobSpec(app="ring", footprint_bytes=8 * MB))
            small = jm.submit(JobSpec(app="ring", footprint_bytes=1 * MB))
            assert big.state == "queued"
            assert small.state == "queued"   # behind big despite fitting
            gate.set()
            jm.drain(timeout=30.0)
            assert order == [hog.id, big.id, small.id]

    def test_queue_drains_as_capacity_frees(self):
        with JobManager(capacity_bytes=4 * MB, max_workers=2) as jm:
            jobs = [jm.submit(JobSpec(app="ring", n_tasks=2,
                                      footprint_bytes=3 * MB))
                    for _ in range(4)]
            jm.drain(timeout=60.0)
            assert all(j.state == "completed" for j in jobs)
            sm = jm.service_metrics()
            assert sm["states"] == {"completed": 4}
            assert sm["committed_bytes"] == 0
            assert sm["queue_depth"] == 0

    def test_submit_after_shutdown_rejected(self):
        jm = JobManager()
        jm.shutdown()
        with pytest.raises(AdmissionError, match="shutting down"):
            jm.submit(JobSpec(app="ring"))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JobManager(queue_limit=-1)
        with pytest.raises(ValueError):
            JobManager(max_workers=0)


# ------------------------------------------------------------ job lifecycle
class TestJobLifecycle:
    def test_ring_completes_with_metrics(self):
        with JobManager() as jm:
            job = jm.wait(jm.submit(JobSpec(app="ring", n_tasks=4)),
                          timeout=30.0)
            assert job.state == "completed"
            assert len(job.results) == 4
            assert job.leak_bytes == 0
            assert tuple(sorted(job.metrics)) == (
                "collectives", "faults", "loadbalance", "memory", "p2p",
                "rma", "sched", "storage",
            )
            assert job.latency_s is not None and job.latency_s >= 0
            info = job.info()
            assert info["state"] == "completed"
            assert info["error"] is None

    def test_leak_enforced_as_job_failure(self):
        with JobManager() as jm:
            job = jm.wait(jm.submit(JobSpec(
                app="alloc_churn", n_tasks=2,
                params={"leak": True, "nbytes": 4096},
            )), timeout=30.0)
            assert job.state == "failed"
            assert isinstance(job.error, JobLeakError)
            assert job.leak_bytes == 2 * 4096       # one kept alloc per rank
            assert job.error.job_id == job.id

    def test_leak_enforcement_can_be_disabled(self):
        with JobManager(enforce_leaks=False) as jm:
            job = jm.wait(jm.submit(JobSpec(
                app="alloc_churn", n_tasks=2,
                params={"leak": True, "nbytes": 4096},
            )), timeout=30.0)
            assert job.state == "completed"
            assert job.leak_bytes == 2 * 4096       # still reported

    def test_injected_crash_recorded_not_masked_by_leaks(self):
        """A crashed job reports *its own* error; the teardown leak
        (the crash strands buffers) must not mask it."""
        plan = FaultPlan.single("p2p.post", "crash", task=0, nth=1)
        with JobManager() as jm:
            job = jm.wait(jm.submit(JobSpec(app="ring", n_tasks=4,
                                            fault_plan=plan)),
                          timeout=30.0)
            assert job.state == "failed"
            assert isinstance(job.error, InjectedCrash)
            assert job.metrics is not None          # best-effort snapshot

    def test_on_start_hook_failure_fails_the_job(self):
        def bad_hook(job: Job) -> None:
            raise RuntimeError("hook bug")

        with JobManager(on_start=bad_hook) as jm:
            job = jm.wait(jm.submit(JobSpec(app="ring")), timeout=30.0)
            assert job.state == "failed"
            assert isinstance(job.error, RuntimeError)

    def test_hls_table_job_is_leak_free(self):
        with JobManager() as jm:
            job = jm.wait(jm.submit(JobSpec(app="hls_table", n_tasks=4,
                                            sharing="shared")),
                          timeout=30.0)
            assert job.state == "completed"
            assert job.leak_bytes == 0
            assert len(set(job.results)) == 1       # one shared checksum

    def test_service_metrics_shape(self):
        with JobManager() as jm:
            jm.wait(jm.submit(JobSpec(app="ring")), timeout=30.0)
            sm = jm.service_metrics()
            assert sm["jobs"] == 1
            assert sm["peak_running"] >= 1
            assert set(sm["latency_s"]) == {"p50", "p95", "max"}
            assert set(sm["queue_wait_s"]) == {"p50", "p95", "max"}


# ------------------------------------------- concurrent finalize regression
class _CountingSpace:
    """Stand-in address space recording every free()."""

    def __init__(self) -> None:
        self.freed = []
        self._lock = threading.Lock()

    def free(self, alloc) -> None:
        with self._lock:
            self.freed.append(alloc)


class TestConcurrentFinalize:
    def test_concurrent_finalize_releases_each_alloc_once(self):
        """Regression: finalize() used check-then-act on _finalized, so
        two racing callers could both walk _pool_allocs and double-free
        the comm pools.  The list hand-off under _final_lock makes the
        release exactly-once."""
        for _ in range(20):
            rt = Runtime(n_tasks=2, timeout=10.0)
            space = _CountingSpace()
            allocs = [object() for _ in range(8)]
            with rt._final_lock:
                rt._pool_allocs.extend((space, a) for a in allocs)
            barrier = threading.Barrier(4)
            errors = []

            def race():
                try:
                    barrier.wait(10.0)
                    rt.finalize()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=race) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert errors == []
            assert sorted(map(id, space.freed)) == sorted(map(id, allocs))
            assert rt.finalized

    def test_finalize_is_idempotent(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        rt.run(lambda ctx: ctx.comm_world.barrier())
        first = rt.finalize()
        second = rt.finalize()
        assert first.total_bytes == 0
        assert second.total_bytes == 0


# -------------------------------------------------- injector per-runtime
class TestInjectorRebinding:
    def test_injector_bound_elsewhere_is_not_shared(self):
        """An injector already executing against runtime A carries A's
        hit counters; installing it on runtime B must derive a fresh
        injector from the same plan, not steal the counters."""
        plan = FaultPlan.single("p2p.post", "crash", task=0, nth=100)
        rt_a = Runtime(n_tasks=2, timeout=10.0)
        rt_b = Runtime(n_tasks=2, timeout=10.0)
        inj_a = rt_a.install_faults(plan)
        assert inj_a.runtime is rt_a
        inj_b = rt_b.install_faults(inj_a)
        assert inj_b is not inj_a
        assert inj_b.runtime is rt_b
        assert inj_b.plan is inj_a.plan
        assert inj_a.runtime is rt_a            # A keeps its binding
        # counters are independent
        inj_a.hit("p2p.post", 0)
        assert inj_a.snapshot()["hits"] == 1
        assert inj_b.snapshot()["hits"] == 0
        rt_a.finalize()
        rt_b.finalize()

    def test_unbound_injector_adopted_in_place(self):
        from repro.faults import FaultInjector

        plan = FaultPlan.single("p2p.post", "delay", task=0, nth=100,
                                param=0.0)
        loose = FaultInjector(plan)
        rt = Runtime(n_tasks=2, timeout=10.0)
        installed = rt.install_faults(loose)
        assert installed is loose
        assert loose.runtime is rt
        rt.finalize()

    def test_per_runtime_hit_counters_in_metrics(self):
        plan = FaultPlan.single("p2p.post", "delay", task=0, nth=1,
                                param=0.0)
        reg = BaseAddressRegistry()
        rt_a = Runtime(n_tasks=2, timeout=10.0, faults=plan, registry=reg)
        rt_b = Runtime(n_tasks=2, timeout=10.0, faults=plan, registry=reg)

        def send_once(ctx):
            comm = ctx.comm_world
            comm.send(b"x", (ctx.rank + 1) % comm.size, tag=0)
            comm.recv(source=(ctx.rank - 1) % comm.size, tag=0)

        rt_a.run(send_once)
        a = rt_a.metrics("faults").snapshot()
        b = rt_b.metrics("faults").snapshot()
        assert a["injections"] == 1
        assert b["injections"] == 0             # B never perturbed
        rt_a.finalize()
        rt_b.finalize()


class TestSpecRejectsBadRuntimeFields:
    """A spec whose runtime fields the runtime would refuse is refused
    when it is built, before it can hold a worker slot."""

    @pytest.mark.parametrize("fields, match", [
        ({"backend": "bogus"}, "unknown execution backend"),
        ({"sharing": "weird"}, "unknown sharing policy"),
        ({"schedule": "random:1"}, "need backend='coop'"),
        ({"preset": "nope"}, "unknown machine preset"),
        ({"algorithm": "tree"}, "unknown collective algorithm"),
        ({"backend": "coop", "schedule": "zigzag"},
         "unknown schedule policy"),
    ])
    def test_constructor_raises(self, fields, match):
        with pytest.raises(MPIError, match=match):
            JobSpec(app="ring", **fields)

    def test_valid_runtime_fields_accepted(self):
        for fields in ({"backend": "coop", "schedule": "random:1"},
                       {"algorithm": "flat", "sharing": "shared"},
                       {"preset": "flat:2"}, {"preset": "nehalem:8"},
                       {"preset": ""}, {"preset": "small"}):
            JobSpec(app="ring", **fields)
