"""The multi-tenant job manager.

One :class:`JobManager` runs many :class:`~repro.runtime.runtime.
Runtime` instances concurrently in one process -- the long-running
service the ROADMAP's "millions of users" item asks for.  Its
responsibilities, in lifecycle order:

**Admission control.**  Every job declares a resource footprint
(:attr:`JobSpec.footprint_bytes`).  The manager keeps a memory
*capacity*; a job whose footprint can never fit is rejected with
:class:`AdmissionError` at submit time, a job that would fit once
running jobs finish is parked in a bounded FIFO queue, and when the
queue is full the submit raises :class:`QueueFullError` -- explicit
backpressure, the client retries.  Queued jobs are admitted strictly in
FIFO order as capacity frees (no overtaking: a large queued job is not
starved by small late arrivals).

**Isolation.**  All managed runtimes draw their arena regions from one
shared :class:`~repro.memory.registry.BaseAddressRegistry`; each gets a
unique namespace, so every job's address regions are provably disjoint
from every other job's (the property the isolation suite checks).  A
job's crash (:class:`~repro.runtime.errors.InjectedCrash`), arena
exhaustion, or leak is recorded on *that* job and never propagates to
the manager or a sibling job.

**Teardown enforcement.**  Every managed runtime is finalized at job
end; a non-empty leak report fails the job with :class:`JobLeakError`
(when ``enforce_leaks``, the default) -- leak reports are
machine-checkable, not advisory.

**Observability.**  Per-job unified metrics snapshots
(``Runtime.metrics()``) are captured at completion and streamable live
while the job runs; :meth:`JobManager.service_metrics` aggregates
service-level counters (states, capacity, queue depth, latency
percentiles).  :mod:`repro.service.server` serves both over HTTP.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.memory.registry import BaseAddressRegistry
from repro.runtime.runtime import Runtime
from repro.service.apps import DEFAULT_APPS, AppRegistry
from repro.service.errors import (
    AdmissionError,
    JobLeakError,
    QueueFullError,
)
from repro.service.spec import JobSpec

#: terminal job states
DONE_STATES = ("completed", "failed", "rejected")


@dataclass
class Job:
    """One submitted job and everything the service learned about it."""

    id: int
    spec: JobSpec
    state: str = "queued"            # queued|admitted|running|completed|failed|rejected
    submitted_at: float = 0.0
    admitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    results: Optional[List[Any]] = None
    error: Optional[BaseException] = None
    #: the frozen unified snapshot as its canonical JSON: a finished job
    #: is kept for the service's lifetime, and the nested dicts cost
    #: about 2.6x the bytes of their text
    metrics_json: Optional[str] = None
    leak_bytes: int = 0
    runtime: Any = None              # live Runtime while running (task apps)
    done: threading.Event = field(default_factory=threading.Event)

    # ------------------------------------------------------------ derived
    @property
    def metrics(self) -> Optional[Dict[str, Dict]]:
        """The frozen unified metrics snapshot (None until the job's
        runtime finished)."""
        if self.metrics_json is None:
            return None
        return json.loads(self.metrics_json)

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-finish latency (the service-level number the load
        harness distributions are built from)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def run_s(self) -> Optional[float]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    def info(self) -> Dict[str, Any]:
        """JSON-ready job summary (the /jobs endpoint row)."""
        return {
            "id": self.id,
            "app": self.spec.app,
            "state": self.state,
            "n_tasks": self.spec.n_tasks,
            "backend": self.spec.backend,
            "sharing": self.spec.sharing,
            "footprint_bytes": self.spec.footprint_bytes,
            "queue_wait_s": self.queue_wait_s,
            "latency_s": self.latency_s,
            "run_s": self.run_s,
            "error": (
                f"{type(self.error).__name__}: {self.error}"
                if self.error is not None else None
            ),
            "leak_bytes": self.leak_bytes,
        }


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals))))
    return sorted_vals[idx]


class JobManager:
    """Runs many runtimes concurrently with admission control.

    Parameters
    ----------
    capacity_bytes:
        Memory capacity admission control checks declared footprints
        against (None: unbounded -- every job admits immediately).
    queue_limit:
        Bound of the FIFO admission queue; a submit past it raises
        :class:`QueueFullError` (backpressure).
    max_workers:
        OS threads executing admitted jobs.  Admission (memory) and
        execution (workers) are separate budgets: an admitted job may
        still wait briefly for a worker.
    registry:
        The shared base-address registry (one is created when omitted).
    apps:
        The app registry jobs resolve their names against.
    enforce_leaks:
        Fail jobs whose finalize leak report is non-empty.
    on_start:
        Test/telemetry hook, called in the worker thread right before a
        job's runtime starts executing (the load harness uses it to gate
        hundreds of jobs onto one start line).
    """

    def __init__(
        self,
        *,
        capacity_bytes: Optional[int] = None,
        queue_limit: int = 64,
        max_workers: int = 8,
        registry: Optional[BaseAddressRegistry] = None,
        apps: Optional[AppRegistry] = None,
        enforce_leaks: bool = True,
        on_start: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.queue_limit = queue_limit
        self.max_workers = max_workers
        self.registry = registry if registry is not None else BaseAddressRegistry()
        self.apps = apps if apps is not None else DEFAULT_APPS
        self.enforce_leaks = enforce_leaks
        self.on_start = on_start

        self._lock = threading.Lock()
        self._jobs: Dict[int, Job] = {}
        self._next_id = 0
        self._committed = 0              # admitted-but-unfinished footprints
        self._queue: Deque[Job] = deque()
        self._ready: Deque[Job] = deque()  # admitted, waiting for a worker
        self._work = threading.Condition(self._lock)
        #: notified when a job reaches a terminal state (drain waits on it)
        self._finished = threading.Condition(self._lock)
        self._workers: List[threading.Thread] = []
        self._running = 0
        self.peak_running = 0            # concurrency high-water mark
        self._shutdown = False
        self._started = False

    # ---------------------------------------------------------- lifecycle
    def _ensure_workers(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.max_workers):
            t = threading.Thread(
                target=self._worker, name=f"job-worker-{i}", daemon=True,
            )
            self._workers.append(t)
            t.start()

    def shutdown(self, *, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting jobs; optionally wait for in-flight jobs."""
        if wait:
            self.drain(timeout=timeout)
        with self._lock:
            self._shutdown = True
            self._work.notify_all()
        for t in self._workers:
            t.join(timeout=5.0)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ----------------------------------------------------------- admission
    def submit(self, spec: JobSpec) -> Job:
        """Submit one job: admit, queue, or raise.

        Raises :class:`AdmissionError` when the declared footprint can
        never fit the capacity, :class:`QueueFullError` when it would
        fit later but the bounded queue is full, and
        :class:`UnknownAppError` for an unregistered app name."""
        self.apps.get(spec.app)          # fail fast on unknown apps
        self._ensure_workers()
        with self._lock:
            if self._shutdown:
                raise AdmissionError("service is shutting down")
            cap = self.capacity_bytes
            if cap is not None and spec.footprint_bytes > cap:
                raise AdmissionError(
                    f"declared footprint {spec.footprint_bytes} exceeds "
                    f"service capacity {cap}; the job can never be admitted"
                )
            job = Job(id=self._next_id, spec=spec,
                      submitted_at=time.monotonic())
            self._next_id += 1
            self._jobs[job.id] = job
            # FIFO fairness: with anyone already queued, new arrivals
            # queue behind them even if they would fit right now.
            if not self._queue and self._fits_locked(spec.footprint_bytes):
                self._admit_locked(job)
            else:
                if len(self._queue) >= self.queue_limit:
                    del self._jobs[job.id]
                    raise QueueFullError(
                        f"admission queue full ({self.queue_limit} jobs); "
                        "retry later"
                    )
                self._queue.append(job)
            return job

    def _fits_locked(self, footprint: int) -> bool:
        cap = self.capacity_bytes
        return cap is None or self._committed + footprint <= cap

    def _admit_locked(self, job: Job) -> None:
        self._committed += job.spec.footprint_bytes
        job.state = "admitted"
        job.admitted_at = time.monotonic()
        self._ready.append(job)
        self._work.notify()

    def _release_locked(self, job: Job) -> None:
        """Return a finished job's footprint, drain the queue head(s)
        that now fit -- strictly FIFO -- and announce the finish."""
        self._running -= 1
        self._committed -= job.spec.footprint_bytes
        while self._queue and self._fits_locked(
            self._queue[0].spec.footprint_bytes
        ):
            self._admit_locked(self._queue.popleft())
        job.done.set()
        self._finished.notify_all()

    # ------------------------------------------------------------- workers
    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._shutdown:
                    self._work.wait(timeout=1.0)
                if self._shutdown and not self._ready:
                    return
                job = self._ready.popleft()
                self._running += 1
                self.peak_running = max(self.peak_running, self._running)
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._release_locked(job)

    def _execute(self, job: Job) -> None:
        """Run one admitted job to a terminal state.  Never raises: a
        job's failure is recorded on the job, not propagated -- one
        tenant's crash must not take the worker (or a sibling) down."""
        spec = job.spec
        entry = self.apps.get(spec.app)
        job.state = "running"
        job.started_at = time.monotonic()
        if self.on_start is not None:
            try:
                self.on_start(job)
            except Exception as exc:     # hook bugs fail the job, loudly
                job.state = "failed"
                job.error = exc
                job.finished_at = time.monotonic()
                return
        try:
            if entry.kind == "driver":
                cfg = entry.config_cls(**spec.params)
                job.results = [entry.driver(cfg)]
            else:
                rt = Runtime(
                    spec.machine_for(), n_tasks=spec.n_tasks,
                    faults=spec.fault_plan, registry=self.registry,
                    name=f"job{job.id}", **spec.options(),
                )
                job.runtime = rt
                run_error: Optional[BaseException] = None
                try:
                    main = entry.factory(rt, **spec.params)
                    job.results = rt.run(main)
                    # factories may attach a teardown (e.g. releasing
                    # HLS images) so the leak report comes back clean
                    cleanup = getattr(main, "cleanup", None)
                    if cleanup is not None:
                        cleanup()
                except BaseException as exc:  # noqa: BLE001 - recorded below
                    run_error = exc
                finally:
                    # even a crashed job gets its final metrics snapshot
                    # and its teardown enforced
                    try:
                        job.metrics_json = rt.metrics().to_json()
                    except Exception:   # pragma: no cover - best effort
                        pass
                    report = rt.finalize()
                    job.runtime = None
                    job.leak_bytes = report.total_bytes
                if run_error is not None:
                    raise run_error
                if report and self.enforce_leaks:
                    raise JobLeakError(job.id, report)
            job.state = "completed"
        except BaseException as exc:  # noqa: BLE001 - isolate the tenant
            job.state = "failed"
            job.error = exc
        finally:
            job.finished_at = time.monotonic()

    # ---------------------------------------------------------------- query
    def job(self, job_id: int) -> Job:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        with self._lock:
            out = list(self._jobs.values())
        if state is not None:
            out = [j for j in out if j.state == state]
        return out

    def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        if not job.done.wait(timeout):
            raise TimeoutError(f"job {job.id} still {job.state}")
        return job

    def drain(self, timeout: float = 120.0) -> None:
        """Wait for every submitted job to finish; raises TimeoutError
        once ``timeout`` passed with jobs still pending."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                pending = [
                    j for j in self._jobs.values()
                    if j.state not in DONE_STATES
                ]
                if not pending:
                    return
                left = deadline - time.monotonic()
                if left <= 0:
                    states = {}
                    for j in pending:
                        states[j.state] = states.get(j.state, 0) + 1
                    raise TimeoutError(f"drain timed out with {states}")
                self._finished.wait(timeout=left)

    def job_metrics(self, job_id: int) -> Optional[Dict[str, Dict]]:
        """The unified metrics snapshot of one job: the frozen
        completion snapshot for finished jobs, a live snapshot for a
        running task-app job, None before the runtime exists."""
        job = self.job(job_id)
        snap = job.metrics
        if snap is not None:
            return snap
        rt = job.runtime
        if rt is not None:
            return rt.metrics().snapshot()
        return None

    def service_metrics(self) -> Dict[str, Any]:
        """Aggregated service counters: per-state job tallies, memory
        commitment vs capacity, queue depth, concurrency high-water
        mark, and submit-to-finish latency percentiles."""
        with self._lock:
            jobs = list(self._jobs.values())
            committed = self._committed
            queued = len(self._queue)
            running = self._running
            peak = self.peak_running
        states: Dict[str, int] = {}
        latencies: List[float] = []
        waits: List[float] = []
        for j in jobs:
            states[j.state] = states.get(j.state, 0) + 1
            if j.latency_s is not None:
                latencies.append(j.latency_s)
            if j.queue_wait_s is not None:
                waits.append(j.queue_wait_s)
        latencies.sort()
        waits.sort()
        return {
            "jobs": len(jobs),
            "states": states,
            "committed_bytes": committed,
            "capacity_bytes": self.capacity_bytes,
            "queue_depth": queued,
            "queue_limit": self.queue_limit,
            "running": running,
            "peak_running": peak,
            "latency_s": {
                "p50": _percentile(latencies, 0.50),
                "p95": _percentile(latencies, 0.95),
                "max": latencies[-1] if latencies else 0.0,
            },
            "queue_wait_s": {
                "p50": _percentile(waits, 0.50),
                "p95": _percentile(waits, 0.95),
                "max": waits[-1] if waits else 0.0,
            },
        }


__all__ = ["DONE_STATES", "Job", "JobManager"]
