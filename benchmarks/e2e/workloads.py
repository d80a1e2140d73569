"""The seven workloads.

Each workload builds its inputs from ``--seed`` in :meth:`setup`, runs
one *rep* of its unit per :meth:`rep` call and checks every output of
the rep against an oracle; a unit whose output is wrong, or that raised
or timed out, counts all its ops as failed.  ``rep`` returns
``(ops, failed, digest)``; the digest folds every checked output, must
not change between reps, and is what ``reference.json`` pins for the
default seed.

Only surfaces ROADMAP keeps are used: ``Runtime`` with keywords,
``rt.metrics()``, the default matcher and collective algorithm.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import threading
import time
import traceback
import urllib.request
import zlib
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.experiments import (
    run_figure3,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from repro.machine import core2_cluster
from repro.runtime import SUM, Runtime, Win
from repro.service import DEFAULT_APPS, JobManager, JobSpec, ObservabilityServer
from repro.storage import ChunkStore

from . import phases as ph
from .spans import NullRecorder

NULL = NullRecorder()

#: deadlock watchdog handed to every Runtime: a stuck program fails its
#: unit after this many idle seconds instead of hanging the run
RUNTIME_TIMEOUT = 20.0
NPROC = os.cpu_count() or 1

Rep = Tuple[int, int, int, List[float]]   # ops, failed, digest, unit seconds


def crc(obj: Any, acc: int = 0) -> int:
    """Fold a JSON-able value into a crc32."""
    return zlib.crc32(json.dumps(obj, sort_keys=True).encode(), acc)


class Tally:
    """Ops, failed ops, output digest and seconds of one rep, unit by
    unit.  A unit's seconds run from the end of the check of the unit
    before it (or from the start of the rep) to the start of its own."""

    def __init__(self) -> None:
        self.ops = self.failed = self.digest = 0
        self.seconds: List[float] = []
        self.mark = perf_counter()

    def add(self, ops: int, ok: bool, outputs: Any,
            failed: Optional[int] = None) -> None:
        """One checked unit: all its ops fail together unless the unit
        can tell how many ``failed``; only outputs that passed their
        check enter the digest."""
        self.seconds.append(perf_counter() - self.mark)
        self.ops += ops
        self.failed += (0 if ok else ops) if failed is None else failed
        self.digest = crc(outputs if ok else False, self.digest)
        self.mark = perf_counter()       # the digest is not the unit's time

    def result(self) -> Rep:
        return self.ops, self.failed, self.digest, self.seconds


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix] = out.get(prefix, 0.0) + value


class Workload:
    """Shared plumbing: the runner lane, counters read from
    ``rt.metrics()`` on traced reps, and the unit bookkeeping."""

    name = ""

    def __init__(self, seed: int, out_dir: str, quick: bool) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.quick = quick
        self.retrace(NULL)
        #: counters summed over traced reps, keyed ``<subsystem>.<counter>``
        self.counters: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def begin_timed(self) -> None:
        """Called after the warm-up rep, before the first timed one."""

    def extras(self) -> Dict[str, float]:
        """Per-layer values the workload computes from its own outputs;
        read after the untraced reps."""
        return {}

    def diagnostics(self) -> Dict[str, float]:
        """Extra per-layer values measured once after the traced reps."""
        return {}

    def retrace(self, rec: Any) -> None:
        """Switch recorder (a run starts untraced; ``--trace 1`` turns
        the recorder on for its second half)."""
        self.rec = rec
        self.main = rec.lane("runner")

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """Diagnostics run with the recorder off, so they add neither
        spans nor counters to the layer sums."""
        rec = self.rec
        self.retrace(NULL)
        try:
            yield
        finally:
            self.retrace(rec)

    # ---------------------------------------------------------- helpers
    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def guarded(self, what: str, fn: Callable[[], bool]) -> bool:
        """Run one unit; an exception fails the unit, not the run."""
        try:
            return fn()
        except Exception:
            print(f"[{self.name}] {what} failed:", file=sys.stderr)
            traceback.print_exc()
            return False

    def run_program(
        self,
        phase: ph.Phase,
        *,
        machine: Any,
        backend: str = "threads",
        sharing: str = "private",
        build: Optional[Callable[[Any], None]] = None,
    ) -> bool:
        """One phase: fresh ``Runtime``, ``rt.run``, counters, finalize.
        Returns whether every rank returned what the oracle expects."""
        rec, main = self.rec, self.main
        with main.span(f"phase.{phase.name}"):
            rt = main("runtime.construct", Runtime, machine=machine,
                      n_tasks=phase.n_tasks, timeout=RUNTIME_TIMEOUT,
                      backend=backend, sharing=sharing)
            if build is not None:
                build(rt)
            if phase.prepare is not None:
                phase.prepare(rt)
            cause = main.here()
            bodies = [0.0] * phase.n_tasks

            def task_main(ctx):
                t = rec.lane(f"t{ctx.rank}", cause)
                t0 = perf_counter()
                try:
                    return t("task.body", phase.body, ctx, t)
                finally:
                    bodies[ctx.rank] = perf_counter() - t0

            t0 = perf_counter()
            ok = self.guarded(
                phase.name,
                lambda: ph.matches(phase, main("sched.run", rt.run, task_main)),
            )
            run_s = perf_counter() - t0
            if rec.on:
                snap = main("metrics.snapshot", lambda: rt.metrics().snapshot())
                for subsystem, values in snap.items():
                    _flatten(subsystem, values, self.counters)
                self.count("launch_s", run_s - max(bodies))
                if backend == "coop":
                    self.count("coop_run_s", run_s)
                for key, value in phase.notes.items():
                    self.count(key, value)
            if phase.cleanup is not None:
                phase.cleanup()
            leaks = main("runtime.finalize", rt.finalize)
            if rec.on:
                self.count("leak_bytes", leaks.total_bytes)
        return ok


# =================================================================== paper
class PaperTables(Workload):
    """Tables II-IV at 128/64/128 cores: the paper's headline user flow."""

    name = "paper_tables"

    def setup(self) -> None:
        q = self.quick
        s = self.seed
        self.tables = [
            ("apps.eulermhd", run_table2,
             dict(core_counts=(16 if q else 128,), seed=3 + s)),
            ("apps.gadget", run_table3,
             dict(core_counts=(16 if q else 64,), seed=11 + s)),
            ("apps.tachyon", run_table4,
             dict(core_counts=(16 if q else 128,), seed=5 + s)),
        ]
        #: modelled MB per node by variant, summed over the three tables
        self.node_mb: Dict[str, float] = {}

    def rep(self) -> Rep:
        tally = Tally()
        node_mb = {"MPC HLS": 0.0, "MPC": 0.0, "Open MPI": 0.0}
        for span, driver, kw in self.tables:
            rows: Dict[Tuple[int, str], Any] = {}

            def unit() -> bool:
                rows.update(self.main(span, driver, **kw).rows)
                by = {label: res for (_, label), res in rows.items()}
                sums = {res.checksum for res in by.values()}
                mem = [by[v].mem.avg_mb for v in ("MPC HLS", "MPC", "Open MPI")]
                return len(by) == 3 and len(sums) == 1 and mem[0] < mem[1] < mem[2]

            ok = self.guarded(span, unit)
            tally.add(3, ok, [[cores, label, res.checksum, res.mem.avg_mb]
                              for (cores, label), res in sorted(rows.items())])
            for (_, label), res in rows.items():
                node_mb[label] += res.mem.avg_mb
                if self.rec.on:
                    self.count("p2p.messages", res.comm.messages)
        self.node_mb = node_mb
        return tally.result()

    def extras(self) -> Dict[str, float]:
        return {
            "memory.node_mb.hls": self.node_mb["MPC HLS"],
            "memory.node_mb.mpc": self.node_mb["MPC"],
            "memory.node_mb.openmpi": self.node_mb["Open MPI"],
        }


class PaperCache(Workload):
    """Table I (small mesh, update) and Figure 3 (two sizes): the cache
    simulator does the work, the comm layers almost none -- the control
    workload on which runtime, storage and service changes predict no
    move."""

    name = "paper_cache"

    def setup(self) -> None:
        q = self.quick
        s = self.seed
        self.units = [
            ("memsim.table1", run_table1, 2,
             dict(sizes=("small",), updates=(True,), variants=("none", "numa"),
                  steps=1, read_cap=8 if q else 128, seed=12345 + s)),
            ("memsim.figure3", run_figure3, 8,
             dict(sizes=(8, 12) if q else (16, 32), tasks=16, updates=(True,),
                  steps=1, seed=7 + s)),
        ]

    def rep(self) -> Rep:
        tally = Tally()
        for span, driver, cells, kw in self.units:
            got: List[Any] = []

            def unit() -> bool:
                res = self.main(span, driver, **kw)
                if span == "memsim.table1":
                    eff = {k[0]: float(v) for k, v in res.measured.items()}
                    # private tables land at addresses that depend on thread
                    # timing, so "none" repeats to two digits only and stays
                    # out of the digest
                    got.append(eff["numa"])
                    # the paper's shape: sharing the table lifts efficiency
                    return len(eff) == 2 and 0 < eff["none"] < eff["numa"] <= 1.0
                series = {k[1]: [float(x) for x in v]
                          for k, v in res.series.items()}
                got.append(sorted(series.items()))
                return (len(series) == 4
                        and all(x > 0 for v in series.values() for x in v))

            tally.add(cells, self.guarded(span, unit), got)
        return tally.result()


# ==================================================================== comm
class CommThreads(Workload):
    """32 OS-thread tasks on 4 nodes, every phase once private and once
    shared: matcher, copy/elision, fold and lock costs dominate."""

    name = "comm_threads"
    N = 32

    def setup(self) -> None:
        s, n = self.seed, (8 if self.quick else self.N)
        r = 2 if self.quick else 1
        self.machine = core2_cluster(max(1, n // ph.NODE))
        self.phases = [
            ph.p2p(s, n, 40 // r, range(1, n)),
            ph.pingpong(s, 400 // r),
            ph.coll(s, n, 24 // r),
            ph.icoll(s, n, 6),
            ph.rma(s, n, 16 // r, 4, 8),
            ph.hls(s, n, 16 // r),
        ]

    def rep(self) -> Rep:
        tally = Tally()
        for sharing in ("private", "shared"):
            for phase in self.phases:
                ok = self.run_program(phase, machine=self.machine,
                                      sharing=sharing)
                tally.add(phase.ops, ok, [sharing, phase.name, phase.expected])
        return tally.result()


class CoopScale(Workload):
    """The same phase programs at 512 tasks on 64 nodes under the coop
    backend, plus two self-scheduled loops at 256 tasks: per-task
    bookkeeping and context switches dominate, payload work is
    negligible."""

    name = "coop_scale"
    N = 512
    N_LOOP = 256

    def setup(self) -> None:
        s, n = self.seed, (32 if self.quick else self.N)
        self.machine = core2_cluster(n // ph.NODE)
        shifts = [1 << i for i in range(n.bit_length() - 1)]
        self.comm_phases = [
            ph.p2p(s, n, 2, shifts),
            ph.coll(s, n, 1),
            ph.icoll(s, n, 1),
            ph.rma(s, n, 1, 1, 2),
            ph.hls(s, n, 1),
        ]
        m = n // 2 if self.quick else self.N_LOOP
        loop_machine = core2_cluster(m // ph.NODE)
        self.programs = [(p, self.machine)
                         for p in self.comm_phases + [ph.pingpong(s, 100)]]
        self.programs += [(ph.loop(s, m, policy, 16), loop_machine)
                          for policy in ("fixed:2", "guided")]

    def rep(self) -> Rep:
        tally = Tally()
        for phase, machine in self.programs:
            ok = self.run_program(phase, machine=machine, backend="coop")
            tally.add(phase.ops, ok,
                      [phase.name, phase.expected_total or phase.expected])
        return tally.result()

    def diagnostics(self) -> Dict[str, float]:
        """All comm phases in one ``rt.run``: bimodal and far above the
        sum of its parts on the seed, so reported and never gated."""
        parts = self.comm_phases
        n = parts[0].n_tasks

        def body(ctx, t):
            return [p.body(ctx, t) for p in parts]

        def prepare(rt):
            for p in parts:
                if p.prepare is not None:
                    p.prepare(rt)

        def cleanup():
            for p in parts:
                if p.cleanup is not None:
                    p.cleanup()

        mixed = ph.Phase(
            "mixed", n, body,
            [[p.expected[r] for p in parts] for r in range(n)],
            ops=0, prepare=prepare, cleanup=cleanup,
        )
        with self.untraced():
            t0 = perf_counter()
            ok = self.run_program(mixed, machine=self.machine, backend="coop")
            elapsed = perf_counter() - t0
        return {"sched.mixed_program_s": elapsed if ok else -1.0}


# ================================================================= storage
class OutOfCore(Workload):
    """4 tasks on one node share a 16 MiB storage-backed window, once
    with twice the room it needs (0.5x) and once with a quarter (4x).

    Chunks are 1 MiB, not the 64 KiB the layer defaults to: every chunk
    write creates a file, and ext4 on the sandbox skips recently deleted
    inodes when it allocates one, so the cost of a create grows 10x with
    the number of files deleted in the last minutes.  At 64 KiB that
    drift is as large as the chunk path itself; at 1 MiB it stays below
    a fifth of it."""

    N = 4
    COUNT = 1 << 19               # doubles per rank: 4 MiB
    CHUNK = 1 << 17               # 1 MiB
    RATIOS = (0.5, 4.0)
    rounds = 1

    def setup(self) -> None:
        if self.quick:
            self.COUNT, self.CHUNK = 1 << 12, 1 << 9
        self.machine = core2_cluster(1)
        rng = np.random.default_rng([self.seed, self.COUNT])
        self.data = rng.integers(0, 1000, size=(self.N, self.COUNT)).astype(np.float64)
        self.tmp = os.path.join(self.out_dir, f"tmp-{self.name}-{os.getpid()}")
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.n_stores = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def cap(self, ratio: float) -> Callable[[Any], None]:
        window_bytes = self.N * self.COUNT * 8
        return lambda rt: rt.memory.cap_node(0, int(window_bytes / ratio))

    def storage_win(self, t, comm, store, chunk: Optional[int] = None):
        return t("storage.allocate", Win.allocate_storage, comm, self.COUNT,
                 store=store, name="field", chunk_elems=chunk or self.CHUNK)


class OutOfCoreWrite(OutOfCore):
    """Ring ``put`` + ``accumulate`` with a fence (= durable commit)
    after each: chunk staging, dirty tracking, spill and commit."""

    name = "outofcore_write"
    #: the layer's own chunk size; only ``storage.overhead_x`` uses it
    LAYER_CHUNK = 1 << 13         # 64 KiB

    def program(self, chunk: int, store: Any = None) -> ph.Phase:
        """The same program on a storage window (``store`` given) and,
        as the oracle, on an in-memory one; the layer prefixes the spans."""
        data, n, rounds = self.data, self.N, self.rounds
        layer = "rma" if store is None else "storage"

        def body(ctx, t):
            r = ctx.rank
            if store is None:
                win = t("rma.allocate", Win.allocate, ctx.comm_world,
                        self.COUNT, chunk_elems=chunk)
            else:
                win = self.storage_win(t, ctx.comm_world, store, chunk)
            t(f"{layer}.fence", win.fence)
            for _ in range(rounds):
                t(f"{layer}.put", win.put, data[r], (r + 1) % n)
                t(f"{layer}.fence", win.fence)
                t(f"{layer}.accumulate", win.accumulate, data[r], (r + 2) % n, SUM)
                t(f"{layer}.fence", win.fence)
            out = t(f"{layer}.get", win.get, r)
            t(f"{layer}.fence", win.fence_end)
            t(f"{layer}.allocate", win.free)
            return t("app.compute", lambda: zlib.crc32(out.tobytes()))

        # segment q ends as data[q-1] (last put) + data[q-2] (accumulate)
        expected = [zlib.crc32((data[(r - 1) % n] + data[(r - 2) % n]).tobytes())
                    for r in range(n)]
        ops = n * rounds * 2 * (self.COUNT // chunk)
        return ph.Phase(f"{layer}_window", n, body, expected, ops=ops)

    def setup(self) -> None:
        super().setup()
        self.memory_program = self.program(self.CHUNK)
        if not self.run_program(self.memory_program, machine=self.machine):
            raise RuntimeError("in-memory window disagrees with the oracle")

    def storage_pass(self, ratio: float, chunk: Optional[int] = None) -> Tuple[bool, int]:
        self.n_stores += 1
        store = ChunkStore.create(os.path.join(self.tmp, f"s{self.n_stores}"))
        program = self.program(chunk or self.CHUNK, store)
        ok = self.run_program(program, machine=self.machine, build=self.cap(ratio))
        shutil.rmtree(store.root, ignore_errors=True)
        return ok, program.ops

    def rep(self) -> Rep:
        tally = Tally()
        for ratio in self.RATIOS:
            ok, n_ops = self.storage_pass(ratio)
            tally.add(n_ops, ok, [ratio, self.memory_program.expected])
        return tally.result()

    def diagnostics(self) -> Dict[str, float]:
        """A storage window with room to spare (0.5x, nothing spills)
        against the in-memory window, both at the layer's 64 KiB chunks,
        untraced, median of three."""
        chunk = min(self.LAYER_CHUNK, self.CHUNK)
        in_memory = self.program(chunk)
        mem_s, sto_s = [], []
        with self.untraced():
            for _ in range(3):
                t0 = perf_counter()
                self.run_program(in_memory, machine=self.machine)
                mem_s.append(perf_counter() - t0)
                t0 = perf_counter()
                self.storage_pass(self.RATIOS[0], chunk)
                sto_s.append(perf_counter() - t0)
        return {"storage.overhead_x": sorted(sto_s)[1] / sorted(mem_s)[1]}


class OutOfCoreRead(OutOfCore):
    """``get`` sweeps over every rank's segment of a window committed in
    set-up, reopened with ``restore_storage`` each pass: faults and
    chunk reads, beside the write workload on the same layer."""

    name = "outofcore_read"
    rounds = 4

    def setup(self) -> None:
        super().setup()
        self.root = os.path.join(self.tmp, "committed")
        store = ChunkStore.create(self.root)
        data, n = self.data, self.N

        def populate(ctx, t):
            win = self.storage_win(t, ctx.comm_world, store)
            win.fence()
            win.put(data[ctx.rank], ctx.rank)
            win.fence()
            win.fence_end()
            win.free()
            return 0

        fill = ph.Phase("populate", n, populate, [0] * n, ops=0)
        if not self.run_program(fill, machine=self.machine):
            raise RuntimeError("could not populate the storage window")
        sums = data.sum(axis=1)
        rounds = self.rounds
        slot: Dict[str, Any] = {}

        def body(ctx, t):
            r = ctx.rank
            win = self.storage_win(t, ctx.comm_world, slot["store"])
            t("storage.fence", win.fence)
            acc = 0.0
            seg = np.empty(self.COUNT)
            for _ in range(rounds):
                for q in range(n):
                    t("storage.get", win.get, (r + q) % n, buf=seg)
                    acc += (q + 1) * t("app.compute", lambda: float(seg.sum()))
                t("storage.fence", win.fence)
            t("storage.fence", win.fence_end)
            t("storage.allocate", win.free)
            return acc

        expected = [
            float(rounds * sum((q + 1) * sums[(r + q) % n] for q in range(n)))
            for r in range(n)
        ]
        self.slot = slot
        self.program = ph.Phase(
            "storage_read", n, body, expected,
            ops=n * rounds * n * (self.COUNT // self.CHUNK))

    def rep(self) -> Rep:
        tally = Tally()
        for ratio in self.RATIOS:
            def build(rt, ratio=ratio):
                self.cap(ratio)(rt)
                self.slot["store"] = self.main(
                    "storage.restore", rt.restore_storage, self.root)

            ok = self.run_program(self.program, machine=self.machine, build=build)
            tally.add(self.program.ops, ok, [ratio, self.program.expected])
        return tally.result()


# ================================================================= service
class ServiceMix(Workload):
    """One ``JobManager`` + HTTP endpoint, closed loop: ``nproc`` client
    threads each submit a job and wait for it before the next.  Runtime
    construction, admission, finalize/leak check and the metrics
    snapshot dominate; the job bodies are tiny."""

    name = "service_mix"
    JOBS = 600
    #: a rep is this many batches, each timed as one unit
    BATCHES = 4
    KINDS = (  # (share of ten, app, backend, n_tasks)
        (4, "ring", "coop", 2),
        (2, "ring", "threads", 8),
        (2, "allreduce", "coop", 8),
        (2, "hls_table", "coop", 8),
    )
    JOB_SEEDS = 4

    def setup(self) -> None:
        n_jobs = 24 if self.quick else self.JOBS
        rng = np.random.default_rng([self.seed, n_jobs])
        menu = [k[1:] for k in self.KINDS for _ in range(k[0])]
        self.mix: List[JobSpec] = []
        for pick, job_seed in zip(rng.integers(0, len(menu), n_jobs),
                                  rng.integers(0, self.JOB_SEEDS, n_jobs)):
            app, backend, n_tasks = menu[pick]
            self.mix.append(JobSpec(app=app, n_tasks=n_tasks, backend=backend,
                                    params={"seed": int(job_seed)},
                                    timeout=RUNTIME_TIMEOUT))
        self.solo = {}
        for spec in self.mix:
            key = spec.to_json()
            if key not in self.solo:
                self.solo[key] = self.run_solo(spec)
        self.manager = JobManager(max_workers=NPROC)
        self.server = ObservabilityServer(self.manager).start()
        self.n_clients = max(1, min(2, NPROC))
        #: submit->result seconds of every timed job
        self.latencies: List[float] = []

    def close(self) -> None:
        self.server.stop()
        self.manager.shutdown(wait=True, timeout=30.0)

    @staticmethod
    def run_solo(spec: JobSpec) -> List[Any]:
        """The same job outside the service: the baseline its result
        must equal."""
        rt = Runtime(machine=spec.machine_for(), n_tasks=spec.n_tasks,
                     timeout=spec.timeout, backend=spec.backend,
                     sharing=spec.sharing)
        main = DEFAULT_APPS.get(spec.app).factory(rt, **spec.params)
        results = rt.run(main)
        cleanup = getattr(main, "cleanup", None)
        if cleanup is not None:
            cleanup()
        rt.finalize()
        return results

    def begin_timed(self) -> None:
        self.latencies.clear()       # drop the warm-up rep's samples

    def extras(self) -> Dict[str, float]:
        lat = sorted(self.latencies)
        return {
            "service.job_p50_ms": 1e3 * lat[len(lat) // 2],
            "service.job_p99_ms": 1e3 * lat[int(0.99 * len(lat))],
            "service.latency_samples": float(len(lat)),
        }

    # one job in ten goes over HTTP
    def via_http(self, index: int) -> bool:
        return index % 10 == 9

    def http(self, t, name: str, path: str, body: Optional[bytes] = None) -> Any:
        def call():
            req = urllib.request.Request(self.server.url + path, data=body)
            with urllib.request.urlopen(req, timeout=RUNTIME_TIMEOUT) as resp:
                return json.loads(resp.read())
        return t(name, call)

    def one_job(self, t, index: int) -> bool:
        spec = self.mix[index]
        mgr = self.manager
        t0 = perf_counter()
        if self.via_http(index):
            job_id = self.http(t, "service.http_post", "/jobs",
                               spec.to_json().encode())["id"]
            deadline = t0 + 2 * RUNTIME_TIMEOUT
            while self.http(t, "service.http_get", f"/jobs/{job_id}")["state"] \
                    not in ("completed", "failed", "rejected"):
                if perf_counter() > deadline:
                    return False
                time.sleep(0.0005)
            job = mgr.job(job_id)
        else:
            job = t("service.submit", mgr.submit, spec)
            t("service.wait", mgr.wait, job, 2 * RUNTIME_TIMEOUT)
        self.latencies.append(perf_counter() - t0)
        if self.rec.on:
            self.count("service.queue_wait_s", job.queue_wait_s or 0.0)
            self.count("service.run_s", job.run_s or 0.0)
            self.count("service.wake_s",
                       (perf_counter() - t0) - (job.latency_s or 0.0))
        return (job.state == "completed"
                and list(job.results) == list(self.solo[spec.to_json()]))

    def run_batch(self, jobs: range, cause: Optional[str]) -> List[bool]:
        """The clients share ``jobs`` round robin; returns when the last
        one has its result."""
        ok = [False] * len(jobs)

        def client(c: int) -> None:
            t = self.rec.lane(f"client{c}", cause)

            def loop() -> None:
                for k in range(c, len(jobs), self.n_clients):
                    i = jobs[k]
                    ok[k] = self.guarded(f"job {i}", lambda: self.one_job(t, i))

            t("task.body", loop)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(self.n_clients)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return ok

    def rep(self) -> Rep:
        n = len(self.mix)
        cause = self.main.here()
        tally = Tally()
        for lo in range(0, n, n // self.BATCHES):
            jobs = range(lo, min(n, lo + n // self.BATCHES))
            ok = self.run_batch(jobs, cause)
            tally.add(len(jobs), all(ok),
                      [self.solo[self.mix[i].to_json()] for i in jobs],
                      failed=ok.count(False))
        if self.rec.on:
            sm = self.main("metrics.snapshot", self.manager.service_metrics)
            self.counters["service.rejected"] = sm["states"].get("rejected", 0)
        return tally.result()


WORKLOADS = {
    w.name: w for w in (
        PaperTables, PaperCache, CommThreads, CoopScale,
        OutOfCoreWrite, OutOfCoreRead, ServiceMix,
    )
}
