"""Per-layer metrics of one traced run.

Seconds are span self time summed over lanes and divided by the traced
reps (task-seconds per rep); counts come from ``rt.metrics()`` /
``service_metrics()`` snapshots taken on the traced reps, also per rep.
A metric whose layer the workload does not exercise reads 0.
BENCHMARK.json declares the names, units and directions; ``--quick``
checks this module emits exactly that set.
"""

from __future__ import annotations

from typing import Any, Dict

from .spans import Recorder


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(
    workload: Any,
    rec: Recorder,
    reps: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    self_s, count, total_s = rec.self_times()
    c = workload.counters

    def S(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / reps

    def N(*names: str) -> float:
        return sum(count.get(n, 0) for n in names) / reps

    def C(key: str) -> float:
        return c.get(key, 0.0) / reps

    coll_calls = N("collectives.allreduce", "collectives.bcast",
                   "collectives.barrier")
    icoll_calls = N("icoll.start")
    icoll_episodes = sum(v for k, v in c.items()
                         if k.startswith("collectives.icoll_episodes."))
    overlap = S("app.overlap")
    # what a lane did not attribute to any layer is the self time of its
    # outermost span: the task body, or the rep where nothing runs tasks
    root = "task.body" if "task.body" in total_s else "rep"

    values = {
        "message.msgs": C("p2p.messages"),
        "message.send_s": S("message.send"),
        "message.recv_wait_s": S("message.recv", "message.wait", "message.irecv"),
        "message.pingpong_rtt_us":
            1e6 * _ratio(c.get("pingpong_s", 0.0), c.get("pingpong_trips", 0.0)),
        "message.match_steps_per_msg":
            _ratio(c.get("p2p.comparisons", 0.0), c.get("p2p.delivered", 0.0)),
        "message.elided_ratio":
            _ratio(c.get("p2p.elided", 0.0), c.get("p2p.messages", 0.0)),
        "message.copied_bytes": C("p2p.bytes") - C("p2p.elided_bytes"),

        "collectives.calls": coll_calls,
        "collectives.allreduce_s": S("collectives.allreduce"),
        "collectives.bcast_s": S("collectives.bcast"),
        "collectives.barrier_s": S("collectives.barrier"),
        "collectives.clones_per_call":
            _ratio(C("collectives.clones"), coll_calls + icoll_calls),

        "icoll.calls": icoll_calls,
        "icoll.start_s": S("icoll.start"),
        "icoll.wait_s": S("icoll.wait"),
        "icoll.overlap_ratio":
            _ratio(overlap, overlap + S("icoll.start", "icoll.wait")),
        "icoll.cells_per_call":
            _ratio(c.get("collectives.icoll_cells", 0.0), icoll_episodes),

        "rma.ops": C("rma.ops"),
        "rma.put_s": S("rma.put"),
        "rma.get_s": S("rma.get"),
        "rma.accumulate_s": S("rma.accumulate"),
        "rma.fence_s": S("rma.fence"),
        "rma.lock_s": S("rma.lock"),
        "rma.atomic_s": S("rma.atomic"),
        "rma.zero_copy_ratio":
            _ratio(c.get("rma.zero_copy_hits", 0.0), c.get("rma.ops", 0.0)),
        "rma.lock_waits": C("rma.chunk_lock_waits") + C("rma.epoch_waits"),

        "sched.launch_s": C("launch_s"),
        "sched.context_switches": C("sched.context_switches"),
        "sched.switches_per_s":
            _ratio(c.get("sched.context_switches", 0.0), c.get("coop_run_s", 0.0)),
        "sched.parks": C("sched.parks"),
        "sched.mixed_program_s": 0.0,

        "hls.attach_s": S("hls.attach"),
        "hls.single_s": S("hls.single"),
        "hls.barrier_s": S("hls.barrier"),
        "hls.get_s": S("hls.get"),
        "hls.directives": N("hls.single", "hls.barrier"),

        "scheduler.loop_s": total_s.get("scheduler.loop", 0.0) / reps,
        "scheduler.overhead_s": S("scheduler.loop"),
        "scheduler.chunks": C("loadbalance.chunks"),
        "scheduler.steal_ratio":
            _ratio(c.get("loadbalance.chunks_stolen", 0.0),
                   c.get("loadbalance.chunks", 0.0)),
        "scheduler.finish_cov":
            _ratio(c.get("loadbalance.mean_finish_cov", 0.0),
                   c.get("loadbalance.loops", 0.0)),

        "storage.put_s": S("storage.put", "storage.accumulate"),
        "storage.get_s": S("storage.get"),
        "storage.commit_s": S("storage.fence"),
        "storage.restore_s": S("storage.restore"),
        "storage.spills": C("storage.spills"),
        "storage.faults": C("storage.faults"),
        "storage.chunk_writes": C("storage.chunk_writes"),
        "storage.chunk_reads": C("storage.chunk_reads"),
        "storage.bytes_written": C("storage.written_bytes"),
        "storage.overhead_x": 0.0,

        "memory.node_mb.hls": 0.0,
        "memory.node_mb.mpc": 0.0,
        "memory.node_mb.openmpi": 0.0,
        "memory.alloc_s": S("memory.alloc"),
        "memory.leak_bytes": C("leak_bytes"),

        "memsim.table1_s": S("memsim.table1"),
        "memsim.figure3_s": S("memsim.figure3"),
        "apps.eulermhd_s": S("apps.eulermhd"),
        "apps.gadget_s": S("apps.gadget"),
        "apps.tachyon_s": S("apps.tachyon"),

        "service.submit_s": S("service.submit"),
        "service.queue_wait_s": C("service.queue_wait_s"),
        "service.run_s": C("service.run_s"),
        "service.wait_wake_s": C("service.wake_s"),
        "service.http_post_s": S("service.http_post"),
        "service.http_get_s": S("service.http_get"),
        "service.jobs": N("service.submit", "service.http_post"),
        "service.rejected": c.get("service.rejected", 0.0),
        "service.job_p50_ms": 0.0,
        "service.job_p99_ms": 0.0,
        "service.latency_samples": 0.0,

        "runtime.construct_s": S("runtime.construct"),
        "runtime.finalize_s": S("runtime.finalize"),
        "metrics.snapshot_s": S("metrics.snapshot"),

        "trace.spans": rec.n_spans() / reps,
        "trace.coverage":
            1.0 - _ratio(self_s.get(root, 0.0), total_s.get(root, 0.0)),
    }
    values.update(extras)
    return values
