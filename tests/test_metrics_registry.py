"""Unit tests for the unified metrics registry: ``Runtime.metrics()``
covers every subsystem in one snapshot, ``Runtime.metrics(name)`` one
subsystem from the same table, and snapshots render to canonical
JSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.machine import small_test_machine
from repro.metrics import MetricsSnapshot, build_snapshot, build_subsystem
from repro.metrics.registry import SUBSYSTEM_NAMES, SUBSYSTEMS
from repro.runtime import Runtime


EXPECTED = ("p2p", "collectives", "rma", "sched", "faults", "memory",
            "storage", "loadbalance")


def _ring(ctx):
    comm = ctx.comm_world
    data = np.arange(16, dtype=np.int64) + ctx.rank
    comm.send(data, (ctx.rank + 1) % comm.size, tag=0)
    got = comm.recv(source=(ctx.rank - 1) % comm.size, tag=0, own=True)
    return int(comm.allreduce(int(got.sum())))


class TestRegistryTable:
    def test_all_eight_subsystems_registered(self):
        assert SUBSYSTEM_NAMES == EXPECTED
        assert tuple(SUBSYSTEMS) == EXPECTED

    def test_build_subsystem_unknown_name(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        with pytest.raises(KeyError, match="unknown metrics subsystem"):
            build_subsystem("nope", rt)
        rt.finalize()

    def test_runtime_metrics_unknown_name(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        with pytest.raises(KeyError):
            rt.metrics("nope")
        rt.finalize()


class TestUnifiedSnapshot:
    def test_snapshot_covers_every_subsystem(self):
        rt = Runtime(n_tasks=4, timeout=10.0)
        rt.run(_ring)
        snap = rt.metrics()
        assert isinstance(snap, MetricsSnapshot)
        assert snap.subsystems() == EXPECTED
        data = snap.snapshot()
        assert tuple(data) == EXPECTED
        for name in EXPECTED:
            assert isinstance(data[name], dict), name
        rt.finalize()

    def test_attribute_and_get_access(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        rt.run(_ring)
        snap = rt.metrics()
        assert snap.p2p is snap.get("p2p")
        assert snap.memory is snap.get("memory")
        with pytest.raises(AttributeError):
            snap.not_a_subsystem
        rt.finalize()

    def test_snapshot_reflects_workload(self):
        rt = Runtime(n_tasks=4, timeout=10.0)
        rt.run(_ring)
        snap = rt.metrics()
        # four sends happened; the frozen dict must show them
        assert snap.snapshot()["p2p"]["messages"] >= 4
        assert snap.snapshot()["memory"]["total_bytes"] >= 0
        rt.finalize()

    def test_frozen_data_is_a_copy(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        snap = rt.metrics()
        d1 = snap.snapshot()
        d1["p2p"]["messages"] = 10**9
        assert snap.snapshot()["p2p"]["messages"] != 10**9
        rt.finalize()

    def test_collectives_object_is_live_counter(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        snap = rt.metrics()
        assert snap.get("collectives") is rt.collective_metrics
        rt.finalize()

    def test_build_snapshot_module_entry_point(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        snap = build_snapshot(rt)
        assert snap.subsystems() == EXPECTED
        rt.finalize()


class TestCanonicalJSON:
    def test_to_json_round_trips(self):
        rt = Runtime(n_tasks=4, timeout=10.0)
        rt.run(_ring)
        text = rt.metrics().to_json()
        data = json.loads(text)
        assert tuple(sorted(data)) == tuple(sorted(EXPECTED))
        rt.finalize()

    def test_equal_snapshots_serialise_identically(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        a = rt.metrics().to_json()
        b = rt.metrics().to_json()
        assert a == b
        # canonical form: sorted keys, compact separators
        assert json.dumps(json.loads(a), sort_keys=True,
                          separators=(",", ":")) == a
        rt.finalize()

    def test_render_mentions_every_subsystem_object(self):
        rt = Runtime(n_tasks=2, timeout=10.0)
        text = rt.metrics().render()
        assert text.startswith("metrics snapshot:")
        rt.finalize()


class TestSubsystemAccess:
    """``metrics(name)`` is the one per-subsystem accessor: the eight
    ``Runtime.*_metrics()`` methods it replaced are gone."""

    def test_subsystem_objects_match_unified_snapshot(self):
        rt = Runtime(small_test_machine(), n_tasks=4, timeout=10.0)
        rt.run(_ring)
        snap = rt.metrics()
        for name in EXPECTED:
            obj = rt.metrics(name)
            assert type(obj) is type(snap.objects[name]), name
            assert obj.snapshot() == snap.snapshot()[name], name
        rt.finalize()

    def test_per_subsystem_methods_are_gone(self):
        for meth in ("p2p_metrics", "collectives_metrics", "rma_metrics",
                     "sched_metrics", "fault_metrics", "memory_metrics",
                     "storage_metrics", "loadbalance_metrics",
                     "collective_sharing"):
            assert not hasattr(Runtime, meth), meth


class TestSnapshotKeysAndRounding:
    """Each counter-record subsystem's snapshot: its keys, in render
    order, and how many decimal places each derived or float key keeps.
    A fresh runtime's snapshot must carry the same keys."""

    KEYS = {
        "p2p": (
            "matcher", "posted", "delivered", "pending", "comparisons",
            "comparisons_per_delivery", "wakeups", "messages", "bytes",
            "intra_node", "inter_node", "send_copies", "recv_copies",
            "elided", "elided_bytes",
        ),
        "rma": (
            "windows", "ops", "puts", "gets", "accumulates", "fetch_and_ops",
            "compare_and_swaps", "bytes", "staged_copies", "staged_bytes",
            "zero_copy_hits", "zero_copy_bytes", "zero_copy_fraction",
            "epoch_waits", "fences", "locks", "mirror_bytes",
            "chunk_lock_acquisitions", "chunk_lock_waits",
        ),
        "sched": (
            "backend", "n_tasks", "context_switches", "decisions", "parks",
            "notify_wakes", "timer_wakes", "preemptions", "max_runq_depth",
            "stall_recoveries", "vtime",
        ),
        "faults": (
            "chaos", "plan_seed", "plan_specs", "hits", "injections",
            "fired", "aborts_propagated", "alloc_retries",
            "recovery_latency_s",
        ),
        "storage": (
            "stores", "committed_epochs", "chunk_reads", "chunk_writes",
            "read_bytes", "written_bytes", "commits", "spills",
            "spill_bytes", "faults", "fault_bytes", "resident_bytes",
            "peak_resident_bytes", "resident_chunks",
        ),
        "loadbalance": (
            "loops", "chunks", "chunks_local", "remote_claims",
            "iterations", "busy_s", "idle_s", "busy_fraction",
            "mean_finish_cov", "mean_work_cov",
        ),
    }

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_runtime_snapshot_keys_in_order(self, name):
        rt = Runtime(n_tasks=2, timeout=10.0)
        rt.run(_ring)
        assert tuple(rt.metrics().snapshot()[name]) == self.KEYS[name]
        assert tuple(rt.metrics(name).snapshot()) == self.KEYS[name]
        rt.finalize()

    def test_p2p_rounding(self):
        from repro.metrics import P2PMetrics

        snap = P2PMetrics(comparisons=1, delivered=3).snapshot()
        assert tuple(snap) == self.KEYS["p2p"]
        assert snap["comparisons_per_delivery"] == 0.333
        assert P2PMetrics().snapshot()["comparisons_per_delivery"] == 0.0

    def test_rma_rounding(self):
        from repro.metrics import RMAMetrics

        snap = RMAMetrics(puts=1, gets=2, accumulates=3, fetch_and_ops=4,
                          compare_and_swaps=5, bytes=3,
                          zero_copy_bytes=1).snapshot()
        assert tuple(snap) == self.KEYS["rma"]
        assert snap["ops"] == 15
        assert snap["zero_copy_fraction"] == 0.333

    def test_sched_rounding(self):
        from repro.metrics import SchedMetrics

        snap = SchedMetrics(backend="coop", vtime=1 / 3).snapshot()
        assert tuple(snap) == self.KEYS["sched"]
        assert snap["vtime"] == 0.333333
        assert snap["backend"] == "coop"

    def test_faults_rounding_and_fired_copy(self):
        from repro.metrics import FaultMetrics

        m = FaultMetrics(chaos=True, fired={"delay": 2},
                         recovery_latency_s=1 / 3)
        snap = m.snapshot()
        assert tuple(snap) == self.KEYS["faults"]
        assert snap["recovery_latency_s"] == 0.333333
        assert snap["fired"] == {"delay": 2}
        snap["fired"]["delay"] = 99
        assert m.fired == {"delay": 2}
        assert FaultMetrics().snapshot()["recovery_latency_s"] is None

    def test_storage_keys_are_raw_counters(self):
        from repro.metrics import StorageMetrics

        m = StorageMetrics(spill_bytes=7, peak_resident_bytes=11)
        snap = m.snapshot()
        assert tuple(snap) == self.KEYS["storage"]
        assert snap["spill_bytes"] == 7
        assert snap["peak_resident_bytes"] == 11

    def test_loadbalance_rounding_and_hidden_fields(self):
        from repro.metrics import LoadBalanceMetrics

        m = LoadBalanceMetrics(
            loops=1, chunks_local=2, remote_claims=1, busy_s=1 / 3,
            idle_s=2 / 3,
            finish_cov=[1 / 3], busy_cov=[0.5], work_cov=[2 / 3],
        )
        snap = m.snapshot()
        assert tuple(snap) == self.KEYS["loadbalance"]
        assert snap["chunks"] == 3
        assert snap["busy_s"] == 0.333333
        assert snap["idle_s"] == 0.666667
        assert snap["busy_fraction"] == 0.333
        assert snap["mean_finish_cov"] == 0.3333
        assert snap["mean_work_cov"] == 0.6667
        empty = LoadBalanceMetrics().snapshot()
        assert empty["mean_work_cov"] == 0.0
        assert empty["busy_fraction"] == 0.0
