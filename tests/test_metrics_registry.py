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
