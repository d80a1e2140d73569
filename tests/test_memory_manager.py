"""Unit tests for the MemoryManager wiring: registry-backed arenas,
the rank-15 base-collision regression, finalize-time leak reporting,
memory_metrics, and the MemorySampler node-recompute fix."""

from __future__ import annotations

import pytest

from repro.hls import HLSProgram
from repro.machine import small_test_machine
from repro.memory import MemoryManager
from repro.metrics import MemorySampler
from repro.runtime import ProcessRuntime, Runtime


def _disjoint(a, b) -> bool:
    return a.limit <= b.base or b.limit <= a.base


class TestBaseCollisionRegression:
    def test_rank15_task_space_disjoint_from_node_spaces(self):
        """The legacy bases collided exactly at rank 15: the per-task
        base (rank + 1) << 36 equals node 0's legacy base 1 << 40.
        Registry-backed arenas can never collide."""
        machine = small_test_machine(n_nodes=4)   # 16 cores, 4/node
        rt = ProcessRuntime(machine, n_tasks=16, timeout=10.0)
        task15 = rt.task_space(15)
        nodes = [rt.memory.node_arena(n) for n in range(4)]
        for node_arena in nodes:
            assert _disjoint(task15, node_arena)
        a15 = task15.alloc(64)
        for node_arena in nodes:
            assert node_arena.find(a15.addr) is None

    def test_all_arena_ranges_pairwise_disjoint(self):
        machine = small_test_machine(n_nodes=2)
        rt = ProcessRuntime(machine, n_tasks=8, timeout=10.0)
        for rank in range(8):
            rt.task_space(rank)
        arenas = rt.memory.arenas()
        assert len(arenas) >= 8
        for i, a in enumerate(arenas):
            for b in arenas[i + 1:]:
                assert _disjoint(a, b), (a, b)


class TestSharedSegments:
    def test_segments_alias_one_region_other_arenas_do_not(self):
        machine = small_test_machine(n_nodes=2)
        rt = ProcessRuntime(machine, n_tasks=8, timeout=10.0)
        s0, s1 = rt.memory.segment_arena(0), rt.memory.segment_arena(1)
        assert s0 is not s1
        assert s0.base == s1.base == rt.memory.segment_arena(0).base
        assert not _disjoint(s0, s1)      # isomalloc aliasing, on purpose
        for other in rt.memory.arenas():
            if other not in (s0, s1):
                assert _disjoint(s0, other)

    def test_segment_bytes_counted_once_per_node(self):
        machine = small_test_machine(n_nodes=2)
        rt = ProcessRuntime(machine, n_tasks=8, timeout=10.0)
        before = rt.node_live_bytes(0)
        rt.memory.segment_arena(0).alloc(1000, kind="hls")
        assert rt.node_live_bytes(0) == before + 1000
        assert rt.node_live_bytes(1) == before   # symmetric pools only


class TestFinalize:
    def test_finalize_releases_pools_and_reports_leaks(self):
        machine = small_test_machine()
        rt = Runtime(machine, timeout=10.0)
        assert rt.memory.live_by_kind().get("runtime", 0) > 0
        leak = rt.node_space(0).alloc(512, label="orphan", kind="hls")
        report = rt.finalize()
        # comm pools were freed; the hls orphan is named
        assert rt.memory.live_by_kind().get("runtime", 0) == 0
        assert report
        assert report.by_kind() == {"hls": 512}
        rec = report.records[0]
        assert rec.label == "orphan"
        assert rec.addr == leak.addr
        assert "orphan" in report.render()

    def test_finalize_idempotent_and_clean_report(self):
        machine = small_test_machine()
        rt = Runtime(machine, timeout=10.0)
        assert not rt.finalize()
        assert not rt.finalize()   # double finalize must not double-free

    def test_finalize_reports_rma_mirrors(self):
        import numpy as np

        from repro.runtime.rma import Win

        machine = small_test_machine(n_nodes=2)
        rt = ProcessRuntime(machine, n_tasks=8, timeout=10.0)

        def main(ctx):
            win = Win.create(ctx.comm_world, np.zeros(4))
            win.fence()
            win.get((ctx.rank + 1) % ctx.size, 4)
            win.fence()
            return 0

        rt.run(main)
        report = rt.finalize()
        assert report.by_kind().get("rma", 0) > 0
        assert any(r.kind == "rma" for r in report.records)


class TestMemoryMetrics:
    def test_breakdown_sums_and_kinds(self):
        machine = small_test_machine(n_nodes=2)
        rt = Runtime(machine, timeout=10.0)
        prog = HLSProgram(rt)
        prog.declare("tbl", shape=(32,), scope="node")

        def main(ctx):
            if prog.attach(ctx).single_enter("tbl"):
                prog.attach(ctx).single_done("tbl")
            prog.attach(ctx)["tbl"]
            ctx.alloc(1 << 12, label="state")
            return 0

        rt.run(main)
        m = rt.metrics("memory")
        assert set(m.per_node) == {0, 1}
        for node, total in m.per_node.items():
            assert total == rt.node_live_bytes(node)
            assert sum(m.per_node_by_level[node].values()) == total
        assert m.by_kind.get("hls", 0) > 0
        assert m.by_kind.get("runtime", 0) > 0
        assert m.by_kind.get("app", 0) >= 8 * (1 << 12)
        assert "node 0" in m.render()

    def test_manager_standalone_accounting(self):
        machine = small_test_machine(n_nodes=2)
        rt = Runtime(machine, timeout=10.0)
        mm: MemoryManager = rt.memory
        a = mm.node_arena(1).alloc(777, kind="app")
        assert mm.node_live_bytes(1) >= 777
        assert mm.live_by_level(1)["node"] == mm.node_live_bytes(1)
        mm.node_arena(1).free(a)


class TestSamplerRecomputesNodes:
    def test_sampler_follows_task_migration(self):
        """Regression: the sampler used to cache the node set at
        construction, so a task moved to a fresh node after the sampler
        was built never got sampled."""
        machine = small_test_machine(n_nodes=2)
        rt = Runtime(machine, n_tasks=4, timeout=10.0)   # all on node 0
        sampler = MemorySampler(rt)
        sampler.sample()
        assert set(sampler._series) == {0}
        pu_node1 = next(
            pu.gid for pu in machine.pus if pu.node == 1
        )
        rt.set_task_pu(3, pu_node1)
        sampler.sample()
        assert set(sampler._series) == {0, 1}
        report = sampler.report(skip_startup=0)
        assert 1 in report.per_node_avg

    def test_report_carries_level_breakdown(self):
        machine = small_test_machine()
        rt = Runtime(machine, timeout=10.0)
        sampler = MemorySampler(rt)
        sampler.sample()
        sampler.sample()
        report = sampler.report(skip_startup=1)
        assert report.by_level_avg.get("node", 0) > 0
        assert sum(report.per_node_by_level[0].values()) == pytest.approx(
            rt.node_live_bytes(0)
        )
