"""Tests for metrics (memory sampler, tables) and the §VI baselines."""

import numpy as np
import pytest

from repro.baselines import PageMerger
from repro.baselines.sbllmalloc import PAGE
from repro.machine import core2_cluster
from repro.metrics import MemorySampler, Table, parallel_efficiency
from repro.runtime import MPIError, Runtime
from repro.runtime.rma import Win


class TestMemorySampler:
    def test_report_skips_startup(self):
        rt = Runtime(core2_cluster(1), n_tasks=8)
        sampler = MemorySampler(rt)
        sampler.sample()                       # startup sample
        rt.node_space(0).alloc(10 << 20, label="app-data")
        sampler.sample()
        sampler.sample()
        rep = sampler.report(skip_startup=1)
        base = rt.node_live_bytes(0)
        assert rep.avg_bytes == pytest.approx(base)
        assert rep.max_bytes == pytest.approx(base)

    def test_per_node_average_and_max(self):
        rt = Runtime(core2_cluster(2), n_tasks=16)
        rt.node_space(1).alloc(100 << 20, label="skew")
        sampler = MemorySampler(rt)
        sampler.sample()
        rep = sampler.report(skip_startup=0)
        assert rep.max_bytes > rep.avg_bytes
        assert set(rep.per_node_avg) == {0, 1}

    def test_empty_report_raises(self):
        rt = Runtime(core2_cluster(1), n_tasks=8)
        with pytest.raises(ValueError):
            MemorySampler(rt).report()

    def test_short_series_falls_back_to_untrimmed(self):
        """A node with <= skip_startup samples must fall back to its
        untrimmed series instead of averaging over an empty list."""
        rt = Runtime(core2_cluster(1), n_tasks=8)
        rt.node_space(0).alloc(1 << 20, label="app-data")
        sampler = MemorySampler(rt)
        sampler.sample()                       # exactly one sample
        rep = sampler.report(skip_startup=1)   # trim would leave nothing
        base = rt.node_live_bytes(0)
        assert rep.avg_bytes == pytest.approx(base)
        assert np.isfinite(rep.avg_bytes)
        assert rep.samples == 1

    def test_trim_boundary_exact(self):
        """skip_startup == len(series) also takes the fallback; one more
        sample and trimming applies normally again."""
        rt = Runtime(core2_cluster(1), n_tasks=8)
        sampler = MemorySampler(rt)
        sampler.sample()
        sampler.sample()
        rep = sampler.report(skip_startup=2)   # == len(series): fallback
        assert rep.samples == 2
        rt.node_space(0).alloc(4 << 20, label="late")
        sampler.sample()
        rep = sampler.report(skip_startup=2)   # now trims to the last one
        assert rep.avg_bytes == pytest.approx(rt.node_live_bytes(0))

    def test_negative_skip_startup_rejected(self):
        rt = Runtime(core2_cluster(1), n_tasks=8)
        sampler = MemorySampler(rt)
        sampler.sample()
        with pytest.raises(ValueError, match="skip_startup"):
            sampler.report(skip_startup=-1)


class TestTable:
    def test_render_alignment(self):
        t = Table(["# cores", "MPI", "time (s)"], title="Table II")
        t.add_row(256, "MPC HLS", 145)
        t.add_row(256, "MPC", 146)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Table II"
        assert "MPC HLS" in out
        assert len({len(l) for l in lines[1:]}) == 1  # aligned

    def test_row_width_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_efficiency_helper(self):
        assert parallel_efficiency(50.0, 100.0) == 0.5
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0.0)


class TestPageMerger:
    def test_identical_arrays_merge(self):
        m = PageMerger()
        # two pages with *distinct* content, duplicated across tasks
        a = (np.arange(2 * PAGE) // PAGE + 1).astype(np.uint8)
        b = a.copy()
        m.register(0, "heap", a)
        m.register(1, "heap", b)
        newly = m.scan()
        assert newly == 2                    # b's two pages merged onto a's
        assert m.resident_bytes() == m.raw_bytes() - 2 * PAGE

    def test_distinct_content_not_merged(self):
        m = PageMerger()
        m.register(0, "heap", np.arange(PAGE, dtype=np.uint8))
        m.register(1, "heap", np.arange(PAGE, dtype=np.uint8)[::-1].copy())
        assert m.scan() == 0

    def test_write_unmerges_with_fault(self):
        m = PageMerger()
        a = np.zeros(PAGE, dtype=np.uint8)
        b = np.zeros(PAGE, dtype=np.uint8)
        m.register(0, "heap", a)
        m.register(1, "heap", b)
        m.scan()
        assert m.stats.merged_pages == 1
        m.write(1, "heap", 10, np.array([9], dtype=np.uint8))
        assert m.stats.unmerge_faults == 1
        assert m.stats.merged_pages == 0
        assert b[10] == 9

    def test_write_to_unmerged_page_no_fault(self):
        m = PageMerger()
        a = np.zeros(PAGE, dtype=np.uint8)
        m.register(0, "heap", a)
        m.scan()
        m.write(0, "heap", 0, np.array([1], dtype=np.uint8))
        assert m.stats.unmerge_faults == 0

    def test_overhead_model_accumulates(self):
        m = PageMerger(scan_cost_per_byte=1.0, fault_cost=100.0)
        a = np.zeros(PAGE, dtype=np.uint8)
        b = np.zeros(PAGE, dtype=np.uint8)
        m.register(0, "h", a)
        m.register(1, "h", b)
        m.scan()
        m.write(0, "h", 0, np.array([1], dtype=np.uint8))
        # write hit the *kept* page of the pair?  rank0's page was the
        # physical copy, so no fault there; fault only on merged copies.
        m.write(1, "h", 0, np.array([1], dtype=np.uint8))
        assert m.stats.scan_cycles == 2 * PAGE
        assert m.stats.fault_cycles == 100.0

    def test_rescan_after_convergence(self):
        """Pages that become identical again re-merge on the next scan
        (the periodic scanning behaviour)."""
        m = PageMerger()
        a = np.zeros(PAGE, dtype=np.uint8)
        b = np.zeros(PAGE, dtype=np.uint8)
        m.register(0, "h", a)
        m.register(1, "h", b)
        m.scan()
        m.write(1, "h", 0, np.array([5], dtype=np.uint8))
        m.write(1, "h", 0, np.array([0], dtype=np.uint8))  # identical again
        assert m.scan() == 1

    def test_duplicate_registration_rejected(self):
        m = PageMerger()
        m.register(0, "h", np.zeros(8, dtype=np.uint8))
        with pytest.raises(KeyError):
            m.register(0, "h", np.zeros(8, dtype=np.uint8))


class TestSharedWindow:
    """The MPI-3 shared-window comparator (``Win.allocate_shared``)."""

    def test_allocate_and_cross_rank_stores(self):
        rt = Runtime(core2_cluster(1), n_tasks=4, timeout=5.0)

        def main(ctx):
            node_comm = ctx.comm_world.split_by_node()
            win = Win.allocate_shared(node_comm, 4)
            win.local()[:] = node_comm.rank
            win.fence()
            # read the neighbour's portion with plain loads
            peer = (node_comm.rank + 1) % node_comm.size
            vals = win.shared_query(peer).copy()
            win.fence()
            return float(vals[0])

        res = rt.run(main)
        assert res == [1.0, 2.0, 3.0, 0.0]

    def test_buffer_is_truly_shared(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            win = Win.allocate_shared(c, 2)
            if c.rank == 0:
                for r in range(c.size):
                    win.shared_query(r)[:] = 42.0
            win.fence()
            return float(win.local().sum())

        assert rt.run(main) == [84.0, 84.0]

    def test_cross_node_communicator_rejected(self):
        rt = Runtime(core2_cluster(2), n_tasks=16, timeout=5.0)

        def main(ctx):
            Win.allocate_shared(ctx.comm_world, 1)

        with pytest.raises(MPIError):
            rt.run(main)

    def test_unknown_rank_query(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            win = Win.allocate_shared(c, 1)
            with pytest.raises(MPIError):
                win.shared_query(99)
            win.fence()

        rt.run(main)

    def test_free_releases_allocation(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            win = Win.allocate_shared(c, 1024)
            before = rt.node_space(0).live_bytes
            win.free()
            after = rt.node_space(0).live_bytes
            return before - after

        res = rt.run(main)
        assert res[0] == 2 * 1024 * 8

    def test_overlapping_offsets_rejected(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            Win.allocate_shared(c, 4, offsets={0: 0, 1: 2})

        with pytest.raises(MPIError, match="overlap"):
            rt.run(main)

    def test_out_of_range_offsets_rejected(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            Win.allocate_shared(c, 4, offsets={0: 0, 1: 6})

        with pytest.raises(MPIError, match="exceeds the window"):
            rt.run(main)

    def test_process_backend_shares_not_silently_private(self):
        """The process backend has no shared address space, so the window
        goes where its processes do share memory -- the node's isomalloc
        segment -- never into private buffers that drop peer stores."""
        from repro.runtime import ProcessRuntime

        rt = ProcessRuntime(core2_cluster(1), n_tasks=2, timeout=5.0)
        seg = rt.memory.segment_arena(0)

        def main(ctx):
            c = ctx.comm_world.split_by_node()
            win = Win.allocate_shared(c, 4)
            win.shared_query(1 - c.rank)[:] = 10.0 + c.rank
            win.fence()
            seen = float(win.local().sum())
            live = seg.live_bytes
            win.free()
            return seen, live, seg.live_bytes

        assert rt.run(main) == [(44.0, 64, 0), (40.0, 64, 0)]
        assert not rt.finalize()

    def test_negative_count_rejected(self):
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=5.0)

        def main(ctx):
            Win.allocate_shared(
                ctx.comm_world.split_by_node(), -1
            )

        with pytest.raises(MPIError):
            rt.run(main)
