"""Property suite for the arena layer (repro.memory + AddressSpace).

The allocator invariants the whole accounting stack rests on:
alignment is always respected, no two live allocations ever overlap
(within an arena or across arenas of one registry), the live / peak /
freed counters stay consistent under interleaved multi-threaded
alloc/free, a double free always raises, and the base-address registry
hands out pairwise-disjoint regions.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import HLSProgram
from repro.machine import small_test_machine
from repro.machine.scopes import ScopeKind, ScopeSpec
from repro.memory import Arena, BaseAddressRegistry, MemoryManager
from repro.memsim.address_space import AddressSpace, AddressSpaceExhausted
from repro.runtime import Runtime

ALIGNS = st.sampled_from([1, 2, 8, 64, 256, 4096])
SIZES = st.integers(min_value=1, max_value=1 << 16)


def _overlap(a, b) -> bool:
    return a.addr < b.end and b.addr < a.end


class TestAllocatorProperties:
    @given(st.lists(st.tuples(SIZES, ALIGNS), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_alignment_respected(self, reqs):
        space = AddressSpace(name="prop")
        for size, align in reqs:
            a = space.alloc(size, align=align)
            assert a.addr % align == 0
            assert a.size == size

    @given(
        st.lists(st.tuples(SIZES, ALIGNS), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_live_allocations_never_overlap(self, reqs, data):
        space = AddressSpace(name="prop")
        live = []
        for size, align in reqs:
            live.append(space.alloc(size, align=align))
            if len(live) > 1 and data.draw(st.booleans()):
                space.free(live.pop(data.draw(
                    st.integers(0, len(live) - 1)
                )))
        allocs = space.live_allocations()
        assert sorted(a.addr for a in allocs) == sorted(
            a.addr for a in live
        )
        for i, a in enumerate(allocs):
            for b in allocs[i + 1:]:
                assert not _overlap(a, b), (a, b)

    @given(st.lists(st.tuples(SIZES, ALIGNS), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_live_peak_freed_invariants(self, reqs):
        space = AddressSpace(name="prop")
        allocs = [space.alloc(s, align=a) for s, a in reqs]
        total = sum(a.size for a in allocs)
        assert space.live_bytes == total
        assert space.peak_live_bytes == total
        for a in allocs[::2]:
            space.free(a)
        freed = sum(a.size for a in allocs[::2])
        assert space.live_bytes == total - freed
        assert space.freed_bytes == freed
        assert space.peak_live_bytes == total     # peak never decreases

    @given(SIZES)
    @settings(max_examples=30, deadline=None)
    def test_double_free_always_raises(self, size):
        space = AddressSpace(name="prop")
        a = space.alloc(size)
        space.free(a)
        with pytest.raises(KeyError):
            space.free(a)
        # and the failed free must not corrupt the counters
        assert space.live_bytes == 0
        assert space.freed_bytes == size

    @given(st.lists(SIZES, min_size=4, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_threaded_alloc_free_consistency(self, sizes):
        space = AddressSpace(name="prop")
        done = []
        lock = threading.Lock()

        def worker(chunk):
            got = [space.alloc(s) for s in chunk]
            for a in got[::2]:
                space.free(a)
            with lock:
                done.append((got, got[::2]))

        threads = [
            threading.Thread(target=worker, args=(sizes[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        allocated = sum(a.size for got, _ in done for a in got)
        freed = sum(a.size for _, fr in done for a in fr)
        assert space.live_bytes == allocated - freed
        assert space.freed_bytes == freed
        assert allocated - freed <= space.peak_live_bytes <= allocated
        live = space.live_allocations()
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                assert not _overlap(a, b)

    def test_limit_enforced(self):
        space = AddressSpace(base=1 << 20, limit=(1 << 20) + 4096, name="tiny")
        space.alloc(2048)
        with pytest.raises(AddressSpaceExhausted):
            space.alloc(4096)
        # the failed attempt must not mutate any counter
        assert space.live_bytes == 2048


class TestRegistryProperties:
    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_regions_pairwise_disjoint(self, n):
        reg = BaseAddressRegistry()
        regions = [reg.reserve(f"r{i}") for i in range(n)]
        for i, (b1, l1) in enumerate(regions):
            assert b1 < l1
            for b2, l2 in regions[i + 1:]:
                assert l1 <= b2 or l2 <= b1, "registry regions overlap"

    def test_duplicate_name_rejected(self):
        reg = BaseAddressRegistry()
        reg.reserve("x")
        with pytest.raises(ValueError):
            reg.reserve("x")

    def test_shared_key_aliases_one_region(self):
        reg = BaseAddressRegistry()
        assert reg.reserve_shared("seg") == reg.reserve_shared("seg")
        # but a *different* shared key gets its own region
        assert reg.reserve_shared("seg") != reg.reserve_shared("other")

    @given(
        st.lists(st.tuples(st.integers(0, 7), SIZES), min_size=1, max_size=30)
    )
    @settings(max_examples=30, deadline=None)
    def test_no_overlap_across_arenas(self, reqs):
        """Allocations from distinct arenas of one registry can never
        alias -- each arena is bounded by its own region."""
        reg = BaseAddressRegistry()
        arenas = {}
        allocs = []
        for which, size in reqs:
            arena = arenas.get(which)
            if arena is None:
                base, limit = reg.reserve(f"arena{which}")
                arena = Arena(
                    base=base, limit=limit, name=f"a{which}", level="node"
                )
                arenas[which] = arena
            allocs.append(arena.alloc(size))
        for i, a in enumerate(allocs):
            for b in allocs[i + 1:]:
                assert not _overlap(a, b)


class TestScopeArenaAcceptance:
    """ISSUE acceptance: one arena per scope instance, correct levels,
    and per-level accounting that sums to the node totals."""

    def test_distinct_scopes_distinct_arenas(self):
        machine = small_test_machine()   # 2 sockets x 2 cores, L1+L2
        rt = Runtime(machine, timeout=10.0)
        prog = HLSProgram(rt)
        prog.declare("v_node", shape=(8,), scope="node")
        prog.declare("v_numa", shape=(8,), scope="numa")
        prog.declare("v_cache", shape=(8,), scope="cache level(2)")
        prog.declare("v_core", shape=(8,), scope="core")

        def main(ctx):
            h = prog.attach(ctx)
            for name in ("v_node", "v_numa", "v_cache", "v_core"):
                if h.single_enter(name):
                    try:
                        h[name][...] = ctx.rank
                    finally:
                        h.single_done(name)
                h[name]
            return 0

        rt.run(main)

        by_level = {}
        for arena in rt.memory.arenas():
            if arena.scope is not None:
                by_level.setdefault(arena.level, []).append(arena)
        # every declared level materialised its own arena(s)
        assert set(by_level) >= {"node", "numa", "cache(2)", "core"}
        # arena identity matches its scope instance
        for level, kind in [
            ("numa", ScopeKind.NUMA), ("cache(2)", ScopeKind.CACHE),
            ("core", ScopeKind.CORE),
        ]:
            for arena in by_level[level]:
                assert arena.scope.spec.kind is kind
        # 2 sockets -> 2 numa arenas and 2 L2 arenas; 4 cores
        assert len(by_level["numa"]) == 2
        assert len(by_level["cache(2)"]) == 2
        assert len(by_level["core"]) == 4
        # all arena ranges pairwise disjoint
        arenas = rt.memory.arenas()
        for i, a in enumerate(arenas):
            for b in arenas[i + 1:]:
                assert a.limit <= b.base or b.limit <= a.base

    def test_per_level_breakdown_sums_to_node_total(self):
        machine = small_test_machine(n_nodes=2)
        rt = Runtime(machine, timeout=10.0)
        prog = HLSProgram(rt)
        prog.declare("v_node", shape=(16,), scope="node")
        prog.declare("v_numa", shape=(16,), scope="numa")
        prog.declare("v_core", shape=(16,), scope="core")

        def main(ctx):
            h = prog.attach(ctx)
            for name in ("v_node", "v_numa", "v_core"):
                if h.single_enter(name):
                    h.single_done(name)
                h[name]
            return 0

        rt.run(main)
        metrics = rt.metrics("memory")
        for node, levels in metrics.per_node_by_level.items():
            assert sum(levels.values()) == metrics.per_node[node]
            assert metrics.per_node[node] == rt.node_live_bytes(node)
        # cache default level canonicalises onto the explicit LLC arena
        inst = machine.scope_instance(0, ScopeSpec(ScopeKind.CACHE, None))
        explicit = machine.scope_instance(0, ScopeSpec(ScopeKind.CACHE, 2))
        assert rt.memory.scope_arena(inst) is rt.memory.scope_arena(explicit)
