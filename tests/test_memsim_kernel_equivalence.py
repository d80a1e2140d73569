"""The fused access kernel against the per-access reference.

``CacheHierarchy._run`` inlines the LRU and directory updates that
``tests/oracle.py``'s :class:`ReferenceHierarchy` performs one method
call at a time; every observable -- service levels, ``stats()``, the
per-instance counters, ``prefetches``, the directory and the LRU order
of every set -- must agree after any script, on any machine, at any
prefetch depth.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import CacheSpec, build_machine, nehalem_ex_node, small_test_machine
from repro.memsim import CacheHierarchy, TimingModel, interleave_round_robin, run_phase

from tests.oracle import ReferenceHierarchy


def direct_mapped_machine():
    """One-line L1, two-line L2: every fill evicts, and a prefetch fill
    evicts the very line whose miss triggered it."""
    return build_machine(
        sockets_per_node=2, cores_per_socket=2,
        caches=[
            CacheSpec(level=1, size_bytes=64, line_bytes=64, associativity=1,
                      latency_cycles=2),
            CacheSpec(level=2, size_bytes=128, line_bytes=64, associativity=2,
                      latency_cycles=10, shared_cores=2),
        ],
        mem_latency_cycles=100,
        mem_bandwidth_lines_per_cycle=0.5,
    )


#: name -> (factory, LLC set count, LLC ways)
MACHINES = {
    "small": (small_test_machine, 32, 4),                       # 4 PUs, L1 + LLC
    "nehalem/64": (lambda: nehalem_ex_node(scale=64), 192, 24),  # 32 PUs, 3 levels
    "direct-mapped": (direct_mapped_machine, 1, 2),
}


def state(hier):
    """Everything a run can change, as plain comparable values."""
    stats = hier.stats()
    return {
        "stats": {
            name: getattr(stats, name).tolist()
            for name in ("hits", "remote", "mem", "writes", "invalidations_sent")
        },
        "counters": {
            (lvl, i): (c.hits, c.misses, c.evictions, c.invalidations)
            for lvl in hier.levels for i, c in enumerate(hier.caches[lvl])
        },
        "prefetches": hier.prefetches,
        "dir": {lvl: dict(hier._dir[lvl]) for lvl in hier.levels},
        "lru": {
            (lvl, i): [list(s) for s in c._sets]
            for lvl in hier.levels for i, c in enumerate(hier.caches[lvl])
        },
    }


def scripts(machine_name):
    """Lists of ``(pu, chunk of lines, write)``.

    Lines come from a few dozen *hot* lines that stay cached (hits,
    sharing, invalidations) or from two columns of lines one LLC set
    apart, more of them than the LLC has ways (evictions at every level,
    down to a line that survives in an L1 after its LLC lost it); a chunk
    is scattered lines or a short sweep (what the prefetcher feeds on).
    """
    _, n_sets, ways = MACHINES[machine_name]
    line = st.one_of(
        st.integers(0, 40),
        st.builds(lambda k, col: col + n_sets * k,
                  st.integers(0, ways + 3), st.integers(0, 1)),
    )
    chunk = st.one_of(
        st.lists(line, min_size=1, max_size=24),
        st.builds(lambda first, n: list(range(first, first + n)),
                  line, st.integers(1, 16)),
    )
    step = st.tuples(st.integers(0, 31), chunk, st.booleans())
    return st.lists(step, min_size=1, max_size=30)


def check_equivalent(machine_name, depth, script):
    make = MACHINES[machine_name][0]
    ref = ReferenceHierarchy(make(), prefetch_depth=depth)
    single = CacheHierarchy(make(), prefetch_depth=depth)   # one access a call
    runs = CacheHierarchy(make(), prefetch_depth=depth)     # one chunk a call
    n_pus = ref.machine.n_pus
    for pu, chunk, write in script:
        pu %= n_pus
        want = [ref._access_line(pu, line, write) for line in chunk]
        got = [single._access_line(pu, line, write) for line in chunk]
        assert got == want, (pu, chunk, write)
        runs.access_run(pu, chunk, write=write)
    want = state(ref)
    assert state(single) == want
    assert state(runs) == want


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_kernel_matches_reference(machine_name, depth):
    @settings(max_examples=40, deadline=None)
    @given(script=scripts(machine_name))
    def run(script):
        check_equivalent(machine_name, depth, script)

    run()


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_kernel_matches_reference_on_a_long_mixed_run(machine_name):
    """Warm, full caches: thousands of evictions and invalidations."""
    rng = np.random.default_rng(3)
    make, n_sets, ways = MACHINES[machine_name]
    n_pus = make().n_pus
    script = []
    for _ in range(80):
        hot = rng.integers(0, 40, size=32)
        column = n_sets * rng.integers(0, 2 * ways, size=32)
        script.append((int(rng.integers(n_pus)),
                       rng.permutation(np.concatenate([hot, column])).tolist(),
                       bool(rng.random() < 0.3)))
    check_equivalent(machine_name, 1, script)


# ------------------------------------------------------- Python-int state
def has_numpy_int(hier):
    return any(
        isinstance(line, np.integer)
        for lvl in hier.levels
        for lines in [hier._dir[lvl], *(s for c in hier.caches[lvl] for s in c._sets)]
        for line in lines
    )


def test_ndarray_list_and_range_leave_identical_python_int_state():
    """An ``ndarray`` trace must not leak ``np.int64`` into the LRU lists
    or the directory keys: every ``%``, compare and hash on one goes
    through NumPy's scalar path, which is what made the seed loop slow."""
    sweep = np.arange(100, 260)
    hiers = []
    for lines in (sweep, sweep.tolist(), range(100, 260)):
        h = CacheHierarchy(small_test_machine(), prefetch_depth=1)
        h.access_run(0, lines)
        h.access_run(2, lines, write=True)
        h.access(1, np.int64(64 * 130))        # byte address from NumPy maths
        assert not has_numpy_int(h)
        hiers.append(h)
    assert state(hiers[0]) == state(hiers[1]) == state(hiers[2])


# ----------------------------------------------------------- phase driver
def test_run_phase_is_interleave_plus_the_phase_own_stats_delta():
    """``run_phase`` == the closure both apps used to carry: round-robin
    chunks of 64, then the timing of this phase's accesses alone."""
    rng = np.random.default_rng(11)
    pus = [0, 1, 2]
    phases = [
        ([rng.integers(0, 400, size=n) for n in (150, 64, 200)], False),
        ([rng.integers(0, 400, size=n) for n in (70, 10, 130)], True),
    ]
    hier, by_hand = (CacheHierarchy(small_test_machine()) for _ in range(2))
    tm = TimingModel(hier.machine)
    for traces, write in phases:
        before = by_hand.stats()
        for i, chunk in interleave_round_robin(traces, chunk=64):
            by_hand.access_run(pus[i], chunk, write=write)
        want = tm.run_timing(by_hand.stats() - before, active_pus=pus).cycles
        assert run_phase(hier, tm, traces, pus, write=write) == want
    assert state(hier) == state(by_hand)


# ------------------------------------------------------------ regressions
def test_touch_range_of_zero_bytes_touches_nothing():
    h = CacheHierarchy(small_test_machine())
    h.touch_range(0, 0x1000, 0)        # line-aligned
    h.touch_range(0, 0x1010, 0)        # mid-line: used to touch one line
    assert h.stats().total_accesses() == 0
    h.touch_range(0, 0x1010, 1)
    assert h.stats().total_accesses() == 1


def test_reset_stats_zeroes_the_prefetch_counter():
    h = CacheHierarchy(small_test_machine(), prefetch_depth=2)
    h.access(0, 0x10000)
    assert h.prefetches == 2
    h.reset_stats()
    assert h.prefetches == 0
