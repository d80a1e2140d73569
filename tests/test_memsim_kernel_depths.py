"""The generated access kernel at depths the paper's machines never have.

``CacheHierarchy`` runs one kernel per path depth, generated from one
per-level template; the machines of ``test_memsim_kernel_equivalence``
are two and three levels deep.  Here a one-level and a four-level
machine are held to :class:`~tests.oracle.ReferenceHierarchy` on the
same observables: service levels, ``stats()``, per-instance counters,
``prefetches``, the directory and every set's LRU order.
"""

import linecache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import CacheSpec, build_machine, nehalem_ex_node, small_test_machine
from repro.memsim import CacheHierarchy

from tests.oracle import ReferenceHierarchy
from tests.test_memsim_kernel_equivalence import direct_mapped_machine, state


def one_level_machine():
    """The LLC is the only level: one 2-way, 2-set cache per two-core
    socket, so the first level already sees sharing and remote hits."""
    return build_machine(
        sockets_per_node=2, cores_per_socket=2,
        caches=[CacheSpec(level=1, size_bytes=256, line_bytes=64,
                          associativity=2, latency_cycles=4, shared_cores=2)],
        mem_latency_cycles=100,
    )


def four_level_machine():
    """Private L1/L2, an L3 per core pair and a socket-wide L4, each
    small enough that a script of a few dozen lines evicts at every
    level."""
    def spec(level, size, ways, shared):
        return CacheSpec(level=level, size_bytes=size, line_bytes=64,
                         associativity=ways, latency_cycles=2 * level,
                         shared_cores=shared)

    return build_machine(
        sockets_per_node=2, cores_per_socket=4,
        caches=[spec(1, 128, 2, 1), spec(2, 256, 2, 1),
                spec(3, 512, 2, 2), spec(4, 1024, 4, 4)],
        mem_latency_cycles=100,
    )


#: name -> (factory, LLC set count, LLC ways)
MACHINES = {
    "one-level": (one_level_machine, 2, 2),
    "four-level": (four_level_machine, 4, 4),
}


def scripts(n_sets, ways):
    """``(pu, chunk of lines, write)`` steps over hot lines and LLC
    set columns deeper than the LLC's ways; chunks are scattered lines
    or short sweeps (what the prefetcher feeds on)."""
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
    return st.lists(st.tuples(st.integers(0, 31), chunk, st.booleans()),
                    min_size=1, max_size=30)


def check_equivalent(make, prefetch_depth, script):
    ref = ReferenceHierarchy(make(), prefetch_depth=prefetch_depth)
    single = CacheHierarchy(make(), prefetch_depth=prefetch_depth)
    runs = CacheHierarchy(make(), prefetch_depth=prefetch_depth)
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


@pytest.mark.parametrize("prefetch_depth", [0, 1, 2])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_kernel_matches_reference(machine_name, prefetch_depth):
    make, n_sets, ways = MACHINES[machine_name]

    @settings(max_examples=40, deadline=None)
    @given(script=scripts(n_sets, ways))
    def run(script):
        check_equivalent(make, prefetch_depth, script)

    run()


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_kernel_matches_reference_on_a_long_mixed_run(machine_name):
    rng = np.random.default_rng(5)
    make, n_sets, ways = MACHINES[machine_name]
    n_pus = make().n_pus
    script = []
    for _ in range(80):
        hot = rng.integers(0, 40, size=32)
        column = n_sets * rng.integers(0, 2 * ways, size=32)
        script.append((int(rng.integers(n_pus)),
                       rng.permutation(np.concatenate([hot, column])).tolist(),
                       bool(rng.random() < 0.3)))
    check_equivalent(make, 1, script)


def test_hierarchies_of_one_depth_share_one_kernel():
    two = [CacheHierarchy(small_test_machine()),
           CacheHierarchy(direct_mapped_machine(), prefetch_depth=2)]
    three = [CacheHierarchy(nehalem_ex_node(scale=64)),
             CacheHierarchy(nehalem_ex_node(scale=16))]
    assert two[0]._kernel is two[1]._kernel
    assert three[0]._kernel is three[1]._kernel
    assert two[0]._kernel is not three[0]._kernel


def test_the_kernel_source_is_registered_for_tracebacks():
    code = CacheHierarchy(four_level_machine())._kernel.__code__
    lines = linecache.getlines(code.co_filename)
    assert lines[code.co_firstlineno - 1].startswith("def _run(")
    assert any("D3.get(line)" in ln for ln in lines)


def test_a_machine_without_caches_is_rejected_by_name():
    with pytest.raises(ValueError, match="at least one cache level"):
        CacheHierarchy(build_machine(caches=[], name="bare"))
