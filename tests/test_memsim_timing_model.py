"""Unit tests for the timing model's cost structure."""

import numpy as np
import pytest

from repro.machine import CacheSpec, build_machine, small_test_machine
from repro.memsim import CacheHierarchy, TimingModel
from repro.memsim.hierarchy import AccessStats


def stats_for(machine, **kw):
    n = machine.n_pus
    nl = len(machine.caches)
    st = AccessStats(
        n_pus=n,
        llc_level=machine.llc_level,
        hits=np.zeros((n, nl), dtype=np.int64),
        remote=np.zeros(n, dtype=np.int64),
        mem=np.zeros(n, dtype=np.int64),
        writes=np.zeros(n, dtype=np.int64),
        invalidations_sent=np.zeros(n, dtype=np.int64),
    )
    for k, v in kw.items():
        getattr(st, k)[...] = v
    return st


class TestCostStructure:
    def test_level_costs_proportional_to_latency(self):
        m = small_test_machine()            # L1 lat 2, L2 lat 10
        tm = TimingModel(m, mlp=1.0)
        st = stats_for(m)
        st.hits[0, 0] = 100                 # L1
        t1 = tm.pu_cycles(st)[0]
        st2 = stats_for(m)
        st2.hits[0, 1] = 100                # L2
        t2 = tm.pu_cycles(st2)[0]
        assert t2 / t1 == pytest.approx(10 / 2)

    def test_mlp_scales_all_levels_uniformly(self):
        m = small_test_machine()
        st = stats_for(m)
        st.hits[0, 0] = 50
        st.mem[0] = 50
        t1 = TimingModel(m, mlp=1.0).pu_cycles(st)[0]
        t8 = TimingModel(m, mlp=8.0).pu_cycles(st)[0]
        assert t1 / t8 == pytest.approx(8.0)

    def test_invalidation_cost_charged_to_writer(self):
        m = small_test_machine()
        tm = TimingModel(m, invalidation_cost_cycles=5.0)
        st = stats_for(m)
        st.invalidations_sent[2] = 10
        cyc = tm.pu_cycles(st)
        assert cyc[2] == pytest.approx(50.0)
        assert cyc[0] == 0.0

    def test_default_invalidation_cost_positive(self):
        tm = TimingModel(small_test_machine())
        assert tm.invalidation_cost > 0

    def test_write_penalty(self):
        m = small_test_machine()
        tm = TimingModel(m, write_penalty_cycles=2.0)
        st = stats_for(m)
        st.writes[1] = 7
        assert tm.pu_cycles(st)[1] == pytest.approx(14.0)

    def test_remote_override(self):
        m = small_test_machine()
        tm = TimingModel(m, remote_latency_cycles=33, mlp=1.0)
        st = stats_for(m)
        st.remote[0] = 2
        assert tm.pu_cycles(st)[0] == pytest.approx(66.0)


class TestRunTiming:
    def test_active_pus_restricts(self):
        m = small_test_machine()
        tm = TimingModel(m)
        st = stats_for(m)
        st.mem[:] = 100
        st.mem[3] = 100000
        t = tm.run_timing(st, active_pus=[0, 1])
        # PU 3's huge load must be ignored
        assert t.cycles < tm.run_timing(st).cycles

    def test_max_over_sockets(self):
        m = small_test_machine()          # sockets {0,1} and {2,3}
        tm = TimingModel(m)
        st = stats_for(m)
        st.mem[0] = 10
        st.mem[2] = 1000
        t = tm.run_timing(st)
        assert t.cycles == pytest.approx(t.socket_cycles[1])

    def test_stats_subtraction(self):
        m = small_test_machine()
        a = stats_for(m)
        a.mem[:] = 10
        b = stats_for(m)
        b.mem[:] = 4
        d = a - b
        assert (d.mem == 6).all()
