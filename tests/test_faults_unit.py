"""Unit tests for the fault-injection layer: spec validation, plan
serialization (canonical round-trip), injector counting, the abort
signal, and the zero-cost no-op path."""

import json
import threading

import pytest

from repro.analysis import Tracer
from repro.faults import ACTIONS, FaultInjector, FaultPlan, FaultSpec, SITES
from repro.machine import core2_cluster
from repro.metrics import FaultMetrics
from repro.runtime import (
    InjectedCrash,
    PayloadCloneError,
    ProcessRuntime,
    Runtime,
    TransientCommError,
)
from repro.runtime.abort import AbortSignal, note_abort, subscribe_abort


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec(site="p2p.teleport", action="delay")

    def test_action_must_match_site(self):
        # reorder only makes sense on the delivery path
        with pytest.raises(ValueError, match="does not support"):
            FaultSpec(site="hls.barrier", action="reorder")

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="p2p.post", action="delay", nth=0)

    def test_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="p2p.post", action="delay", count=0)

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError, match="param"):
            FaultSpec(site="p2p.post", action="delay", param=-0.1)

    def test_window_matching(self):
        s = FaultSpec(site="p2p.post", action="delay", task=2, nth=3, count=2)
        assert not s.applies(2, 2)
        assert s.applies(2, 3)
        assert s.applies(2, 4)
        assert not s.applies(2, 5)
        assert not s.applies(1, 3)     # wrong task

    def test_any_task_matches_everyone(self):
        s = FaultSpec(site="coll.sweep", action="wake", task=-1, nth=1)
        assert s.applies(0, 1) and s.applies(7, 1)

    def test_every_registered_action_is_legal_somewhere(self):
        for action in ACTIONS:
            assert any(action in acts for acts in SITES.values())


class TestFaultPlan:
    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(42, 8)
        b = FaultPlan.random(42, 8)
        assert a.specs == b.specs
        assert a.to_json() == b.to_json()
        assert FaultPlan.random(43, 8).specs != a.specs

    def test_random_specs_are_valid(self):
        for seed in range(10):
            for spec in FaultPlan.random(seed, 4, n_faults=8):
                assert spec.site in SITES
                assert spec.action in SITES[spec.site]
                assert spec.nth >= 1 and spec.count >= 1

    def test_crash_rate_zero_means_no_hard_failures(self):
        plan = FaultPlan.random(5, 4, n_faults=40, crash_rate=0.0)
        assert not plan.has_action("crash", "clone_fail")

    def test_crash_rate_one_forces_hard_failures_where_possible(self):
        plan = FaultPlan.random(
            5, 4, n_faults=40, crash_rate=1.0,
            sites=("p2p.post", "coll.sweep"),
        )
        assert all(s.action in ("crash", "clone_fail") for s in plan)

    def test_sites_filter_respected(self):
        plan = FaultPlan.random(1, 4, sites=("hls.single",), n_faults=5)
        assert plan.sites() == ("hls.single",)
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan.random(1, 4, sites=("nope",))

    def test_json_round_trip_is_bit_for_bit(self):
        plan = FaultPlan.random(123, 16, n_faults=10)
        text = plan.to_json()
        back = FaultPlan.from_json(text)
        assert back.specs == plan.specs
        assert back.seed == plan.seed
        assert back.to_json() == text

    def test_json_is_canonical(self):
        # to_dict key order must not leak into the string
        plan = FaultPlan.single("p2p.post", "crash", task=1, nth=2)
        scrambled = json.loads(plan.to_json())
        rebuilt = FaultPlan.from_dict(
            dict(sorted(scrambled.items(), reverse=True))
        )
        assert rebuilt.to_json() == plan.to_json()

    def test_version_gate(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "specs": []})

    def test_dump_load(self, tmp_path):
        plan = FaultPlan.random(9, 4)
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path).to_json() == plan.to_json()


class TestFaultInjector:
    def test_counts_are_per_site_per_task(self):
        inj = FaultInjector(
            FaultPlan.single("p2p.post", "delay", task=0, nth=2, param=0.0)
        )
        assert inj.hit("p2p.post", 1) is None   # task 1 counter, no match
        assert inj.hit("p2p.post", 0) is None   # task 0 hit 1
        inj.hit("p2p.post", 0)                  # task 0 hit 2 -> fires
        snap = inj.snapshot()
        assert snap["injections"] == 1
        assert snap["fired"] == {"delay": 1}
        assert snap["hits"] == 3
        assert inj.sorted_log() == [("p2p.post", 0, 2, "delay")]

    def test_unlisted_site_is_a_fast_noop(self):
        inj = FaultInjector(FaultPlan.single("hls.single", "delay"))
        for _ in range(100):
            assert inj.hit("p2p.post", 0) is None
        assert inj.snapshot()["hits"] == 0     # early return: not counted

    def test_crash_raises_injected_crash(self):
        inj = FaultInjector(FaultPlan.single("coll.sweep", "crash", task=3))
        with pytest.raises(InjectedCrash):
            inj.hit("coll.sweep", 3)

    def test_clone_fail_and_transient(self):
        inj = FaultInjector(FaultPlan([
            FaultSpec(site="p2p.post", action="clone_fail"),
            FaultSpec(site="p2p.alloc", action="transient"),
        ]))
        with pytest.raises(PayloadCloneError):
            inj.hit("p2p.post", 0)
        with pytest.raises(TransientCommError):
            inj.hit("p2p.alloc", 0)

    def test_reorder_returns_hold(self):
        inj = FaultInjector(
            FaultPlan.single("p2p.post", "reorder", param=0.25)
        )
        assert inj.hit("p2p.post", 0) == ("reorder", 0.25)

    def test_wake_uses_supplied_waker(self):
        woken = []
        inj = FaultInjector(FaultPlan.single("hls.barrier", "wake"))
        inj.hit("hls.barrier", 0, wake=lambda: woken.append(1))
        assert woken == [1]

    def test_wake_targets_victim_mailbox(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        inj = rt.install_faults(
            FaultPlan.single("p2p.post", "wake", victim=1)
        )
        inj.hit("p2p.post", 0)
        assert inj.snapshot()["fired"] == {"wake": 1}


class TestAbortSignal:
    def test_waker_runs_on_set(self):
        sig = AbortSignal()
        woken = []
        sig.subscribe(lambda: woken.append(1))
        sig.set()
        assert woken == [1]
        assert sig.set_at is not None

    def test_subscribe_after_set_fires_immediately(self):
        sig = AbortSignal()
        sig.set()
        woken = []
        sig.subscribe(lambda: woken.append(1))
        assert woken == [1]

    def test_set_at_records_first_set_only(self):
        sig = AbortSignal()
        sig.set()
        first = sig.set_at
        sig.set()
        assert sig.set_at == first

    def test_note_abort_counts_propagations(self):
        sig = AbortSignal()
        note_abort(sig)
        note_abort(sig)
        assert sig.propagated == 2

    def test_bare_event_degrades_gracefully(self):
        ev = threading.Event()
        subscribe_abort(ev, lambda: None)   # no-op, no crash
        note_abort(ev)                      # no-op, no crash


class TestAllocRetry:
    """Bounded retry-with-backoff on transient comm-buffer exhaustion
    (the eager per-connection pool of the process backend)."""

    @staticmethod
    def _pingpong(ctx):
        if ctx.rank == 0:
            ctx.comm_world.send(b"x" * 64, dest=1, tag=0)
            return "sent"
        if ctx.rank == 1:
            return ctx.comm_world.recv(source=0, tag=0)
        return None

    def test_transient_exhaustion_is_retried(self):
        # the first eager alloc's first 2 attempts fail; the retry wins
        rt = ProcessRuntime(core2_cluster(1), n_tasks=2, timeout=10.0)
        rt.install_faults(FaultPlan([
            FaultSpec(site="p2p.alloc", action="transient",
                      task=0, nth=1, count=2),
        ]))
        res = rt.run(self._pingpong)
        assert res[1] == b"x" * 64
        assert rt.comm_alloc_retries == 2
        assert rt.metrics("faults").alloc_retries == 2

    def test_sustained_exhaustion_propagates_after_budget(self):
        # more consecutive failures than ALLOC_RETRIES allows: the
        # error escapes the retry loop and crashes the job cleanly
        rt = ProcessRuntime(core2_cluster(1), n_tasks=2, timeout=10.0)
        budget = rt.ALLOC_RETRIES
        rt.install_faults(FaultPlan([
            FaultSpec(site="p2p.alloc", action="transient",
                      task=0, nth=1, count=budget + 5),
        ]))
        with pytest.raises(TransientCommError):
            rt.run(self._pingpong)
        assert rt.comm_alloc_retries == budget

    def test_thread_backend_has_no_eager_allocs(self):
        # EAGER_PER_CONNECTION == 0: the site is never visited, so an
        # alloc fault is inert on the thread backend
        rt = Runtime(core2_cluster(1), n_tasks=2, timeout=10.0)
        rt.install_faults(
            FaultPlan.single("p2p.alloc", "transient", count=99)
        )
        assert rt.run(self._pingpong)[1] == b"x" * 64
        assert rt.comm_alloc_retries == 0


class TestZeroCostWhenOff:
    def test_runtime_without_plan_has_no_injector(self):
        rt = Runtime(core2_cluster(1), n_tasks=4)
        assert rt.faults is None
        assert rt.probe is None     # no plan, no tracer: one None test

    def test_install_threads_injector_everywhere(self):
        # every site reads rt.probe live, so "everywhere" is one
        # attribute (the late-install test in test_probe_seam.py checks
        # that every site sees it)
        rt = Runtime(core2_cluster(1), n_tasks=4)
        inj = rt.install_faults(FaultPlan.single("p2p.post", "delay"))
        assert rt.faults is inj and inj.runtime is rt
        assert rt.probe is not None
        traced = Runtime(core2_cluster(1), n_tasks=4)
        traced.tracer = Tracer(4)
        assert traced.probe is not None
        traced.tracer = None
        assert traced.probe is None

    def test_fault_metrics_without_plan(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        m = rt.metrics("faults")
        assert not m.chaos
        assert m.injections == 0 and m.aborts_propagated == 0
        assert m.recovery_latency_s is None
        assert "fault metrics" in m.render()

    def test_fault_metrics_from_runtime_reads_counters(self):
        rt = Runtime(core2_cluster(1), n_tasks=2)
        rt.install_faults(FaultPlan.random(11, 2))
        m = FaultMetrics.from_runtime(rt)
        assert m.chaos and m.plan_seed == 11
        assert m.snapshot()["plan_specs"] == 6
