"""Load-balance scaling: dynamic self-scheduling vs the static oracle.

Three layers of evidence:

* **Synthetic loops** (8/32/128 tasks, both sharings) with per-iteration
  sleep costs, so the imbalance is controlled: a *skewed* load (the
  first quarter of the iteration space costs ~24x the rest) must see
  dynamic chunk claiming (own node first, then the other nodes) cut
  the finish-time c.o.v. by >=2x *and* strictly beat the static oracle's makespan; a *uniform* load
  bounds the self-scheduling overhead (dynamic makespan within 35% +
  slack of static).
* **The paper apps**: gadget (clustered particles -> skewed near-field
  cost) and tachyon (sphere-dense rows -> skewed render cost) at 32
  tasks, asserting the same >=2x c.o.v. reduction, the bit-equal
  checksum against the static decomposition, and no makespan
  regression.
* **An 8192-task coop smoke**: the full claim protocol under the
  cooperative backend with a seeded random schedule -- exactly-once at
  four-digit task counts, wall clock recorded.
"""

import time

import pytest

from benchmarks.conftest import run_once
from repro.apps.gadget import GadgetConfig, run_gadget
from repro.apps.tachyon import TachyonConfig, run_tachyon
from repro.machine import core2_cluster
from repro.runtime import Runtime
from repro.scheduler import dynamic_for

#: synthetic per-iteration sleep costs (real seconds under threads) --
#: heavy enough that the load differential dominates the serialised
#: per-claim cost on single-core CI hosts
HEAVY_S = 0.012
LIGHT_S = 0.0008
UNIFORM_S = 0.006
ITERS_PER_TASK = 16
#: uniform load: dynamic may cost overhead but not more than this
OVERHEAD_FACTOR = 1.35
OVERHEAD_SLACK_S = 0.05

SCALES = [8, 32, 128]
SHARINGS = ["private", "shared"]


def _machine(n_tasks):
    return core2_cluster(max(1, n_tasks // 8))   # 8 PUs per node


def _iter_cost(pattern, i, n_iters):
    if pattern == "uniform":
        return UNIFORM_S
    return HEAVY_S if i < n_iters // 4 else LIGHT_S


def _synthetic_loop(n_tasks, sharing, pattern, policy):
    """One dynamic_for over a sleep-cost iteration space; returns the
    loop's gathered report."""
    n_iters = ITERS_PER_TASK * n_tasks
    rt = Runtime(_machine(n_tasks), n_tasks=n_tasks, timeout=120.0,
                 sharing=sharing)

    def main(ctx):
        def body(lo, hi):
            cost = sum(_iter_cost(pattern, i, n_iters)
                       for i in range(lo, hi))
            ctx.sleep(cost)
            return cost * 1e3        # work units: modeled milliseconds
        stats = dynamic_for(ctx, n_iters, body, policy=policy,
                            label=f"synthetic.{pattern}")
        return stats.iterations

    res = rt.run(main)
    assert sum(res) == n_iters
    report = rt.metrics("loadbalance").reports[0]
    return report


def _report_fields(report):
    rows = report.rows
    return dict(
        policy=report.policy,
        n_tasks=report.n_tasks,
        finish_cov=round(report.finish_cov, 4),
        work_cov=round(report.work_cov, 4),
        makespan_s=round(report.makespan_s, 4),
        remote_claims=sum(r["remote_claims"] for r in rows),
    )


@pytest.mark.parametrize("sharing", SHARINGS)
@pytest.mark.parametrize("n_tasks", SCALES)
def test_synthetic_skewed_and_uniform(benchmark, n_tasks, sharing):
    """The controlled comparison: on a skewed load dynamic claiming
    must cut imbalance >=2x and beat the oracle's makespan; on a
    uniform load its overhead stays bounded."""
    def job():
        out = {}
        for pattern in ("skewed", "uniform"):
            for policy in ("even", "fixed:2"):
                out[pattern, policy] = _synthetic_loop(
                    n_tasks, sharing, pattern, policy)
        return out

    reports = run_once(benchmark, job)

    sk_even = reports["skewed", "even"]
    sk_dyn = reports["skewed", "fixed:2"]
    assert sk_even.finish_cov >= 2.0 * sk_dyn.finish_cov, (
        f"skewed: dynamic cov {sk_dyn.finish_cov:.3f} not >=2x better "
        f"than static {sk_even.finish_cov:.3f}"
    )
    assert sk_dyn.makespan_s < sk_even.makespan_s, (
        f"skewed: dynamic makespan {sk_dyn.makespan_s:.3f}s did not beat "
        f"static {sk_even.makespan_s:.3f}s"
    )
    un_even = reports["uniform", "even"]
    un_dyn = reports["uniform", "fixed:2"]
    assert un_dyn.makespan_s <= (un_even.makespan_s * OVERHEAD_FACTOR
                                 + OVERHEAD_SLACK_S), (
        f"uniform: dynamic makespan {un_dyn.makespan_s:.3f}s exceeds "
        f"static {un_even.makespan_s:.3f}s by more than the overhead bound"
    )

    info = {}
    for (pattern, policy), rep in reports.items():
        fields = _report_fields(rep)
        info[f"{pattern}_{policy}_cov"] = fields["finish_cov"]
        info[f"{pattern}_{policy}_makespan_s"] = fields["makespan_s"]
    benchmark.extra_info.update(info)


@pytest.mark.parametrize("sharing", SHARINGS)
def test_gadget_imbalance(benchmark, sharing):
    """Gadget with clustered particles: the near-field recomputation
    makes dense-region iterations expensive, so the even decomposition
    is badly imbalanced and dynamic claiming must recover >=2x -- while
    reproducing the static checksum bit-for-bit."""
    def job():
        out = {}
        for sched in ("even", "fixed:2"):
            cfg = GadgetConfig(n_nodes=4, steps=1, particles_per_task=16,
                               schedule=sched, sharing=sharing)
            out[sched] = run_gadget(cfg)
        return out

    results = run_once(benchmark, job)
    even, dyn = results["even"], results["fixed:2"]
    assert dyn.checksum == even.checksum, "dynamic result diverged"
    even_cov = even.loadbalance.mean_finish_cov
    dyn_cov = dyn.loadbalance.mean_finish_cov
    assert even_cov >= 2.0 * dyn_cov, (
        f"gadget: dynamic cov {dyn_cov:.3f} not >=2x better than "
        f"static {even_cov:.3f}"
    )
    even_mk = max(r.makespan_s for r in even.loadbalance.reports)
    dyn_mk = max(r.makespan_s for r in dyn.loadbalance.reports)
    assert dyn_mk <= even_mk * 1.25, (
        f"gadget: dynamic makespan {dyn_mk:.3f}s regressed vs "
        f"static {even_mk:.3f}s"
    )
    info = dict(sharing=sharing, even_cov=round(even_cov, 4),
                dynamic_cov=round(dyn_cov, 4),
                even_makespan_s=round(even_mk, 4),
                dynamic_makespan_s=round(dyn_mk, 4),
                checksum=even.checksum)
    benchmark.extra_info.update(info)


@pytest.mark.parametrize("sharing", SHARINGS)
def test_tachyon_imbalance(benchmark, sharing):
    """Tachyon with per-sphere row culling: rows covered by many
    spheres cost, empty sky is nearly free.  The factoring policy's
    shrinking chunks must cut the imbalance >=2x at identical pixels."""
    def job():
        out = {}
        for sched in ("even", "factoring"):
            cfg = TachyonConfig(n_nodes=4, height=128, seed=9,
                                schedule=sched, sharing=sharing)
            out[sched] = run_tachyon(cfg)
        return out

    results = run_once(benchmark, job)
    even, dyn = results["even"], results["factoring"]
    assert dyn.checksum == even.checksum, "dynamic image diverged"
    even_cov = even.loadbalance.mean_finish_cov
    dyn_cov = dyn.loadbalance.mean_finish_cov
    assert even_cov >= 2.0 * dyn_cov, (
        f"tachyon: dynamic cov {dyn_cov:.3f} not >=2x better than "
        f"static {even_cov:.3f}"
    )
    even_mk = max(r.makespan_s for r in even.loadbalance.reports)
    dyn_mk = max(r.makespan_s for r in dyn.loadbalance.reports)
    assert dyn_mk <= even_mk * 1.25, (
        f"tachyon: dynamic makespan {dyn_mk:.3f}s regressed vs "
        f"static {even_mk:.3f}s"
    )
    info = dict(sharing=sharing, even_cov=round(even_cov, 4),
                dynamic_cov=round(dyn_cov, 4),
                even_makespan_s=round(even_mk, 4),
                dynamic_makespan_s=round(dyn_mk, 4),
                checksum=even.checksum)
    benchmark.extra_info.update(info)


@pytest.mark.timeout(300)
def test_selfsched_smoke_8k_coop(benchmark):
    """8192 tasks self-schedule 16384 iterations under a seeded random
    coop schedule: the claim protocol stays exactly-once at
    four-digit task counts and the wall clock is recorded (this run
    needed the O(1) lock_all/dispatch paths -- it was superquadratic
    before)."""
    n_tasks, n_iters = 8192, 16384

    def job():
        rt = Runtime(core2_cluster(8), n_tasks=n_tasks, timeout=590.0,
                     backend="coop", schedule="random:1234")

        def main(ctx):
            def body(lo, hi):
                return float(hi - lo)
            stats = dynamic_for(ctx, n_iters, body, policy="fixed:2")
            return stats.iterations

        t0 = time.perf_counter()
        res = rt.run(main)
        return rt, res, time.perf_counter() - t0

    rt, res, wall = run_once(benchmark, job)
    assert sum(res) == n_iters, "lost or duplicated iterations at 8k tasks"
    sm = rt.metrics("sched")
    assert sm.stall_recoveries == 0
    info = dict(n_tasks=n_tasks, n_iters=n_iters, wall_s=round(wall, 2),
                context_switches=sm.context_switches,
                decisions=sm.decisions)
    benchmark.extra_info.update(info)
