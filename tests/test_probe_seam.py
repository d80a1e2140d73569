"""The probe seam: every fault site and trace point reads ``Runtime.probe``
live (DESIGN.md section 10).

* a fault plan installed *after* a run built the mailboxes, collective
  engines, HLS scope states, windows and store reaches every site, with
  the same per-site hit counts as a plan installed before the first run;
* HLS ``barrier`` and ``single`` appear in live traces as
  ``EventKind.HLS_SYNC`` episodes with barrier-strength edges, and
  ``single nowait`` adds none;
* the seam has one shape: no component keeps a copy of the injector, the
  tracer has one runtime hook, and DESIGN.md lists every site.
"""

import hashlib
import inspect
import os
import re
import shutil
import tempfile

import pytest

from repro.analysis import HappensBefore, Tracer
from repro.analysis.coherence import check_variable
from repro.analysis.events import EventKind
from repro.faults import FaultPlan, FaultSpec, SITES
from repro.hls import HLSProgram
from repro.hls.program import HLSHandle
from repro.hls.sync import ScopeSyncState
from repro.runtime import InjectedCrash, Runtime, SUM
from repro.runtime.icoll import IcollState
from repro.runtime.message import Mailbox
from repro.runtime.process_mpi import ProcessRuntime
from repro.storage import ChunkStore
from tests.test_probe_pins import (
    EVERY, N, PINNING, TIMEOUT, every_site, machine,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: counts every hit of every site and changes nothing: a zero delay
#: everywhere, and a transient window at p2p.alloc no run reaches
COUNTING = FaultPlan(
    [FaultSpec(site=s, action="delay", nth=1, count=EVERY)
     for s, actions in SITES.items() if "delay" in actions]
    + [FaultSpec(site="p2p.alloc", action="transient", nth=EVERY)]
)


# -------------------------------------------------------- late install
def site_hits(inj):
    """Per-site hits so far: every delay fires (one log entry per hit);
    p2p.alloc, whose spec never fires, is the rest of the total."""
    hits = {s: 0 for s in SITES}
    for site, _, _, _ in inj.sorted_log():
        hits[site] += 1
    hits["p2p.alloc"] = inj.snapshot()["hits"] - sum(hits.values())
    return hits


def exchange(ctx, a, b):
    """``a`` and ``b`` swap one message: a first message on a connection
    is what reaches p2p.alloc, so each run uses a fresh pair."""
    c = ctx.comm_world
    if ctx.rank in (a, b):
        c.send(ctx.rank, dest=a + b - ctx.rank)
        c.recv(source=a + b - ctx.rank)


def second_run_hits(late):
    """Hits of the second of two runs of the every-site program on one
    runtime (plus a fresh-pair exchange on the process backend), with
    the plan installed before the first run or between the two."""
    rt = Runtime(machine(), n_tasks=N, timeout=TIMEOUT, pinning=PINNING,
                 backend="coop")
    prt = ProcessRuntime(machine(), n_tasks=N, timeout=TIMEOUT,
                         backend="coop")
    prog = HLSProgram(rt)
    prog.declare("t", shape=(2,), scope="node")

    def hits():
        per_rt = [site_hits(r.faults) for r in (rt, prt)]
        return {s: sum(h[s] for h in per_rt) for s in SITES}

    before = {s: 0 for s in SITES}
    for run in range(2):
        if run == int(late):
            rt.install_faults(COUNTING)
            prt.install_faults(COUNTING)
        if run == 1 and not late:
            before = hits()
        root = tempfile.mkdtemp(prefix="repro-probe-seam-")
        try:
            rt.run(every_site(prog, ChunkStore.create(root)))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        prt.run(exchange, 2 * run, 2 * run + 1)
    prog.close()
    after = hits()
    return {s: after[s] - before[s] for s in SITES}


@pytest.fixture(scope="module")
def early_and_late():
    return second_run_hits(late=False), second_run_hits(late=True)


@pytest.mark.parametrize("site", list(SITES))
def test_plan_installed_between_runs_reaches_every_site(early_and_late, site):
    early, late = early_and_late
    assert early[site] > 0, f"the program must visit {site}"
    assert late[site] == early[site]


def test_late_crash_at_hls_barrier_fires():
    """The reproduction: one run builds the scope state, then a crash
    plan at hls.barrier must still fire at hit 1."""
    rt = Runtime(machine(), n_tasks=N, timeout=TIMEOUT, pinning=PINNING)
    prog = HLSProgram(rt)
    prog.declare("t", shape=(1,), scope="node")

    def main(ctx):
        prog.attach(ctx).barrier("t")

    rt.run(main)
    rt.install_faults(FaultPlan.single("hls.barrier", "crash", task=0, nth=1))
    with pytest.raises(InjectedCrash, match="at hls.barrier hit 1"):
        rt.run(main)
    assert rt.faults.snapshot()["injections"] == 1
    prog.close()


# ---------------------------------------------------- HLS in live traces
def traced_run(main, *, programs=1, **kw):
    """``main(ctx, tracer, *programs)`` traced, every task on node 0."""
    rt = Runtime(machine(), n_tasks=N, timeout=TIMEOUT, **kw)
    tracer = Tracer(N)
    rt.tracer = tracer
    progs = []
    for _ in range(programs):
        prog = HLSProgram(rt)
        prog.declare("t", shape=(1,), scope="node")
        progs.append(prog)
    results = rt.run(main, tracer, *progs)
    for prog in progs:
        prog.close()
    return tracer.trace, results


def only(trace, kind, var=None, task=None):
    evs = [ev for ev in trace.all_events() if ev.kind is kind
           and (var is None or ev.var == var)
           and (task is None or ev.task == task)]
    assert len(evs) == 1, evs
    return evs[0]


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_barrier_orders_a_write_before_a_read(backend):
    """Rank 0's write before ``h.barrier`` precedes rank 1's read after
    it, so the read is coherent without added synchronisation."""
    def main(ctx, tracer, prog):
        h = prog.attach(ctx)
        if ctx.rank == 0:
            tracer.write(0, "x", 1)
        h.barrier("t")
        if ctx.rank == 1:
            tracer.read(1, "x", 1)

    trace, _ = traced_run(main, backend=backend)
    hb = HappensBefore(trace)
    w = only(trace, EventKind.WRITE, "x")
    r = only(trace, EventKind.READ, "x")
    assert hb.precedes(w, r)
    assert check_variable(hb, trace, "x", initial_value=0).eligible_without_sync
    syncs = [ev for ev in trace.all_events() if ev.kind is EventKind.HLS_SYNC]
    # every task joins the arrival and the release episode
    assert sorted(ev.op for ev in syncs) == ["hls.barrier"] * N + [
        "hls.release"] * N
    assert {(ev.context, ev.epoch) for ev in syncs} == {
        ("hls0:node#0", 0), ("hls0:node#0", 1)}


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_single_orders_arrivals_block_and_exits(backend):
    """Every rank's event before ``single_enter`` precedes the
    executor's block, and the block precedes every rank's event after
    the directive."""
    def main(ctx, tracer, prog):
        h = prog.attach(ctx)
        tracer.write(ctx.rank, f"pre{ctx.rank}", 1)
        executed = h.single_enter("t")
        if executed:
            tracer.write(ctx.rank, "x", 1)
            h.single_done("t")
        tracer.read(ctx.rank, "x", 1)
        return executed

    trace, executed = traced_run(main, backend=backend)
    assert executed.count(True) == 1
    hb = HappensBefore(trace)
    w = only(trace, EventKind.WRITE, "x")
    for rank in range(N):
        assert hb.precedes(only(trace, EventKind.WRITE, f"pre{rank}"), w)
        r = only(trace, EventKind.READ, "x", task=rank)
        if rank != w.task:
            assert hb.precedes(w, r)
    assert check_variable(hb, trace, "x", initial_value=0).eligible_without_sync


def test_single_nowait_adds_no_edge():
    def main(ctx, tracer, prog):
        h = prog.attach(ctx)
        if ctx.rank == 0:
            tracer.write(0, "x", 1)
        h.single_enter("t", nowait=True)
        if ctx.rank == 1:
            tracer.read(1, "x", 1)

    trace, _ = traced_run(main, backend="coop")
    assert not [ev for ev in trace.all_events()
                if ev.kind is EventKind.HLS_SYNC]
    hb = HappensBefore(trace)
    assert hb.parallel(only(trace, EventKind.WRITE, "x"),
                       only(trace, EventKind.READ, "x"))


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_directives_and_collectives_build_one_acyclic_graph(backend):
    """HLS episodes of two programs on one scope instance, collectives
    and messages in one trace: distinct episode keys, no cycle."""
    def main(ctx, tracer, p1, p2):
        c = ctx.comm_world
        # ctx.hls holds the first program's handle; build the second's
        h1, h2 = p1.attach(ctx), HLSHandle(p2, ctx)
        tracer.write(ctx.rank, f"start{ctx.rank}", 0)
        for it in range(3):
            h1.barrier("t")
            c.allreduce(ctx.rank, op=SUM)
            if h2.single_enter("t"):
                h2.single_done("t")
            h2.barrier("t")
            c.send(it, dest=(ctx.rank + 1) % ctx.size)
            c.recv(source=(ctx.rank - 1) % ctx.size)
            if h1.single_enter("t"):
                h1.single_done("t")
            c.barrier()
        tracer.read(ctx.rank, f"start{(ctx.rank + 1) % ctx.size}", 0)

    trace, _ = traced_run(main, programs=2, backend=backend)
    hb = HappensBefore(trace)            # raises TraceError on a cycle
    hls = [ev for ev in trace.all_events() if ev.kind is EventKind.HLS_SYNC]
    coll = [ev for ev in trace.all_events() if ev.kind is EventKind.COLLECTIVE]
    assert all(isinstance(ev.context, str) for ev in hls)
    assert len({ev.context for ev in hls}) == 2      # one per program
    assert not {(e.context, e.epoch) for e in hls} & {
        (e.context, e.epoch) for e in coll}
    # the first HLS barrier already orders every task's start before
    # every task's end
    for a in range(N):
        for b in range(N):
            assert hb.precedes(trace.events[a][0], trace.events[b][-1])


# ------------------------------------------------------ one shape, pinned
def test_no_component_takes_or_keeps_an_injector():
    for cls in (Mailbox, IcollState, ScopeSyncState):
        assert "faults" not in inspect.signature(cls).parameters, cls
    rt = Runtime(machine(), n_tasks=N, pinning=PINNING)
    rt.install_faults(COUNTING)
    prog = HLSProgram(rt)
    prog.declare("t", shape=(1,), scope="node")
    rt.run(lambda ctx: prog.attach(ctx).barrier("t"))
    holders = [rt.mailbox(0), rt.icoll_state(rt._world_context, N),
               *prog.sync._states.values()]
    for obj in holders:
        assert all(v is not rt.faults for v in vars(obj).values()), obj
    prog.close()


def test_tracer_has_one_runtime_hook():
    hooks = [name for name in vars(Tracer)
             if not name.startswith("_") and name not in ("read", "write")]
    assert hooks == ["record"]


def src_files():
    base = os.path.join(ROOT, "src", "repro")
    for d, _, files in os.walk(base):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, ROOT), fh.read()


def test_sites_call_the_probe_not_the_injector():
    """The CI guard, as a tier-1 test: only the probe's module touches
    ``FaultInjector.hit``, the tracer's per-kind hooks are gone, and no
    ``_hit`` helper is left."""
    probe_module = os.path.join("src", "repro", "runtime", "runtime.py")
    for path, text in src_files():
        if path != probe_module:
            assert "faults.hit(" not in text, path
        assert not re.search(
            r"record_(send|recv|collective|rma|epoch)|register_task", text
        ), path
        assert "def _hit(" not in text, path


def test_design_section_10_lists_every_site():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## 10.")
    section = text[start:text.index("\n## 11.", start)]
    rows = set(re.findall(r"^\| `([a-z0-9_.]+)`", section, re.M))
    assert set(SITES) <= rows
    assert {"p2p.send", "p2p.deliver", "coll.call", "hls.sync"} <= rows


def test_probe_is_one_attribute_that_follows_installs():
    rt = Runtime(machine(), n_tasks=2)
    assert rt.probe is None
    tracer = Tracer(2)
    rt.tracer = tracer
    assert rt.probe == tracer.record
    inj = rt.install_faults(FaultPlan.single("p2p.post", "delay"))
    both = rt.probe
    assert both not in (None, tracer.record, inj.hit)
    rt.tracer = None
    assert rt.probe == inj.hit


def test_plan_draws_are_unchanged():
    """Sites keep their keys, order and actions, so seeded plans draw
    the same specs: the digest of seeds 0-99 is pinned."""
    three = ("delay", "crash", "wake")
    assert list(SITES.items()) == [
        ("p2p.post", ("delay", "crash", "reorder", "wake", "clone_fail")),
        ("p2p.recv", ("delay", "crash")),
        ("p2p.alloc", ("transient",)),
        ("coll.sweep", three), ("coll.ichunk", three),
        ("hls.barrier", three), ("hls.single", three), ("hls.nowait", three),
        ("rma.put", three), ("rma.get", three), ("rma.epoch", three),
        ("sched.claim", three),
        ("storage.read", three), ("storage.write", three),
        ("storage.flush", three),
    ]
    plans = "\n".join(FaultPlan.random(s, 8).to_json() for s in range(100))
    assert hashlib.sha256(plans.encode()).hexdigest() == (
        "09f05d42192202143a40446abda0aadf56d31ec41535476b5084b900be6cc2a7")
