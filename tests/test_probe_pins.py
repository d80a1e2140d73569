"""Pins on the runtime's instrumentation: where fault sites fire and what
a live trace records.

Two recordings in ``tests/data/probe_pins.json`` hold the behaviour the
instrumentation must keep, whatever shape its plumbing takes:

* **fault hits** -- one plan fires a ``delay`` on *every* hit of every
  site that accepts one, plus a ``reorder`` at ``p2p.post`` and a
  ``transient`` at ``p2p.alloc`` (the one site that takes no delay; it
  is reached only by the process backend's eager buffers).  Because
  every hit fires, the fired-injection log *is* the per-``(site,
  task)`` hit count, so the pin says exactly how often each task
  reached each site.  One program visits every site: point-to-point,
  blocking and nonblocking collectives, the three HLS directives, RMA
  verbs under fence / PSCW / lock epochs, a ``dynamic_for`` and a
  capped storage window that spills and fences.  On coop (``fifo`` and
  ``random:7``) the log and ``snapshot()`` are pinned whole; on threads
  only the sites whose per-task call sequence does not depend on the
  interleaving are.
* **trace events** -- a traced program without HLS directives
  (send / recv / irecv, every blocking collective, ``ibarrier``,
  ``iallreduce``, ``dup``, ``split``, RMA accesses and the ten epoch
  calls); every task's ``Trace.events`` list is pinned whole.

Re-record (only on purpose, with the reason in the change log):
``PYTHONPATH=src python tests/test_probe_pins.py``.
"""

import json
import os
import shutil
import tempfile
from collections import Counter

import numpy as np
import pytest

from repro.analysis import Tracer
from repro.faults import FaultPlan, FaultSpec, SITES
from repro.hls import HLSProgram
from repro.machine import small_test_machine
from repro.runtime import Request, Runtime, SUM, Win
from repro.runtime.process_mpi import ProcessRuntime
from repro.scheduler import dynamic_for
from repro.storage import ChunkStore

PINS = os.path.join(os.path.dirname(__file__), "data", "probe_pins.json")

N = 4
#: two nodes of two cores: tasks 0, 1 on node 0 and 2, 3 on node 1, so
#: the loop has a remote queue to steal from
PINNING = [0, 1, 4, 5]
TIMEOUT = 20.0
#: a hit window no run reaches: the spec fires on every hit
EVERY = 10 ** 6
#: sites whose per-task hit sequence is the same under any interleaving
#: (cells, claims, steals, spills and the RMA atomics behind the loop's
#: claims go to whoever gets there first)
THREAD_STABLE = (
    "p2p.post", "p2p.recv", "coll.sweep", "hls.barrier", "hls.single",
    "hls.nowait", "rma.epoch", "storage.flush",
)

PLAN = FaultPlan(
    [FaultSpec(site=s, action="delay", nth=1, count=EVERY)
     for s, actions in SITES.items() if "delay" in actions]
    + [
        FaultSpec(site="p2p.alloc", action="transient", task=0, nth=1),
        FaultSpec(site="p2p.post", action="reorder", task=1, nth=2,
                  param=0.001),
    ]
)


def machine():
    return small_test_machine(n_nodes=2)


# ------------------------------------------------------------ fault program
def every_site(prog, store):
    def main(ctx):
        c = ctx.comm_world
        r, n = ctx.rank, ctx.size
        right, left = (r + 1) % n, (r - 1) % n
        # point-to-point, blocking and nonblocking
        c.send(("ring", r), dest=right, tag=1)
        out = [c.recv(source=left, tag=1)[1]]
        req = c.irecv(source=left, tag=2)
        c.isend(r * 10, dest=right, tag=2)
        out.append(req.wait())
        # blocking and nonblocking collectives
        out.append(c.allreduce(r, op=SUM))
        c.barrier()
        _, total = Request.waitall([
            c.ibarrier(), c.iallreduce(np.arange(4.0) + r, op=SUM),
        ])
        out.append(float(total[0]))
        # HLS barrier, single, single nowait
        h = prog.attach(ctx)
        if h.single_enter("t"):
            h.get("t")[0] += 1.0
            h.single_done("t")
        h.barrier("t")
        if h.single_enter("t", nowait=True):
            h.get("t")[1] += 1.0
        h.barrier("t")
        out.append(float(h.get("t")[0]))
        # RMA: put / get under fence, accumulate under PSCW,
        # fetch_and_op under a lock, get under lock_all
        win = Win.allocate(c, 4)
        win.fence()
        win.put(np.full(1, float(r)), right, target_disp=0)
        win.fence()
        out.append(float(win.get(r, 1)[0]))
        win.fence_end()
        win.post([left])
        win.start([right])
        win.accumulate(np.ones(1), right, op=SUM, target_disp=1)
        win.complete()
        win.wait()
        win.lock(right, exclusive=True)
        win.fetch_and_op(1.0, right, target_disp=2)
        win.unlock(right)
        c.barrier()
        win.lock_all()
        out.append([float(x) for x in win.get(r, 3)])
        win.unlock_all()
        win.free()
        # self-scheduled loop
        st = dynamic_for(ctx, 48, lambda lo, hi: hi - lo, policy="fixed:2")
        out.append(st.iterations >= 0)
        # capped storage window: spills, faults chunks back, fences
        c.barrier()
        if r == 0:
            for node in (0, 1):
                ctx.runtime.memory.cap_node(node, 256)
        c.barrier()
        sw = Win.allocate_storage(c, 32, store=store, name="w",
                                  chunk_elems=4)
        sw.fence()
        for it in range(2):
            sw.accumulate(np.arange(32.0) + it, right, op=SUM)
            sw.fence()
        out.append(float(sw.get(r)[5]))
        sw.fence_end()
        sw.free()
        if r == 0:      # uncap, so the program can run again
            for node in (0, 1):
                ctx.runtime.memory.node_arena(node).set_capacity(None)
        return out
    return main


def run_every_site(**kw):
    rt = Runtime(machine(), n_tasks=N, timeout=TIMEOUT, pinning=PINNING,
                 **kw)
    rt.install_faults(PLAN)
    prog = HLSProgram(rt)
    prog.declare("t", shape=(2,), scope="node")
    root = tempfile.mkdtemp(prefix="repro-probe-pin-")
    try:
        res = rt.run(every_site(prog, ChunkStore.create(root)))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    prog.close()
    assert rt.metrics("storage").spills > 0, "the cap must force paging"
    return rt, res


def pingpong(ctx):
    c = ctx.comm_world
    if ctx.rank == 0:
        c.send(b"x" * 8, dest=1)
        return c.recv(source=1)
    c.send(c.recv(source=0), dest=0)
    return None


def run_alloc(**kw):
    """``p2p.alloc`` lives on the process backend's lazy eager buffers."""
    rt = ProcessRuntime(machine(), n_tasks=2, timeout=TIMEOUT, **kw)
    rt.install_faults(PLAN)
    rt.run(pingpong)
    return rt


def hit_counts(log):
    """The log as per-``(site, task)`` delay counts (every hit fires one)
    plus the entries of every other action, checking the delays run
    1..k without a gap."""
    counts = Counter((s, t) for s, t, _, a in log if a == "delay")
    for (s, t), k in counts.items():
        assert sorted(n for s2, t2, n, a in log
                      if (s2, t2, a) == (s, t, "delay")) == list(range(1, k + 1))
    return {
        "counts": {f"{s}/{t}": k for (s, t), k in sorted(counts.items())},
        "other": [list(e) for e in log if e[3] != "delay"],
    }


def fault_record(rt):
    return dict(hit_counts(rt.faults.sorted_log()),
                snapshot=rt.faults.snapshot())


# ------------------------------------------------------------ trace program
def traced(ctx):
    c = ctx.comm_world
    r, n = ctx.rank, ctx.size
    right, left = (r + 1) % n, (r - 1) % n
    c.send(r, dest=right, tag=3)
    c.recv(source=left, tag=3)
    req = c.irecv(source=left, tag=4)
    c.send(r, dest=right, tag=4)
    req.wait()
    c.barrier()
    c.bcast("b" if r == 0 else None, root=0)
    c.gather(r, root=1)
    c.allgather(r)
    c.scatter(list(range(n)) if r == 2 else None, root=2)
    c.reduce(r, op=SUM, root=3)
    c.allreduce(r, op=SUM)
    c.scan(r, op=SUM)
    c.alltoall([r] * n)
    c.reduce_scatter([r] * n, op=SUM)
    Request.waitall([c.ibarrier(), c.iallreduce(np.ones(2) * r, op=SUM)])
    d = c.dup()
    d.allreduce(r, op=SUM)
    s = c.split(r % 2)
    s.barrier()
    win = Win.allocate(c, 4)
    win.fence()
    win.put(np.full(1, float(r)), right)
    win.fence()
    win.get(left, 1)
    win.fence_end()
    win.post([left])
    win.start([right])
    win.accumulate(np.ones(1), right, op=SUM, target_disp=1)
    win.complete()
    win.wait()
    win.lock(right)
    win.fetch_and_op(1.0, right, target_disp=2)
    win.unlock(right)
    win.lock_all()
    win.compare_and_swap(0.0, 1.0, right, target_disp=3)
    win.unlock_all()
    win.free()


def event_record(ev):
    fields = ("peer", "tag", "seq", "context", "epoch", "op", "group",
              "win", "value")
    rec = {"kind": ev.kind.value}
    for f in fields:
        v = getattr(ev, f)
        if v is not None:
            rec[f] = list(v) if isinstance(v, tuple) else v
    return rec


def run_traced(**kw):
    rt = Runtime(machine(), n_tasks=N, timeout=TIMEOUT, pinning=PINNING,
                 **kw)
    tracer = Tracer(N)
    rt.tracer = tracer
    rt.run(traced)
    return [[event_record(ev) for ev in seq] for seq in tracer.trace.events]


# ------------------------------------------------------------------- pins
def record():
    return {
        "faults": {
            sched: dict(fault_record(run_every_site(
                backend="coop", schedule=sched)[0]),
                alloc=fault_record(run_alloc(backend="coop",
                                             schedule=sched)))
            for sched in ("fifo", "random:7")
        },
        "trace": run_traced(backend="coop"),
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def as_json(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("sched", ["fifo", "random:7"])
def test_fault_hits_pinned_on_coop(pins, sched):
    rt, res = run_every_site(backend="coop", schedule=sched)
    want = pins["faults"][sched]
    got = as_json(fault_record(rt))
    assert got["counts"] == want["counts"]
    assert got["other"] == want["other"]
    assert got["snapshot"] == want["snapshot"]
    assert as_json(fault_record(
        run_alloc(backend="coop", schedule=sched))) == want["alloc"]
    # every site the plan names was reached
    sites = {k.split("/")[0] for k in want["counts"]} | {"p2p.alloc"}
    assert sites == set(SITES)


def test_fault_hits_pinned_on_threads(pins):
    rt, _ = run_every_site(backend="threads")
    got = as_json(fault_record(rt))
    want = pins["faults"]["fifo"]
    stable = {k: v for k, v in want["counts"].items()
              if k.split("/")[0] in THREAD_STABLE}
    assert {k: v for k, v in got["counts"].items()
            if k.split("/")[0] in THREAD_STABLE} == stable
    assert got["other"] == [e for e in want["other"]
                            if e[0] in THREAD_STABLE]


@pytest.mark.parametrize("backend", ["threads", "coop"])
def test_trace_events_pinned(pins, backend):
    assert as_json(run_traced(backend=backend)) == pins["trace"]


if __name__ == "__main__":
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")
