"""Pins on the numbers the five paper drivers print.

``tests/data/apps_pinned.json`` holds what every paper driver returns
for a small fixed set of configurations, so a change to how the drivers
are put together (runtime, HLS program, tables, sampler, placement) has
to keep every observable bit for bit:

* **Tables II-IV** -- every row of ``run_table2/3/4(core_counts=(16,))``
  plus EulerMHD with ``sharing="shared"``, Gadget on ``openmpi`` without
  the all-pairs exchange and Tachyon HLS with ``sharing="shared"``: the
  checksum, ``mem`` (average, maximum and per-node bytes as ``repr``),
  every ``CommStats`` counter, the modelled time and the end-of-run
  ``memory_metrics.snapshot()``.
* **self-scheduled Tables III-IV rows** -- which task runs a chunk is
  the OS's choice, so ``chunks_stolen`` and the elided counts move from
  run to run; these rows pin only the checksum, ``mem`` and whether a
  load-balance report came back.
* **Table I** -- the small mesh, ``node`` and ``numa`` variants, update
  on and off, ``read_cap=64``.  The ``none`` variant places private
  tables in thread-arrival order and is left out.
* **Figure 3** -- ``n=8``, ``tasks=16``, all four variants, update on
  and off.

Re-record (only on purpose, with the reason in the change log):
``PYTHONPATH=src python tests/test_apps_pinned.py``.
"""

import json
import os
from dataclasses import asdict

import pytest

from repro.apps import (
    EulerMHDConfig,
    GadgetConfig,
    MatmulConfig,
    MeshUpdateConfig,
    TachyonConfig,
    run_eulermhd,
    run_gadget,
    run_matmul,
    run_mesh_update,
    run_tachyon,
)
from repro.experiments import run_table2, run_table3, run_table4

PINS = os.path.join(os.path.dirname(__file__), "data", "apps_pinned.json")

CORES = (16,)
EXTRA_ROWS = {
    "eulermhd/shared": (
        run_eulermhd, EulerMHDConfig(n_nodes=2, sharing="shared")),
    "gadget/openmpi-no-all-peers": (
        run_gadget, GadgetConfig(n_nodes=2, runtime="openmpi",
                                 connect_all_peers=False)),
    "tachyon/hls-shared": (
        run_tachyon, TachyonConfig(n_nodes=2, hls=True, sharing="shared")),
}
DYNAMIC_ROWS = {
    "gadget/guided": (
        run_gadget, GadgetConfig(n_nodes=2, hls=True, schedule="guided")),
    "tachyon/guided": (
        run_tachyon, TachyonConfig(n_nodes=2, hls=True, schedule="guided")),
}


def num(x):
    return repr(float(x))


def mem_of(res):
    mem = res.mem
    return repr((mem.avg_bytes, mem.max_bytes,
                 sorted(mem.per_node_avg.items())))


def app_row(res):
    return {
        "checksum": num(res.checksum),
        "mem": mem_of(res),
        "comm": asdict(res.comm),
        "modeled_time_s": num(res.modeled_time_s),
        "memory_metrics": res.memory_metrics.snapshot(),
        "loadbalance": res.loadbalance is not None,
    }


def dynamic_row(res):
    return {
        "checksum": num(res.checksum),
        "mem": mem_of(res),
        "loadbalance": res.loadbalance is not None,
    }


def record_tables():
    out = {}
    for name, run in (("table2", run_table2), ("table3", run_table3),
                      ("table4", run_table4)):
        for (cores, label), res in sorted(run(core_counts=CORES).rows.items()):
            out[f"{name}/{cores}/{label}"] = app_row(res)
    for name, (run, cfg) in EXTRA_ROWS.items():
        out[name] = app_row(run(cfg))
    for name, (run, cfg) in DYNAMIC_ROWS.items():
        out[name] = dynamic_row(run(cfg))
    return out


def record_table1():
    out = {}
    for update in (False, True):
        for variant in ("node", "numa"):
            res = run_mesh_update(MeshUpdateConfig(
                size="small", update=update, variant=variant, read_cap=64))
            out[f"{variant}/update={update}"] = {
                "efficiency": num(res.efficiency),
                "seq_cycles": num(res.seq_cycles),
                "par_cycles": num(res.par_cycles),
                "table_miss_ratio": num(res.table_miss_ratio),
                "invalidations": res.invalidations,
            }
    return out


def record_figure3():
    out = {}
    for update in (False, True):
        for variant in ("seq", "none", "node", "numa"):
            res = run_matmul(MatmulConfig(
                n=8, tasks=16, update=update, variant=variant))
            out[f"{variant}/update={update}"] = {
                "perf": num(res.perf),
                "cycles": num(res.cycles),
                "flops": num(res.flops),
            }
    return out


RECORDERS = {
    "tables": record_tables,
    "table1": record_table1,
    "figure3": record_figure3,
}


def record():
    return {name: rec() for name, rec in RECORDERS.items()}


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("part", sorted(RECORDERS))
def test_paper_driver_numbers_pinned(pins, part):
    got = json.loads(json.dumps(RECORDERS[part]()))
    want = pins[part]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")
