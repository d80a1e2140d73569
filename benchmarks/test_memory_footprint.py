"""Arena-layer footprint bench: Table II smoke with full attribution.

Runs the EulerMHD Table II variants under both backends and, for MPC,
both ``sharing`` policies, and reports *where* the bytes live -- the
per-hierarchy-level and per-kind breakdowns the memory manager
attributes -- in ``extra_info``.  Asserts the
paper's ordering (HLS < MPC < Open MPI per node) and that the arena
accounting is internally consistent (levels sum to node totals).
"""

import pytest

from benchmarks.conftest import run_once
from repro.apps.eulermhd import EulerMHDConfig, run_eulermhd

NODES = 4

VARIANTS = [
    ("mpc_hls_private", "mpc", True, "private"),
    ("mpc_hls_shared", "mpc", True, "shared"),
    ("mpc_private", "mpc", False, "private"),
    ("mpc_shared", "mpc", False, "shared"),
    ("openmpi", "openmpi", False, "private"),
]


@pytest.mark.parametrize("label,runtime,hls,sharing", VARIANTS)
def test_footprint_variant(benchmark, label, runtime, hls, sharing):
    cfg = EulerMHDConfig(
        n_nodes=NODES, runtime=runtime, hls=hls, sharing=sharing
    )
    result = run_once(benchmark, run_eulermhd, cfg)
    metrics = result.memory_metrics
    assert metrics is not None
    # arena accounting is internally consistent
    for node, total in metrics.per_node.items():
        assert sum(metrics.per_node_by_level[node].values()) == total
    by_level_mb = {
        lvl: round(size / (1 << 20), 2)
        for lvl, size in metrics.by_level.items()
    }
    by_kind_mb = {
        kind: round(size / (1 << 20), 2)
        for kind, size in metrics.by_kind.items()
    }
    benchmark.extra_info["avg_mb_per_node"] = round(result.mem.avg_mb)
    benchmark.extra_info["by_level_mb"] = by_level_mb
    benchmark.extra_info["by_kind_mb"] = by_kind_mb
    assert result.mem.avg_bytes > 0


def test_footprint_ordering(benchmark):
    """The paper's per-node ordering: MPC HLS < MPC < Open MPI."""

    def run_three():
        return tuple(
            run_eulermhd(EulerMHDConfig(n_nodes=NODES, runtime=rt, hls=h))
            for rt, h in (("mpc", True), ("mpc", False), ("openmpi", False))
        )

    hls, mpc, ompi = run_once(benchmark, run_three)
    benchmark.extra_info["hls_mb"] = round(hls.mem.avg_mb)
    benchmark.extra_info["mpc_mb"] = round(mpc.mem.avg_mb)
    benchmark.extra_info["openmpi_mb"] = round(ompi.mem.avg_mb)
    assert hls.mem.avg_bytes < mpc.mem.avg_bytes < ompi.mem.avg_bytes
    # HLS moves the EOS table out of per-task app bytes into one
    # node-level hls image per node
    assert hls.memory_metrics.by_kind.get("hls", 0) > 0
    assert (
        hls.memory_metrics.by_kind["app"]
        < mpc.memory_metrics.by_kind["app"]
    )


def test_sharing_policy_footprint_neutral(benchmark):
    """The zero-copy ``sharing`` policy changes copy counts, not the
    memory footprint: both policies must report identical arena totals."""

    def run_pair():
        return (
            run_eulermhd(EulerMHDConfig(n_nodes=NODES, sharing="private")),
            run_eulermhd(EulerMHDConfig(n_nodes=NODES, sharing="shared")),
        )

    private, shared = run_once(benchmark, run_pair)
    assert private.memory_metrics.per_node == shared.memory_metrics.per_node
    assert private.memory_metrics.by_level == shared.memory_metrics.by_level
