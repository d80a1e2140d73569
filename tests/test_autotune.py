"""The trajectory-driven collective tuner: row matching, nearest-config
selection, static fallback, and the runtime's ``algorithm="auto"``
plumbing end-to-end."""

import json

import numpy as np
import pytest

from repro.machine import core2_cluster
from repro.runtime import Runtime
from repro.runtime.autotune import (
    PIPELINE_MIN_BYTES,
    STATIC_CHUNK_BYTES,
    CollectiveTuner,
)


def row(op="ibcast", algorithm="pipelined", chunk=65536, payload=1 << 20,
        n=32, sharing="private", t=0.01):
    return {
        "op": op, "algorithm": algorithm, "chunk_bytes": chunk,
        "payload_bytes": payload, "n_tasks": n, "sharing": sharing,
        "time_s": t,
    }


def write_bench(path, rows):
    path.write_text(json.dumps([{"timestamp": "t0", "results": rows}]))
    return str(path)


class TestSelection:
    def test_picks_fastest_algorithm_at_measured_point(self):
        tuner = CollectiveTuner([
            row(algorithm="flat", chunk=0, t=0.100),
            row(algorithm="hierarchical", chunk=0, t=0.050),
            row(algorithm="pipelined", chunk=65536, t=0.010),
        ])
        algo, chunk = tuner.select("ibcast", 1 << 20, 32, "private")
        assert (algo, chunk) == ("pipelined", 65536)

    def test_nearest_in_log_space_wins(self):
        """A 3 MiB request on 24 tasks must match the 4 MiB x 32-task
        measurement, not the 1 KiB x 2-task one."""
        tuner = CollectiveTuner([
            row(payload=1 << 10, n=2, algorithm="flat", chunk=0, t=0.001),
            row(payload=4 << 20, n=32, algorithm="pipelined",
                chunk=1 << 18, t=0.02),
        ])
        algo, chunk = tuner.select("ibcast", 3 << 20, 24, "private")
        assert (algo, chunk) == ("pipelined", 1 << 18)

    def test_sharing_dimension_is_respected(self):
        tuner = CollectiveTuner([
            row(sharing="private", algorithm="pipelined", t=0.01),
            row(sharing="shared", algorithm="flat", chunk=0, t=0.001),
        ])
        assert tuner.select("ibcast", 1 << 20, 32, "shared")[0] == "flat"
        assert tuner.select("ibcast", 1 << 20, 32, "private")[0] == "pipelined"

    def test_op_dimension_is_respected(self):
        tuner = CollectiveTuner([
            row(op="ibcast", algorithm="pipelined", t=0.01),
            row(op="iallreduce", algorithm="hierarchical", chunk=0, t=0.01),
        ])
        assert tuner.select("iallreduce", 1 << 20, 32, "private")[0] == \
            "hierarchical"

    def test_unknown_op_falls_back_to_static(self):
        tuner = CollectiveTuner([row(op="ibcast")])
        algo, chunk = tuner.select("ialltoall", 2 << 20, 32, "private")
        assert (algo, chunk) == ("pipelined", STATIC_CHUNK_BYTES)

    def test_malformed_rows_are_dropped(self):
        tuner = CollectiveTuner([
            {"op": "ibcast", "algorithm": "quantum"},
            {"nonsense": True},
            row(algorithm="hierarchical", chunk=0),
        ])
        assert len(tuner.rows) == 1
        assert tuner.select("ibcast", 1 << 20, 32, "private")[0] == \
            "hierarchical"


class TestStaticFallback:
    def test_large_payload_many_tasks_pipelines(self):
        algo, chunk = CollectiveTuner.static_select(
            "ibcast", PIPELINE_MIN_BYTES, 8
        )
        assert (algo, chunk) == ("pipelined", STATIC_CHUNK_BYTES)

    def test_wide_comm_small_payload_goes_hierarchical(self):
        assert CollectiveTuner.static_select("ibcast", 1024, 64) == \
            ("hierarchical", 0)

    def test_small_everything_goes_flat(self):
        assert CollectiveTuner.static_select("ibcast", 1024, 4) == ("flat", 0)


class TestLoading:
    def test_missing_file_yields_empty_tuner(self, tmp_path):
        tuner = CollectiveTuner.from_bench(str(tmp_path / "nope.json"))
        assert tuner.rows == []
        # empty tuner still selects (static fallback)
        assert tuner.select("ibcast", 4 << 20, 32, "private")[0] == "pipelined"

    def test_corrupt_file_yields_empty_tuner(self, tmp_path):
        p = tmp_path / "BENCH_collectives.json"
        p.write_text("{not json")
        assert CollectiveTuner.from_bench(str(p)).rows == []

    def test_reads_appended_run_history(self, tmp_path):
        p = tmp_path / "BENCH_collectives.json"
        p.write_text(json.dumps([
            {"timestamp": "t0", "results": [row(algorithm="flat", chunk=0,
                                               t=0.5)]},
            {"timestamp": "t1", "results": [row(algorithm="pipelined",
                                               t=0.01)]},
        ]))
        tuner = CollectiveTuner.from_bench(str(p))
        assert len(tuner.rows) == 2
        assert tuner.select("ibcast", 1 << 20, 32, "private")[0] == "pipelined"

    def test_env_override(self, tmp_path, monkeypatch):
        p = write_bench(tmp_path / "elsewhere.json",
                        [row(algorithm="hierarchical", chunk=0)])
        monkeypatch.setenv("REPRO_BENCH_COLLECTIVES", p)
        assert CollectiveTuner.from_bench().rows[0]["algorithm"] == \
            "hierarchical"


class TestRuntimeAuto:
    def test_auto_is_accepted_and_resolves_blocking_engine(self):
        rt = Runtime(core2_cluster(1), n_tasks=4, algorithm="auto")
        # blocking calls run on the engine too: auto picks their shape
        assert rt.run(lambda ctx: ctx.comm_world.allreduce(1)) == [4] * 4
        assert sum(rt.collective_metrics.icoll_episodes.values()) == 1

    def test_auto_selects_measured_winner(self, tmp_path, monkeypatch):
        """End-to-end: history says flat wins ibcast at this config;
        the runtime's auto selector must plan a flat episode."""
        p = write_bench(tmp_path / "BENCH_collectives.json", [
            row(op="ibcast", algorithm="flat", chunk=0, payload=4096,
                n=8, t=0.001),
            row(op="ibcast", algorithm="pipelined", payload=4096, n=8,
                t=0.9),
        ])
        monkeypatch.setenv("REPRO_BENCH_COLLECTIVES", p)
        rt = Runtime(core2_cluster(1), n_tasks=8, algorithm="auto")
        data = np.zeros(512)          # 4096 bytes

        def main(ctx):
            return ctx.comm_world.ibcast(
                data if ctx.rank == 0 else None, root=0
            ).wait()

        rt.run(main)
        snap = rt.collective_metrics.snapshot()
        assert snap["icoll_episodes"] == {"flat": 1}

    def test_auto_without_history_uses_static_heuristic(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv(
            "REPRO_BENCH_COLLECTIVES", str(tmp_path / "absent.json")
        )
        rt = Runtime(core2_cluster(1), n_tasks=8, algorithm="auto")

        def main(ctx):
            big = np.zeros(1 << 18)   # 2 MiB >= pipeline threshold
            return ctx.comm_world.iallreduce(big).wait()[0]

        assert rt.run(main) == [0.0] * 8
        snap = rt.collective_metrics.snapshot()
        assert snap["icoll_episodes"] == {"pipelined": 1}

    def test_explicit_algorithm_overrides_auto(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_BENCH_COLLECTIVES", str(tmp_path / "absent.json")
        )
        rt = Runtime(core2_cluster(1), n_tasks=4, algorithm="auto")

        def main(ctx):
            return ctx.comm_world.ibcast(
                "x" if ctx.rank == 0 else None, root=0,
                algorithm="hierarchical",
            ).wait()

        assert rt.run(main) == ["x"] * 4
        snap = rt.collective_metrics.snapshot()
        assert snap["icoll_episodes"] == {"hierarchical": 1}

    def test_unknown_algorithm_still_rejected(self):
        from repro.runtime import MPIError

        with pytest.raises(MPIError):
            Runtime(core2_cluster(1), n_tasks=2, algorithm="quantum")
