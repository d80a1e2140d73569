"""Unit tests for the collective-operation counters."""

import threading

from repro.metrics import CollectiveMetrics


class TestCounting:
    def test_starts_at_zero(self):
        m = CollectiveMetrics()
        assert m.snapshot() == {
            "clones": 0,
            "clones_elided": 0,
            "icoll_episodes": {},
            "icoll_cells": 0,
            "icoll_steals": 0,
        }

    def test_icoll_counters(self):
        m = CollectiveMetrics()
        m.note_icoll_episode("pipelined")
        m.note_icoll_episode("pipelined")
        m.note_icoll_episode("flat")
        m.note_icoll_cell(stolen=False)
        m.note_icoll_cell(stolen=True)
        snap = m.snapshot()
        assert snap["icoll_episodes"] == {"pipelined": 2, "flat": 1}
        assert snap["icoll_cells"] == 2
        assert snap["icoll_steals"] == 1
        assert "icoll cells" in m.render()

    def test_clone_and_elision_counters(self):
        m = CollectiveMetrics()
        for _ in range(3):
            m.note_clone()
        m.note_elision()
        snap = m.snapshot()
        assert snap["clones"] == 3
        assert snap["clones_elided"] == 1

    def test_snapshot_is_detached(self):
        m = CollectiveMetrics()
        m.note_icoll_episode("flat")
        snap = m.snapshot()
        m.note_icoll_episode("flat")
        assert snap["icoll_episodes"] == {"flat": 1}
        assert m.icoll_episodes == {"flat": 2}


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        m = CollectiveMetrics()
        n_threads, iters = 8, 500

        def body():
            for _ in range(iters):
                m.note_icoll_episode("pipelined")
                m.note_clone()
                m.note_elision()

        ts = [threading.Thread(target=body) for _ in range(n_threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert m.icoll_episodes["pipelined"] == n_threads * iters
        assert m.clones == n_threads * iters
        assert m.clones_elided == n_threads * iters


class TestRendering:
    def test_render_mentions_every_counter(self):
        m = CollectiveMetrics()
        m.note_icoll_episode("flat")
        m.note_icoll_episode("pipelined")
        m.note_clone()
        text = m.render()
        assert "icoll episodes[flat]" in text
        assert "icoll episodes[pipelined]" in text
        for counter in ("clones", "clones elided", "icoll cells",
                        "icoll cells stolen"):
            assert counter in text
