"""Loop self-scheduling over per-node chunk counters and one-sided
atomics.

``dynamic_for`` is the entry point; policies and the chunk queue are
exported for direct use and for the property suite.
"""

from repro.scheduler.api import (
    LoopReport,
    TaskLoopStats,
    dynamic_for,
    policy_spec,
)
from repro.scheduler.policy import (
    FactoringPolicy,
    FixedChunkPolicy,
    GuidedPolicy,
    SelfSchedPolicy,
    StaticPolicy,
    make_policy,
)
from repro.scheduler.queue import ChunkQueue, node_chunk_tables, node_layout

__all__ = [
    "ChunkQueue",
    "FactoringPolicy",
    "FixedChunkPolicy",
    "GuidedPolicy",
    "LoopReport",
    "SelfSchedPolicy",
    "StaticPolicy",
    "TaskLoopStats",
    "dynamic_for",
    "make_policy",
    "node_chunk_tables",
    "node_layout",
    "policy_spec",
]
