"""Scope-aware memory arenas unifying HLS, runtime and RMA allocation.

One :class:`MemoryManager` per runtime lazily materialises one bounded
:class:`Arena` per scope instance / task / isomalloc segment, with all
base addresses handed out by a central :class:`BaseAddressRegistry`
(provably disjoint regions -- the three colliding magic base constants
of the pre-arena runtime are gone).  Every allocation call site in the
tree routes through an arena with one kind taxonomy (:data:`KINDS`),
which is what makes per-node / per-level / per-kind accounting and
shutdown-time leak reporting possible.
"""

from repro.memory.arena import Arena, KINDS, LEVEL_SEGMENT, LEVEL_TASK
from repro.memory.manager import (
    LeakRecord,
    LeakReport,
    MemoryManager,
    scope_level,
)
from repro.memory.registry import (
    BaseAddressRegistry,
    DEFAULT_FLOOR,
    DEFAULT_REGION_BYTES,
)

__all__ = [
    "Arena",
    "BaseAddressRegistry",
    "DEFAULT_FLOOR",
    "DEFAULT_REGION_BYTES",
    "KINDS",
    "LEVEL_SEGMENT",
    "LEVEL_TASK",
    "LeakRecord",
    "LeakReport",
    "MemoryManager",
    "scope_level",
]
