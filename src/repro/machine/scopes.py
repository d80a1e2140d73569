"""HLS scope kinds and scope instances.

The paper defines four data scopes (section II-B1)::

    #pragma hls scope(var1, ..., varN) [level(L)]

* ``node``  -- one copy per computational node (largest scope)
* ``numa``  -- one copy per NUMA node; accepts a ``level`` clause
* ``cache`` -- one copy per cache; accepts a ``level`` clause (1..llc)
* ``core``  -- one copy per physical core (smallest scope; hyperthreads
  on the same core share the copy)

Scopes are totally ordered by *width*:
``core < cache(1) < cache(2) < ... < cache(llc) <= numa <= node``.
The ``hls barrier`` directive synchronises the *largest* scope among its
variable list, hence :func:`scope_rank`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ScopeKind(enum.Enum):
    """The four HLS scope kinds of the paper, ordered small to large."""

    CORE = "core"
    CACHE = "cache"
    NUMA = "numa"
    NODE = "node"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Rank offsets used to build a total order.  Cache levels slot between
# CORE and NUMA; real machines have < 100 cache levels, so a stride of
# 100 keeps kinds disjoint.
_KIND_BASE = {
    ScopeKind.CORE: 0,
    ScopeKind.CACHE: 100,
    ScopeKind.NUMA: 1_000,
    ScopeKind.NODE: 10_000,
}


@dataclass(frozen=True, order=False)
class ScopeSpec:
    """A scope kind plus its optional ``level`` clause.

    ``level`` is meaningful for ``cache`` (cache level, 1-based) and
    ``numa`` (NUMA hierarchy level, for machines with nested NUMA
    domains; level 1 = innermost).  ``None`` means the default level:
    the last-level cache for ``cache`` and the innermost domain for
    ``numa``.
    """

    kind: ScopeKind
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (ScopeKind.CORE, ScopeKind.NODE) and self.level is not None:
            raise ValueError(f"scope {self.kind.value!r} does not accept a level clause")
        if self.level is not None and self.level < 1:
            raise ValueError(f"scope level must be >= 1, got {self.level}")
        # Specs key the per-task directive counts (two lookups per
        # directive) and, inside a ScopeInstance, the sync-state and
        # arena tables: hash once here, not ``enum.__hash__`` per
        # lookup.  Built from ints only (levels are >= 1, so 0 stands
        # for "no level"): a pickled spec hashes alike in every process.
        object.__setattr__(self, "_hash", hash((_KIND_BASE[self.kind], self.level or 0)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.level is None:
            return self.kind.value
        return f"{self.kind.value} level({self.level})"

    @classmethod
    def parse(cls, text: str) -> "ScopeSpec":
        """Parse a scope spec such as ``"node"``, ``"numa"``,
        ``"cache level(2)"`` or the shorthand ``"cache(2)"`` / ``"llc"``.
        """
        t = text.strip().lower()
        if t == "llc":
            return cls(ScopeKind.CACHE, None)
        level: Optional[int] = None
        if "level(" in t:
            head, _, rest = t.partition("level(")
            num, _, tail = rest.partition(")")
            if tail.strip():
                raise ValueError(f"malformed scope spec: {text!r}")
            t = head.strip()
            level = int(num)
        elif "(" in t:
            head, _, rest = t.partition("(")
            num, _, tail = rest.partition(")")
            if tail.strip():
                raise ValueError(f"malformed scope spec: {text!r}")
            t = head.strip()
            level = int(num)
        try:
            kind = ScopeKind(t)
        except ValueError:
            raise ValueError(f"unknown scope kind: {text!r}") from None
        return cls(kind, level)


def scope_rank(spec: ScopeSpec, llc_level: int) -> int:
    """Total-order rank of a scope spec; larger rank = wider scope.

    ``llc_level`` is the machine's last cache level, needed to place a
    default (``level=None``) cache scope.  A cache scope at the LLC still
    ranks *below* numa/node: on machines where they coincide the scope
    instances are identical anyway, and the paper calls node the largest
    and core the smallest scope.
    """
    base = _KIND_BASE[spec.kind]
    if spec.kind is ScopeKind.CACHE:
        level = spec.level if spec.level is not None else llc_level
        if not 1 <= level <= llc_level:
            raise ValueError(f"cache level {level} outside 1..{llc_level}")
        return base + level
    if spec.kind is ScopeKind.NUMA:
        # Higher NUMA levels are wider; level None = innermost = level 1.
        level = spec.level if spec.level is not None else 1
        return base + level
    return base


@dataclass(frozen=True)
class ScopeInstance:
    """One concrete instance of a scope on a machine.

    For example, with 4 sockets per node the ``numa`` scope has 4
    instances per node; two tasks share an HLS variable of scope
    ``numa`` iff their processing units map to the same instance.

    ``index`` is machine-global and dense within (kind, level).
    """

    spec: ScopeSpec
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.spec}#{self.index}"


__all__ = ["ScopeKind", "ScopeSpec", "ScopeInstance", "scope_rank"]
