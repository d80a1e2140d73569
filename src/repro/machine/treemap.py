"""Mapping communicators onto the memory hierarchy.

The collective engine (:mod:`repro.runtime.icoll`) lays its tree-shaped
cells along per-scope groups -- tasks sharing a core first, then a
cache, then a NUMA socket, then a node -- with one representative per
group forwarding into the next, wider scope.  This module derives that
nesting from a :class:`~repro.machine.topology.Machine` and the PU
pinning of a communicator's members.

:func:`collective_levels` returns the chain of partitions, innermost
first.  Each level is a strict coarsening of the previous one (the
topology guarantees a core never spans a cache, a cache never spans a
socket, and a socket never spans a node); degenerate levels -- those
that group nothing beyond the previous level -- are dropped, and the
chain always ends with a single group covering the whole communicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.machine.topology import Machine


@dataclass(frozen=True)
class TreeLevel:
    """One level of a collective tree: a partition of communicator ranks.

    ``groups`` are sorted by their smallest member; members are sorted.
    ``label`` names the scope the partition came from (``core``,
    ``cache<L>``, ``numa``, ``node``, ``comm``).
    """

    label: str
    groups: Tuple[Tuple[int, ...], ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def _partition(
    ranks: Sequence[int], key: Callable[[int], object]
) -> Tuple[Tuple[int, ...], ...]:
    by_key: Dict[object, List[int]] = {}
    for r in ranks:
        by_key.setdefault(key(r), []).append(r)
    groups = [tuple(sorted(g)) for g in by_key.values()]
    groups.sort(key=lambda g: g[0])
    return tuple(groups)


def collective_levels(
    machine: Machine, pus: Sequence[int]
) -> List[TreeLevel]:
    """The scope-group chain for a communicator.

    ``pus[i]`` is the PU gid communicator rank ``i`` is pinned to.
    Returns at least one level; the last level always has exactly one
    group spanning every rank.
    """
    n = len(pus)
    if n < 1:
        raise ValueError("communicator must have at least one rank")
    for pu in pus:
        if not 0 <= pu < machine.n_pus:
            raise ValueError(f"pinning references unknown PU {pu}")
    ranks = list(range(n))

    chain: List[Tuple[str, Callable[[int], object]]] = [
        ("core", lambda r: machine.pus[pus[r]].core)
    ]
    for level in sorted(machine.caches):
        chain.append(
            ("cache%d" % level,
             lambda r, lvl=level: machine.pus[pus[r]].cache_id(lvl))
        )
    chain.append(("numa", lambda r: machine.pus[pus[r]].numa))
    chain.append(("node", lambda r: machine.pus[pus[r]].node))
    chain.append(("comm", lambda r: 0))

    levels: List[TreeLevel] = []
    prev = tuple((r,) for r in ranks)
    for label, key in chain:
        part = _partition(ranks, key)
        if part == prev:
            continue                      # groups nothing new
        levels.append(TreeLevel(label, part))
        prev = part
        if len(part) == 1:
            break                         # already spans the communicator
    if not levels or len(levels[-1].groups) != 1:
        levels.append(TreeLevel("comm", (tuple(ranks),)))
    return levels


__all__ = ["TreeLevel", "collective_levels"]
