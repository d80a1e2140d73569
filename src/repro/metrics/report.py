"""Paper-style text tables, and the one record shape of the counter
metrics."""

from __future__ import annotations

from dataclasses import MISSING, fields
from functools import cache
from operator import attrgetter
from typing import (
    Any, Callable, ClassVar, Dict, FrozenSet, List, Sequence, Tuple,
)


def format_mb(nbytes: float) -> str:
    return f"{nbytes / (1 << 20):.0f}"


class Table:
    """Minimal fixed-width table renderer for experiment output."""

    def __init__(self, columns: Sequence[str], *, title: str = "") -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(self.columns))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt(r) for r in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


class Record:
    """Base of the counter metrics dataclasses: a subclass lists its
    counters once, as dataclass fields, and its snapshot and render
    follow from that list and four class constants."""

    #: title of the rendered table
    TITLE: ClassVar[str] = ""
    #: field name -> properties reported right after that field
    DERIVED: ClassVar[Dict[str, Tuple[str, ...]]] = {}
    #: snapshot key -> decimal places (a ``None`` value stays ``None``)
    ROUND: ClassVar[Dict[str, int]] = {}
    #: drill-down fields kept on the object but left out of the snapshot
    HIDDEN: ClassVar[FrozenSet[str]] = frozenset()

    def snapshot(self) -> Dict[str, Any]:
        """Every field in declaration order, as a JSON-ready dict."""
        keys, values_of, converts = _plan(type(self))
        snap = dict(zip(keys, values_of(self)))
        for key, convert in converts:
            snap[key] = convert(snap[key])
        return snap

    def render(self) -> str:
        table = Table(["counter", "value"], title=self.TITLE)
        for key, value in self.snapshot().items():
            table.add_row(key, value)
        return table.render()


@cache
def _plan(cls: type) -> Tuple[Tuple[str, ...], Callable, Tuple]:
    """``cls``'s snapshot keys in order, one getter reading all their
    values, and the keys whose value is converted: rounded, or a
    container field copied (by its ``default_factory``).  Built once per
    class: ``dataclasses.fields`` per snapshot costs more than the
    snapshot."""
    keys: List[str] = []
    converts: List[Tuple[str, Callable]] = []
    for f in fields(cls):
        if f.name not in cls.HIDDEN:
            keys.append(f.name)
            if f.default_factory is not MISSING:
                converts.append((f.name, f.default_factory))
        keys.extend(cls.DERIVED.get(f.name, ()))
    converts.extend((key, _rounder(n)) for key, n in cls.ROUND.items())
    return tuple(keys), attrgetter(*keys), tuple(converts)


def _rounder(digits: int) -> Callable[[Any], Any]:
    return lambda value: value if value is None else round(value, digits)


__all__ = ["Record", "Table", "format_mb"]
