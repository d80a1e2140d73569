"""SBLLmalloc-style automatic page merging (related work, section VI).

"SBLLmalloc periodically checks for identical pages, merges them and
marks them as read only.  When a write occurs, a fault handler unmerges
the pages.  This technique is fully automatic [...] However, it incurs
overhead when scanning for identical pages to be merged and when
handling fault to duplicate previously shared pages that have been
modified.  Moreover it only works at the granularity of a page."

The merger operates on real numpy arrays registered per task.  A scan
hashes each page-sized chunk; chunks with identical content across
registrations collapse to one physical page.  A recorded write to a
merged page triggers the copy-on-write fault path.  Costs are modelled
in cycles (``scan_cost_per_byte`` per byte scanned, ``fault_cost`` per
un-merge) so the ablation bench can compare against HLS, whose sharing
is free of both.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

PAGE = 4096


@dataclass
class MergeStats:
    """Cumulative behaviour of the merger."""

    scans: int = 0
    bytes_scanned: int = 0
    merged_pages: int = 0          # currently merged (deduplicated) pages
    unmerge_faults: int = 0
    scan_cycles: float = 0.0
    fault_cycles: float = 0.0

    @property
    def overhead_cycles(self) -> float:
        return self.scan_cycles + self.fault_cycles


@dataclass
class _Region:
    rank: int
    name: str
    data: np.ndarray               # flat uint8 view
    merged: Set[int] = field(default_factory=set)   # merged page indices


class PageMerger:
    """Page-level deduplication across per-task memory regions."""

    def __init__(
        self,
        *,
        scan_cost_per_byte: float = 0.1,
        fault_cost: float = 2000.0,
        runtime=None,
    ) -> None:
        self._regions: Dict[Tuple[int, str], _Region] = {}
        self._lock = threading.Lock()
        self.stats = MergeStats()
        self.scan_cost_per_byte = scan_cost_per_byte
        self.fault_cost = fault_cost
        #: optional runtime whose memory manager accounts registered
        #: regions (kind "baseline" in the owner task's space)
        self.runtime = runtime

    # -------------------------------------------------------------- regions
    def register(self, rank: int, name: str, array: np.ndarray) -> None:
        """Expose one task's array to the merger (its heap, in the real
        system)."""
        flat = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        with self._lock:
            key = (rank, name)
            if key in self._regions:
                raise KeyError(f"region {key} already registered")
            self._regions[key] = _Region(rank=rank, name=name, data=flat)
        if self.runtime is not None:
            self.runtime.space_for(rank).alloc(
                max(len(flat), 1), label=f"sbll:{name}", kind="baseline",
                owner=rank,
            )

    def _pages(self, region: _Region) -> int:
        return (len(region.data) + PAGE - 1) // PAGE

    def _page_digest(self, region: _Region, page: int) -> bytes:
        chunk = region.data[page * PAGE:(page + 1) * PAGE].tobytes()
        return hashlib.blake2b(chunk, digest_size=16).digest()

    # ----------------------------------------------------------------- scan
    def scan(self) -> int:
        """One merging pass: pages identical across regions collapse.

        Returns the number of *newly* merged pages.  Each group of k
        identical pages keeps one physical copy, saving k-1 pages, but
        the saving is attributed per page: a merged page is one that no
        longer needs its own frame."""
        with self._lock:
            digests: Dict[bytes, List[Tuple[_Region, int]]] = {}
            for region in self._regions.values():
                n = self._pages(region)
                self.stats.bytes_scanned += len(region.data)
                self.stats.scan_cycles += len(region.data) * self.scan_cost_per_byte
                for p in range(n):
                    digests.setdefault(self._page_digest(region, p), []).append(
                        (region, p)
                    )
            newly = 0
            for copies in digests.values():
                if len(copies) < 2:
                    continue
                # keep the first as the physical page; others merge onto it
                for region, p in copies[1:]:
                    if p not in region.merged:
                        region.merged.add(p)
                        newly += 1
            self.stats.scans += 1
            self.stats.merged_pages = sum(
                len(r.merged) for r in self._regions.values()
            )
            return newly

    # ---------------------------------------------------------------- write
    def write(self, rank: int, name: str, offset: int, values: np.ndarray) -> None:
        """Write through the merger: un-merges (COW) any merged page the
        write touches, then applies the store."""
        values = np.ascontiguousarray(values).view(np.uint8).reshape(-1)
        with self._lock:
            region = self._regions[(rank, name)]
            first = offset // PAGE
            last = (offset + max(len(values), 1) - 1) // PAGE
            for p in range(first, last + 1):
                if p in region.merged:
                    region.merged.discard(p)
                    self.stats.unmerge_faults += 1
                    self.stats.fault_cycles += self.fault_cost
                    self.stats.merged_pages -= 1
            region.data[offset:offset + len(values)] = values

    # ------------------------------------------------------------ accounting
    def resident_bytes(self) -> int:
        """Physical bytes needed after merging."""
        with self._lock:
            total = 0
            for r in self._regions.values():
                total += len(r.data) - len(r.merged) * PAGE
            return total

    def raw_bytes(self) -> int:
        with self._lock:
            return sum(len(r.data) for r in self._regions.values())


__all__ = ["PAGE", "MergeStats", "PageMerger"]
