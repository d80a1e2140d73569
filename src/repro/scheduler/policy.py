"""Chunk-sizing policies for loop self-scheduling.

A :class:`SelfSchedPolicy` splits one node's iteration range into an
ordered list of chunks; the runtime-side machinery (per-node claim
counters) is policy-agnostic.  The classic trade-off: large chunks
amortise claim overhead but strand work on stragglers, small chunks
balance load but pay one atomic per chunk.  The policies here are the
standard ladder (Eleliemy & Ciorba, arXiv:1903.09510):

========== =============================================================
static     one chunk per worker, even split (the oracle decomposition)
fixed:K    constant chunks of K iterations (pure self-scheduling at K=1)
guided     guided self-scheduling: next chunk = ceil(remaining / P)
factoring  batches of P equal chunks, each batch half the remaining work
========== =============================================================
"""

from __future__ import annotations

from typing import List, Tuple, Union


class SelfSchedPolicy:
    """Interface: split ``[0, n_iters)`` for ``n_workers`` claimants."""

    name = "abstract"

    def chunks(self, n_iters: int, n_workers: int) -> List[Tuple[int, int]]:
        """Ordered ``(lo, hi)`` chunk list covering ``[0, n_iters)``
        exactly once.  Must be deterministic: every task recomputes the
        same table for its node."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class StaticPolicy(SelfSchedPolicy):
    """Even contiguous split, one chunk per worker (sizes differ by
    at most one iteration)."""

    name = "static"

    def chunks(self, n_iters: int, n_workers: int) -> List[Tuple[int, int]]:
        n_workers = max(1, int(n_workers))
        out = []
        for w in range(n_workers):
            lo = (n_iters * w) // n_workers
            hi = (n_iters * (w + 1)) // n_workers
            if hi > lo:
                out.append((lo, hi))
        return out


class FixedChunkPolicy(SelfSchedPolicy):
    """Constant chunk size ``k`` (chunk self-scheduling; ``k=1`` is
    pure self-scheduling)."""

    name = "fixed"

    def __init__(self, k: int = 4) -> None:
        if k < 1:
            raise ValueError("fixed-chunk size must be >= 1")
        self.k = int(k)

    def chunks(self, n_iters: int, n_workers: int) -> List[Tuple[int, int]]:
        del n_workers
        return [
            (lo, min(lo + self.k, n_iters))
            for lo in range(0, n_iters, self.k)
        ]


class GuidedPolicy(SelfSchedPolicy):
    """Guided self-scheduling (GSS): each chunk is ``ceil(remaining /
    n_workers)``, floored at ``min_chunk`` -- exponentially decreasing
    sizes, so early claims are cheap and the tail is fine-grained."""

    name = "guided"

    def __init__(self, min_chunk: int = 1) -> None:
        if min_chunk < 1:
            raise ValueError("guided min_chunk must be >= 1")
        self.min_chunk = int(min_chunk)

    def chunks(self, n_iters: int, n_workers: int) -> List[Tuple[int, int]]:
        n_workers = max(1, int(n_workers))
        out = []
        lo = 0
        while lo < n_iters:
            remaining = n_iters - lo
            size = max(-(-remaining // n_workers), self.min_chunk)
            out.append((lo, min(lo + size, n_iters)))
            lo += size
        return out


class FactoringPolicy(SelfSchedPolicy):
    """Factoring: rounds of ``n_workers`` equal chunks, each round
    allocating half of the remaining iterations -- more robust than GSS
    when per-iteration cost variance is high."""

    name = "factoring"

    def __init__(self, min_chunk: int = 1) -> None:
        if min_chunk < 1:
            raise ValueError("factoring min_chunk must be >= 1")
        self.min_chunk = int(min_chunk)

    def chunks(self, n_iters: int, n_workers: int) -> List[Tuple[int, int]]:
        n_workers = max(1, int(n_workers))
        out = []
        lo = 0
        while lo < n_iters:
            remaining = n_iters - lo
            size = max(-(-remaining // (2 * n_workers)), self.min_chunk)
            for _ in range(n_workers):
                if lo >= n_iters:
                    break
                hi = min(lo + size, n_iters)
                out.append((lo, hi))
                lo = hi
        return out


PolicyLike = Union[str, SelfSchedPolicy]


def make_policy(spec: PolicyLike) -> SelfSchedPolicy:
    """Resolve a policy spec: an instance passes through; strings are
    ``"static"`` (alias ``"even"``), ``"fixed[:K]"``, ``"guided[:MIN]"``
    or ``"factoring[:MIN]"``."""
    if isinstance(spec, SelfSchedPolicy):
        return spec
    name, _, arg = str(spec).partition(":")
    name = name.strip().lower()
    try:
        if name in ("static", "even"):
            return StaticPolicy()
        if name == "fixed":
            return FixedChunkPolicy(int(arg)) if arg else FixedChunkPolicy()
        if name == "guided":
            return GuidedPolicy(int(arg)) if arg else GuidedPolicy()
        if name == "factoring":
            return FactoringPolicy(int(arg)) if arg else FactoringPolicy()
    except ValueError as exc:
        raise ValueError(f"bad policy argument in {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown self-scheduling policy {spec!r} "
        f"(want static | fixed[:K] | guided[:MIN] | factoring[:MIN])"
    )


__all__ = [
    "SelfSchedPolicy",
    "StaticPolicy",
    "FixedChunkPolicy",
    "GuidedPolicy",
    "FactoringPolicy",
    "make_policy",
]
