"""Access-trace generators for the paper's workloads.

Traces are numpy arrays of *line numbers* ready for
:meth:`~repro.memsim.hierarchy.CacheHierarchy.access_run`.  Generators
cover the three access patterns the evaluation uses:

* uniform random lookups in a table (mesh-update benchmark: "to mimic an
  irregular access pattern, this table is accessed uniformly at random");
* streaming sweeps over an array (mesh traversal, table update);
* a blocked matrix-multiply schedule (Figure 3's dgemm stand-in).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np


def random_table_trace(
    base_addr: int,
    table_bytes: int,
    n_accesses: int,
    rng: np.random.Generator,
    *,
    line_bytes: int = 64,
) -> np.ndarray:
    """Uniform random accesses over a table; returns line numbers."""
    if table_bytes <= 0:
        raise ValueError("table_bytes must be positive")
    first = base_addr // line_bytes
    n_lines = max(1, table_bytes // line_bytes)
    return first + rng.integers(0, n_lines, size=n_accesses)


def stream_trace(
    base_addr: int,
    nbytes: int,
    *,
    line_bytes: int = 64,
    elem_bytes: int = 8,
) -> np.ndarray:
    """Sequential sweep touching each element once; one entry per access
    (so ``line_bytes // elem_bytes`` consecutive duplicates per line,
    matching a real streaming loop's per-element loads)."""
    n_elems = nbytes // elem_bytes
    addrs = base_addr + np.arange(n_elems, dtype=np.int64) * elem_bytes
    return addrs // line_bytes


def stream_lines(base_addr: int, nbytes: int, *, line_bytes: int = 64) -> np.ndarray:
    """Sequential sweep touching each *line* once (cheaper stand-in for a
    vectorised streaming kernel)."""
    if nbytes <= 0:
        return np.empty(0, dtype=np.int64)
    first = base_addr // line_bytes
    last = (base_addr + nbytes - 1) // line_bytes
    return np.arange(first, last + 1, dtype=np.int64)


def blocked_matmul_trace(
    a_addr: int,
    b_addr: int,
    c_addr: int,
    n: int,
    *,
    elem_bytes: int = 8,
    block: int = 32,
    line_bytes: int = 64,
) -> np.ndarray:
    """Line trace of a blocked C += A@B schedule on n x n matrices.

    Models an optimised BLAS at *line* granularity: for each block
    triple (i, j, k) the kernel streams the A(i,k), B(k,j) and C(i,j)
    blocks once.  Element-level register reuse inside a block is
    abstracted away -- cache behaviour is governed by block residency,
    which is what Figure 3 is about.
    """
    if n <= 0:
        raise ValueError("matrix size must be positive")
    if block < 1:
        raise ValueError("block must be >= 1")
    block = min(block, n)
    nb = (n + block - 1) // block

    def block_lines(base: int, bi: int, bj: int) -> np.ndarray:
        """The lines of block (bi, bj), row by row: every row's segment
        at once, as one ``arange`` shifted by ``repeat``ed row starts."""
        rows = np.arange(bi * block, min((bi + 1) * block, n), dtype=np.int64)
        start = base + (rows * n + bj * block) * elem_bytes
        width = (min((bj + 1) * block, n) - bj * block) * elem_bytes
        first = start // line_bytes
        count = (start + width - 1) // line_bytes - first + 1
        offset = np.cumsum(count) - count      # row's position in the block
        return (np.repeat(first - offset, count)
                + np.arange(count.sum(), dtype=np.int64))

    def blocks(base: int) -> List[List[np.ndarray]]:
        return [[block_lines(base, bi, bj) for bj in range(nb)]
                for bi in range(nb)]

    a, b, c = blocks(a_addr), blocks(b_addr), blocks(c_addr)
    out: List[np.ndarray] = []
    for bi in range(nb):
        for bj in range(nb):
            out.append(c[bi][bj])
            for bk in range(nb):
                out.append(a[bi][bk])
                out.append(b[bk][bj])
            out.append(c[bi][bj])  # write-back touch
    return np.concatenate(out)


def interleave_round_robin(
    traces: Sequence[np.ndarray], *, chunk: int = 64
) -> Iterator[Tuple[int, np.ndarray]]:
    """Interleave per-PU traces in round-robin chunks.

    Yields ``(trace_index, chunk_of_lines)`` so a driver can feed a
    shared :class:`~repro.memsim.hierarchy.CacheHierarchy` in an order
    that approximates concurrent execution.  With uniformly random or
    streaming traces, chunked interleaving is statistically equivalent
    to per-access interleaving while keeping Python overhead per access
    low.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    offsets = [0] * len(traces)
    pending = True
    while pending:
        pending = False
        for i, tr in enumerate(traces):
            off = offsets[i]
            if off >= len(tr):
                continue
            yield i, tr[off:off + chunk]
            offsets[i] = off + chunk
            pending = True


__all__ = [
    "random_table_trace",
    "stream_trace",
    "stream_lines",
    "blocked_matmul_trace",
    "interleave_round_robin",
]
