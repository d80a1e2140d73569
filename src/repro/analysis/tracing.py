"""Live trace recording from a running MPI job.

Install a :class:`Tracer` on a runtime (``runtime.tracer = tracer``)
before ``run()`` and it collects the synchronisation events (messages,
collectives, HLS directives, RMA) through the runtime's probe.
Variable accesses are recorded by the application through
:meth:`Tracer.read` / :meth:`Tracer.write` -- the stand-in for the
binary instrumentation the paper's future work assumes.

The recorded :class:`~repro.analysis.events.Trace` feeds
:func:`~repro.analysis.detector.detect` to propose HLS pragmas.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable

import numpy as np

from repro.analysis.events import Trace


def _summarise(value: Any) -> Hashable:
    """Reduce a value to a hashable summary for coherence comparison."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_summarise(v) for v in value)
    return value


#: probe site -> the :class:`Trace` builder its fields are passed to; a
#: fault-only site records nothing (DESIGN.md section 10)
TRACE_SITES: Dict[str, Callable[..., Any]] = {
    "p2p.send": Trace.send,          # sender, once the seq is assigned
    "p2p.deliver": Trace.recv,       # receiver, at delivery
    "coll.call": Trace.collective,   # once per user collective call
    "hls.sync": Trace.hls_sync,      # HLS barrier / single episodes
    "rma.put": Trace.rma,
    "rma.get": Trace.rma,
    "rma.epoch": Trace.epoch_call,
}


class Tracer:
    """Runtime tracer: :meth:`record` is its one runtime hook, called
    through ``Runtime.probe`` at every instrumented site."""

    def __init__(self, n_tasks: int) -> None:
        self.trace = Trace(n_tasks)
        self._lock = threading.Lock()

    def record(self, site: str, task: int, wake: Any = None,
               **fields: Any) -> None:
        """Append ``task``'s event for ``site`` (``wake`` is unused)."""
        build = TRACE_SITES.get(site)
        if build is not None:
            with self._lock:
                build(self.trace, task, **fields)

    # ---------------------------------------------------- access recording
    def read(self, rank: int, var: str, value: Any) -> None:
        """Record that ``rank`` read ``value`` from global ``var``."""
        with self._lock:
            self.trace.read(rank, var, _summarise(value))

    def write(self, rank: int, var: str, value: Any) -> None:
        """Record that ``rank`` wrote ``value`` to global ``var``."""
        with self._lock:
            self.trace.write(rank, var, _summarise(value))


__all__ = ["Tracer"]
