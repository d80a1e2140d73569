"""The benchmark's own span recorder.

The task programs in this directory make every call into a layer
through a *lane*: ``t("message.send", comm.send, data, dest)``.  With
tracing off the lane is :func:`direct`, which only forwards the call, so
the timed end-to-end runs execute the program as written.  With tracing
on each call appends one span -- name (``<layer>.<what>``), parent, start,
end, rep id -- to a list owned by exactly one thread (a task, a client
thread or the runner), so recording takes no lock.  Both backends are
stamped with ``time.perf_counter``: the benchmark measures wall time,
not coop's virtual clock.

A span's *self time* is its duration minus the duration of its direct
children on the same lane (calls on one lane are strictly nested).
Per-layer seconds are self time summed over lanes.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# span fields
NAME, PARENT, START, END, REP = range(5)


def direct(name: str, fn: Callable[..., Any], /, *args: Any, **kw: Any) -> Any:
    """The tracing-off lane: forward the call."""
    return fn(*args, **kw)


direct.span = lambda name: contextlib.nullcontext()  # type: ignore[attr-defined]
direct.here = lambda: None  # type: ignore[attr-defined]


class Lane:
    """Spans of one thread of control, in start order."""

    def __init__(self, recorder: "Recorder", key: str) -> None:
        self.recorder = recorder
        self.key = key
        self.spans: List[list] = []
        #: index of the open span (-1 at top level)
        self.open = -1
        #: "lane:index" of the span on another lane that started this
        #: lane's top-level spans (rep -> phase -> task)
        self.cause: Optional[str] = None

    def __call__(self, name: str, fn: Callable[..., Any], /, *args: Any,
                 **kw: Any) -> Any:
        # the bookkeeping of span(), written out: this runs tens of
        # thousands of times a rep and a generator context manager
        # would add to every one
        spans = self.spans
        parent = self.open
        self.open = len(spans)
        span = [name, parent, perf_counter(), 0.0, self.recorder.rep]
        spans.append(span)
        try:
            return fn(*args, **kw)
        finally:
            span[END] = perf_counter()
            self.open = parent

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form, for rep and phase spans."""
        spans = self.spans
        parent = self.open
        self.open = len(spans)
        span = [name, parent, perf_counter(), 0.0, self.recorder.rep]
        spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self.open = parent

    def here(self) -> str:
        """Identifier of the open span, for another lane's ``cause``."""
        return f"{self.key}:{self.open}"


class Recorder:
    """All lanes of one traced run."""

    on = True

    def __init__(self) -> None:
        self.lanes: Dict[str, Lane] = {}
        self.rep = -1

    def lane(self, key: str, cause: Optional[str] = None) -> Lane:
        lane = self.lanes.get(key)
        if lane is None:
            # setdefault: two threads asking for the same new key agree
            lane = self.lanes.setdefault(key, Lane(self, key))
        if cause is not None:
            lane.cause = cause
        return lane

    # ------------------------------------------------------------- analysis
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """``(self seconds, span count, total seconds)`` by span name."""
        self_s: Dict[str, float] = {}
        count: Dict[str, int] = {}
        total_s: Dict[str, float] = {}
        for lane in self.lanes.values():
            spans = lane.spans
            cover = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    cover[span[PARENT]] += span[END] - span[START]
            for i, span in enumerate(spans):
                name = span[NAME]
                dur = span[END] - span[START]
                self_s[name] = self_s.get(name, 0.0) + dur - cover[i]
                total_s[name] = total_s.get(name, 0.0) + dur
                count[name] = count.get(name, 0) + 1
        return self_s, count, total_s

    def n_spans(self) -> int:
        return sum(len(lane.spans) for lane in self.lanes.values())

    def write_chrome_trace(self, path: str, *, workload: str,
                           reps: int = 2) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)
        of the first ``reps`` traced reps; every rep feeds the metrics,
        but a file of all of them runs to tens of megabytes."""
        events: List[Dict[str, Any]] = []
        origin = min(
            (lane.spans[0][START] for lane in self.lanes.values() if lane.spans),
            default=0.0,
        )
        for tid, (key, lane) in enumerate(sorted(self.lanes.items())):
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": tid, "args": {"name": key}})
            for i, span in enumerate(lane.spans):
                if span[REP] >= reps:
                    break
                parent = (f"{key}:{span[PARENT]}" if span[PARENT] >= 0
                          else lane.cause)
                events.append({
                    "ph": "X", "pid": 0, "tid": tid,
                    "name": span[NAME],
                    "cat": span[NAME].split(".", 1)[0],
                    "ts": round((span[START] - origin) * 1e6, 3),
                    "dur": round((span[END] - span[START]) * 1e6, 3),
                    "args": {"id": f"{key}:{i}", "parent": parent,
                             "rep": span[REP]},
                })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"workload": workload}}, fh)


class NullRecorder:
    """Tracing off: every lane is :func:`direct`."""

    on = False
    rep = -1

    def lane(self, key: str, cause: Optional[str] = None) -> Callable[..., Any]:
        return direct
