"""One run of one workload: the command BENCHMARK.json names.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half of ``--seconds`` untraced and half with the
span recorder on, and reports the per-layer metrics; the ratio of the
two halves' median rep time is ``trace.overhead_x``.

The last line of standard output is the result object; the lines above
it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from . import HERE, ROOT

OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
#: seed whose output digests reference.json pins
REFERENCE_SEED = 0
#: set-up is timed in this many fresh processes (this one included)
SETUP_SAMPLES = 3
#: fewest timed reps a run may report
MIN_REPS = 4
#: a run still going after this many seconds reports failure and exits
HARD_LIMIT_S = 160.0


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, one rep, numbers meaningless")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and the output "
                        "digest of the warm-up rep, and exit")
    return p.parse_args(argv)


def measure(w: Any, seconds: float, min_reps: int) -> Dict[str, Any]:
    """Timed reps for ``seconds`` (and at least ``min_reps``).

    ``rep_s`` is the time of one undisturbed rep: every rep times each
    of its units (a table, a phase, a pass, a batch of jobs), and the
    fastest sample of each unit adds up to the rep.  What disturbs a
    run on the sandbox only ever adds time, for seconds to minutes at a
    stretch, so the minimum is the steady estimate and the median is not
    (see README.md, "Minima, not medians")."""
    walls: List[float] = []
    units: List[List[float]] = []
    ops = failed = 0
    digests = set()
    end = perf_counter() + seconds
    while len(walls) < min_reps or perf_counter() + 0.5 * walls[-1] < end:
        w.rec.rep = len(walls)
        gc.collect()             # keep collector pauses out of the reps
        with w.main.span("rep"):
            t0 = perf_counter()
            o, f, d, unit_s = w.rep()
            walls.append(perf_counter() - t0)
        units.append(unit_s)
        ops += o
        failed += f
        digests.add(d)
    return {"walls": walls, "ops": ops, "failed": failed, "digests": digests,
            "rep_s": sum(min(u) for u in zip(*units))}


def spawn(*flags: str, timeout: Optional[float] = None
          ) -> "subprocess.CompletedProcess[str]":
    """``run.py`` with ``flags`` in a fresh process that writes no
    bytecode; output captured."""
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *flags],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=timeout)


def setup_child(workload: str, seed: int) -> Dict[str, Any]:
    """Set up in a fresh process (imports, fixtures, warm-up rep);
    returns its ``setup_s`` and the warm-up rep's output ``digest``."""
    done = spawn("--workload", workload, "--seed", str(seed), "--setup-only",
                 timeout=HARD_LIMIT_S / 2)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_reference(name: str, seed: int, digest: int) -> bool:
    """Digest of the default seed must equal the committed one."""
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE):
        return True
    with open(REFERENCE) as fh:
        want = json.load(fh)["digests"].get(name)
    if want is not None and want != digest:
        print(f"[{name}] digest {digest} != reference {want}", file=sys.stderr)
        return False
    return True


def emit(result: Dict[str, Any], reps: int) -> None:
    print(f"{'timed_reps':32s} {reps} count")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    sys.stdout.flush()


def run(args: argparse.Namespace, started: float) -> Tuple[Dict[str, Any], int]:
    """The result object (empty for ``--setup-only``) and the number of
    timed reps behind it."""
    # imported here so a --help or a bad flag needs no src tree
    from .layers import layer_values
    from .spans import Recorder
    from .workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(OUT_DIR, exist_ok=True)

    w = WORKLOADS[args.workload](args.seed, OUT_DIR, args.quick)
    try:
        w.setup()
        _, warm_failed, digest, _ = w.rep()       # warm-up rep, untimed
        setups = [perf_counter() - started]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0], "digest": digest}))
            return {}, 0
        if not (args.trace or args.quick):
            setups += [setup_child(args.workload, args.seed)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
        w.begin_timed()
        min_reps = MIN_REPS
        if args.trace:           # two halves share the run's seconds
            seconds, min_reps = seconds / 2, MIN_REPS // 2
        if args.quick:
            min_reps = 1
        plain = measure(w, seconds, min_reps)
        runs = [plain]
        if args.trace:
            extras = w.extras()
            rec = Recorder()
            w.retrace(rec)
            traced = measure(w, seconds, min_reps)
            runs.append(traced)
            extras.update(w.diagnostics())
            extras["trace.overhead_x"] = traced["rep_s"] / plain["rep_s"]
            extras["trace.disturbed_x"] = (statistics.fmean(plain["walls"])
                                           / plain["rep_s"])
            rec.write_chrome_trace(
                os.path.join(OUT_DIR, f"trace-{w.name}.json"), workload=w.name)
            values = layer_values(w, rec, len(traced["walls"]), extras)
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": min(setups),
                "wall_s": plain["rep_s"],
                "ops_per_s": plain["ops"] / len(plain["walls"]) / plain["rep_s"],
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
    finally:
        w.close()

    digests = set().union(*(r["digests"] for r in runs)) | {digest}
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs) + warm_failed
    correct = (failed == 0 and len(digests) == 1
               and (args.quick or check_reference(w.name, args.seed, digest)))
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics emitted != declared in BENCHMARK.json: "
                           f"{sorted(mismatch)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return result, sum(len(r["walls"]) for r in runs)


def main(argv: Optional[List[str]] = None, started: Optional[float] = None) -> int:
    started = perf_counter() if started is None else started
    args = parse_args(argv)

    def give_up() -> None:
        # a hung unit must not hang the caller: everything counts as failed
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 0)
        os._exit(1)

    watchdog = threading.Timer(HARD_LIMIT_S, give_up)
    watchdog.daemon = True
    watchdog.start()
    try:
        result, reps = run(args, started)
    finally:
        watchdog.cancel()
    if args.setup_only:
        return 0
    emit(result, reps)
    return 0 if result["correct"] else 1
