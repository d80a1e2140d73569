"""``python3 -m benchmarks.e2e run|compare`` -- every workload, and the gate.

``run`` starts ``run.py`` once per workload in a fresh subprocess (so
set-up time and peak RSS are per workload and no state drifts from one
workload into the next), ``--sets`` times over, and writes one result
file with a provenance envelope.  ``compare OLD NEW`` prints one row per
(workload, end-to-end metric) and exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from . import ROOT
from .bench import (OUT_DIR, REFERENCE, REFERENCE_SEED, load_spec,
                    setup_child, spawn)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: the keys BENCHMARK.json gives an entry of each group
SPEC_KEYS = {
    "workloads": {"name", "why"},
    "end_to_end": {"name", "unit", "better", "bound"},
    "per_layer": {"name", "unit", "better"},
}


# --------------------------------------------------------------- provenance
def _git(*args: str) -> str:
    try:
        return subprocess.run(("git",) + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def envelope(args: argparse.Namespace, run_seconds: float) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        # the one CPU run.py pins each run to
        "pinned_cpu": min(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "seconds": run_seconds if args.seconds is None else args.seconds,
        "sets": args.sets,
        "src_lines": src_lines(),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "claim": None,
    }


# ---------------------------------------------------------------------- run
def run_once(workload: str, seed: int, seconds: Optional[float], trace: int,
             quick: bool) -> Dict[str, Any]:
    flags = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        flags += ["--seconds", str(seconds)]
    if quick:
        flags.append("--quick")
    done = spawn(*flags)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: no result (exit {done.returncode})\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    result["timed_reps"] = next(int(line.split()[1]) for line in lines
                                if line.startswith("timed_reps"))
    return result


def self_check(spec: Dict[str, Any], seed: int) -> List[str]:
    """``--quick``: tiny sizes, numbers discarded; the names each run
    emits must be exactly the ones BENCHMARK.json declares."""
    problems = []
    for group in SPEC_KEYS:
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                problems.append(f"bad name {m['name']!r}")
            if set(m) != SPEC_KEYS[group]:
                problems.append(f"{m['name']}: keys {sorted(m)} != "
                                f"{sorted(SPEC_KEYS[group])}")
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = run_once(w["name"], seed, 0.0, trace, quick=True)
            declared = {m["name"] for m in spec[group]}
            if set(r["metrics"]) != declared:
                problems.append(f"{w['name']} trace={trace}: emitted != declared: "
                                f"{sorted(set(r['metrics']) ^ declared)}")
            if not r["correct"] or r["failed"]:
                problems.append(f"{w['name']} trace={trace}: incorrect output")
    return problems


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.quick:
        problems = self_check(spec, args.seed)
        for p in problems:
            print("FAIL", p)
        print(f"quick self-check: {len(names)} workloads, "
              f"{len(spec['end_to_end'])}+{len(spec['per_layer'])} metrics, "
              f"{len(problems)} problems")
        return 1 if problems else 0

    chosen = args.workload or names
    unknown = set(chosen) - set(names)
    if unknown:
        raise SystemExit(f"unknown workload(s) {sorted(unknown)}")
    out: Dict[str, Any] = {
        "envelope": envelope(args, spec["run_seconds"]),
        "bounds": {m["name"]: {"bound": m["bound"], "better": m["better"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]},
        "workloads": {},
    }
    bad = False
    for name in chosen:
        entry: Dict[str, Any] = {"runs": [], "traced": None}
        for i in range(args.sets):
            r = run_once(name, args.seed, args.seconds, 0, quick=False)
            bad |= r["exit"] != 0
            entry["runs"].append(r)
            row = "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                            for k, v in r["metrics"].items())
            print(f"{name:16s} set {i}: {row}  failed={r['failed']}/{r['attempted']}")
            sys.stdout.flush()
        if args.trace:
            r = run_once(name, args.seed, args.seconds, 1, quick=False)
            bad |= r["exit"] != 0
            entry["traced"] = r
            for k, v in r["metrics"].items():
                if v["value"]:
                    print(f"    {k:30s} {v['value']:.6g} {v['unit']}")
        out["workloads"][name] = entry

    if args.write_reference:
        digests = {name: setup_child(name, REFERENCE_SEED)["digest"]
                   for name in chosen}
        with open(REFERENCE, "w") as fh:
            json.dump({"seed": REFERENCE_SEED, "digests": digests}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {REFERENCE}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(
        OUT_DIR, time.strftime("result-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {path}")
    return 1 if bad else 0


# ------------------------------------------------------------------ compare
def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    bounds = new["bounds"]
    regressed = False
    print(f"{'workload':16s} {'metric':12s} {'old med [q1,q3]':>30s} "
          f"{'new med [q1,q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for name, entry in new["workloads"].items():
        if name not in old["workloads"]:
            print(f"{name:16s} (not in {args.old})")
            continue
        for side in (old, new):
            for r in side["workloads"][name]["runs"]:
                if r["failed"] or not r["correct"]:
                    which = "old" if side is old else "new"
                    print(f"{name:16s} {which}: {r['failed']}/{r['attempted']} failed")
        fail_old = sum(r["failed"] for r in old["workloads"][name]["runs"])
        fail_new = sum(r["failed"] for r in entry["runs"])
        if fail_new > fail_old or any(not r["correct"] for r in entry["runs"]):
            regressed = True
        for metric, b in bounds.items():
            a = [r["metrics"][metric]["value"] for r in old["workloads"][name]["runs"]]
            c = [r["metrics"][metric]["value"] for r in entry["runs"]]
            qa, qc = _quartiles(a), _quartiles(c)
            sign = 1.0 if b["better"] == "lower" else -1.0
            change = sign * (qc[1] - qa[1]) / qa[1]      # > 0 is worse
            spread = max((qa[2] - qa[0]) / qa[1], (qc[2] - qc[0]) / qc[1])
            every_better = (max(c) < min(a) if b["better"] == "lower"
                            else min(c) > max(a))
            if change > b["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > b["bound"] and not every_better:
                verdict = "unresolved"
            elif change < -spread and every_better:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{name:16s} {metric:12s} "
                  f"{qa[1]:12.5g} [{qa[0]:.4g},{qa[2]:.4g}]".ljust(61)
                  + f"{qc[1]:12.5g} [{qc[0]:.4g},{qc[2]:.4g}]".ljust(32)
                  + f"{change:+8.1%} {b['bound']:6.0%}  {verdict}"
                  f" (n={len(a)}/{len(c)})")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads, write a result file")
    r.add_argument("--seed", type=int, default=REFERENCE_SEED)
    r.add_argument("--workload", action="append",
                   help="only this workload (repeatable)")
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--sets", type=int, default=5,
                   help="untraced runs per workload (quartiles need several)")
    r.add_argument("--trace", action="store_true",
                   help="add one traced run per workload (per-layer metrics)")
    r.add_argument("--quick", action="store_true",
                   help="self-check only: tiny sizes, numbers discarded")
    r.add_argument("--out", help="result file (default: out/result-<time>.json)")
    r.add_argument("--write-reference", action="store_true",
                   help="pin the default seed's output digests in reference.json")
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare", help="gate NEW against OLD")
    c.add_argument("old")
    c.add_argument("new")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
