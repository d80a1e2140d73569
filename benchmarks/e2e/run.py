"""Contract entry point: one workload, one run (see bench.py)."""

from time import perf_counter

STARTED = perf_counter()          # set-up time counts from here

import os      # noqa: E402
import sys     # noqa: E402

# no bytecode is written, so every process pays the same import cost
# whether or not an earlier run left a cache behind
sys.dont_write_bytecode = True
# MPI tasks here are Python threads serialised by the interpreter lock, so
# a second core adds no compute, only cross-core wakeups whose latency on
# a 2-vCPU sandbox follows the hypervisor's halt-polling state and swings
# a rep by 3x between runs.  One core makes the run repeatable (set-up
# children inherit the mask).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from benchmarks.e2e.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))
