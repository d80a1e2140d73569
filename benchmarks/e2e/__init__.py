"""The repo's one end-to-end benchmark (see README.md in this directory).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the command BENCHMARK.json names; ``python3 -m benchmarks.e2e run`` runs
every workload in a fresh subprocess each and ``... compare OLD NEW`` gates
one result file against another.

The package is measured from a source checkout, so it puts ``src/`` on the
import path itself instead of asking the caller for ``PYTHONPATH``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
