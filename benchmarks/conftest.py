"""Shared benchmark configuration.

Benchmarks run the same harnesses as ``repro.experiments`` at reduced
scale (the full paper-scale sweeps live behind ``python -m
repro.experiments --full``).  Each benchmark stores the reproduced
metric (efficiency, MB/node, flops/cycle...) in ``extra_info`` so the
paper-vs-measured comparison survives in the benchmark JSON
(``--benchmark-json``), and asserts its claim inline.  Nothing here
writes into the checkout.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy function with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
