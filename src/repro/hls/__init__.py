"""Hierarchical Local Storage -- the paper's core contribution.

HLS lets MPI tasks share selected global variables at a chosen level of
the memory hierarchy.  Minimal use::

    from repro.machine import core2_cluster
    from repro.runtime import Runtime
    from repro.hls import HLSProgram

    rt = Runtime(core2_cluster(2), n_tasks=16)
    prog = HLSProgram(rt)
    prog.declare("table", shape=(1000, 1000), scope="node")

    def main(ctx):
        h = prog.attach(ctx)
        if h.single_enter("table"):         # one task per node loads it
            try:
                load_table(h["table"])
            finally:
                h.single_done("table")
        use(h["table"])                     # all tasks share the copy

    rt.run(main)

The pragma dialect of the paper is supported through
:func:`~repro.hls.compiler.hls_compile` /
:func:`~repro.hls.compiler.compile_module_source`, which rewrite
``#pragma hls ...`` comments exactly like the modified GCC of section
IV.
"""

from repro.hls.variable import (
    HLSDeclarationError,
    HLSModule,
    HLSRegistry,
    HLSVariable,
)
from repro.hls.storage import HLSStorage, ModuleImage
from repro.hls.sync import HLSSync, ScopeSyncState
from repro.hls.program import HLSHandle, HLSProgram
from repro.hls.directives import Directive, PragmaError, is_pragma, parse_pragma
from repro.hls.compiler import (
    HLSCompileError,
    compile_module_source,
    hls_compile,
    scan_pragmas,
)
from repro.hls.shared_segment import InterposedHeap

__all__ = [
    "HLSDeclarationError",
    "HLSVariable",
    "HLSModule",
    "HLSRegistry",
    "HLSStorage",
    "ModuleImage",
    "HLSSync",
    "ScopeSyncState",
    "HLSProgram",
    "HLSHandle",
    "Directive",
    "PragmaError",
    "is_pragma",
    "parse_pragma",
    "HLSCompileError",
    "scan_pragmas",
    "hls_compile",
    "compile_module_source",
    "InterposedHeap",
]
