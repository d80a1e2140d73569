"""Comparators from the related-work section (VI).

* :mod:`~repro.baselines.sbllmalloc` -- automatic page-granularity
  merging of identical pages across tasks (SBLLmalloc [23]);
* the MPI-3 shared-memory window proposal [14], the manual alternative
  to HLS, is :meth:`repro.runtime.rma.Win.allocate_shared`.
"""

from repro.baselines.sbllmalloc import PageMerger, MergeStats

__all__ = ["PageMerger", "MergeStats"]
