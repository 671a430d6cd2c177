"""repro: work-efficient batch-incremental minimum spanning trees.

A production-quality Python reproduction of Anderson, Blelloch and
Tangwongsan, *"Work-efficient Batch-incremental Minimum Spanning Trees with
Applications to the Sliding Window Model"* (SPAA 2020, arXiv:2002.05710).

Public entry points:

- :class:`repro.core.BatchIncrementalMSF` -- the paper's main data structure
  (Algorithm 2): batch edge insertion in ``O(l lg(1 + n/l))`` expected work.
- :func:`repro.core.compressed_path_tree` -- the compressed path tree
  (Section 3, Algorithm 1).
- :mod:`repro.trees` -- batch-dynamic rake-compress trees.
- :mod:`repro.sliding_window` -- the six sliding-window structures of
  Section 5 (connectivity, bipartiteness, approximate MSF weight,
  k-certificates, cycle-freeness, sparsifiers).
- :mod:`repro.msf` -- static MSF kernels (Kruskal / Boruvka / Prim / KKT).
- :mod:`repro.runtime` -- the work-span cost model the bounds are measured in.
"""

__version__ = "1.0.0"

# Convenience top-level exports (the full surface lives in the subpackages).
from repro.core import BatchIncrementalMSF, SequentialIncrementalMSF
from repro.trees import DynamicForest
from repro.runtime import CostModel

__all__ = [
    "BatchIncrementalMSF",
    "SequentialIncrementalMSF",
    "DynamicForest",
    "CostModel",
    "__version__",
]
