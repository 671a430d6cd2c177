"""Batch-dynamic trees: ternarization, rake-compress contraction, RC trees.

This package implements the dynamic-trees substrate of Acar, Anderson,
Blelloch, Dhulipala and Westrick [2] that the paper builds on (Section 2.2):

- :mod:`repro.trees.ternary` -- dynamic conversion of an arbitrary-degree
  forest into an equivalent bounded-degree (<= 3) forest, using vertex
  copies joined by weight ``-inf`` virtual edges.
- :mod:`repro.trees.cluster` -- RC-tree cluster nodes (vertex/edge leaves,
  unary = rake, binary = compress, nullary = root) with heaviest-edge
  path augmentation.
- :mod:`repro.trees.rcforest` -- the leveled Miller-Reif contraction
  maintained under batch link/cut by change propagation, exposing the RC
  tree primitives of Section 3 (Boundary / Children / Representative /
  Weight); the executable reference the tests compare against.
- :mod:`repro.trees.rcarray` -- the production engine: a NumPy
  structure-of-arrays port of the same contraction (identical coin
  flips, snapshots and cost charges) whose level passes run as
  vectorized array sweeps.
- :mod:`repro.trees.cpt` -- the compressed path tree (Section 3,
  Algorithm 1), re-exported by :mod:`repro.core` as the paper's key
  ingredient.
- :class:`repro.trees.forest.DynamicForest` -- the user-facing weighted
  dynamic forest over original vertex ids.
"""

from repro.trees.cluster import ClusterNode, ClusterKind
from repro.trees.ternary import TernaryForest
from repro.trees.rcforest import RCForest
from repro.trees.rcarray import RCArrayForest
from repro.trees.batchquery import ComponentSummary
from repro.trees.forest import DynamicForest
from repro.trees.cpt import CompressedPathTree, PathAggregate, compressed_path_trees

__all__ = [
    "ClusterNode",
    "ClusterKind",
    "TernaryForest",
    "RCForest",
    "RCArrayForest",
    "ComponentSummary",
    "DynamicForest",
    "CompressedPathTree",
    "PathAggregate",
    "compressed_path_trees",
]
