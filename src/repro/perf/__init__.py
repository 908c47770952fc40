"""Shared performance substrate for the evaluation engines.

This package holds the structures that make the hot paths fast without
changing any semantics:

* :class:`~repro.perf.graph_index.GraphIndex` — a per-graph compilation
  of adjacency, label / property buckets, existence families and
  memoized condition tables, shared across queries and engines via
  :func:`~repro.perf.graph_index.graph_index_for`;
* :class:`~repro.perf.interval_relation.IntervalRelation` — binary
  temporal relations as coalesced diagonal interval families, with the
  full Theorem-C.1 algebra implemented as interval arithmetic;
* :class:`~repro.perf.interval_eval.IntervalBottomUpEvaluator` — the
  bottom-up algorithm running natively on interval relations.

Every structure is cross-checked against the point-based ground truth in
the test suite; see docs/ARCHITECTURE.md for the architecture and
PERFORMANCE.md for the measured costs.
"""

from repro.perf.graph_index import CompiledCore, GraphIndex, graph_index_for
from repro.perf.interval_relation import IntervalRelation
from repro.perf.interval_eval import IntervalBottomUpEvaluator

__all__ = [
    "CompiledCore",
    "GraphIndex",
    "graph_index_for",
    "IntervalRelation",
    "IntervalBottomUpEvaluator",
]
