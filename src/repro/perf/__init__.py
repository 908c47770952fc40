"""Shared performance substrate for the evaluation engines.

This package holds the structures that make the hot paths fast without
changing any semantics:

* :class:`~repro.perf.graph_index.GraphIndex` — what the graph cannot
  answer itself: the dense-id object table, label / property buckets
  and memoized condition tables, shared across queries and engines via
  :func:`~repro.perf.graph_index.graph_index_for`;
* :mod:`repro.perf.columnar` — the dataflow engine's kernel: every
  chain as vectorized NumPy sweeps over the index-owned array image of
  the graph.

Every structure is cross-checked against the point-based ground truth in
the test suite; see docs/ARCHITECTURE.md for the architecture and
PERFORMANCE.md for the measured costs.
"""

from repro.perf.graph_index import GraphIndex, graph_index_for

__all__ = [
    "GraphIndex",
    "graph_index_for",
]
