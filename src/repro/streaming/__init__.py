"""Streaming evaluation over growing time domains.

* :mod:`repro.streaming.delta` — the :class:`DeltaBatch` append-only
  update model (new nodes/edges, existence extension, property writes,
  horizon advance) with atomic validate-then-apply semantics;
* :mod:`repro.streaming.engine` — the :class:`StreamingEngine` session
  that keeps registered MATCH queries continuously answered by
  re-deriving only the seeds whose structural/temporal neighbourhood a
  batch dirtied, maintaining the compiled
  :class:`~repro.perf.graph_index.GraphIndex` in place.

:class:`StreamingEngine` is the one entry point: ``register`` a query,
``apply`` batches, read ``table``/``results``.  The server drives one
per resident graph, and the CLI surfaces the same loop as ``repro query
… --stream deltas.jsonl``.
"""

from repro.streaming.delta import (
    DeltaBatch,
    DeltaEffects,
    EdgeAdd,
    ExistenceAdd,
    NodeAdd,
    PropertySet,
    apply_delta,
)
from repro.streaming.engine import ApplyResult, QueryUpdate, StreamingEngine
from repro.streaming.reader import parse_stream_line, read_delta_stream

__all__ = [
    "DeltaBatch",
    "DeltaEffects",
    "NodeAdd",
    "EdgeAdd",
    "ExistenceAdd",
    "PropertySet",
    "apply_delta",
    "parse_stream_line",
    "read_delta_stream",
    "StreamingEngine",
    "ApplyResult",
    "QueryUpdate",
]
