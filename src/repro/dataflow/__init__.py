"""Dataflow evaluation of TRPQs over interval-timestamped TPGs (Section VI).

The engine follows the paper's three-step strategy:

1. **Structural navigation on intervals** — edge traversals and static
   tests are evaluated directly on the interval representation; all
   variables bound within one structural stretch share a single validity
   interval (temporal alignment).
2. **Temporal navigation on intervals** — ``NEXT``/``PREV`` steps (with
   or without occurrence bounds) are turned into interval arithmetic
   over the object's existence runs; the affected bindings are split into
   *groups* related by a recorded temporal constraint.
3. **Point-wise expansion** — the final binding table is materialized by
   enumerating time points consistent with the recorded constraints.

The supported fragment is the one the paper implements: MATCH chains
whose path patterns combine structural steps, static tests and temporal
steps with occurrence indicators (all of Q1–Q12).  Structural Kleene
stars and path conditions fall back to the reference engine.
"""

from repro.dataflow.steps import compile_chain, ChainStep
from repro.dataflow.executor import DataflowEngine, MatchResult
from repro.dataflow.queries import PAPER_QUERIES, PaperQuery, get_query
from repro.perf.graph_index import condition_times

__all__ = [
    "compile_chain",
    "ChainStep",
    "condition_times",
    "DataflowEngine",
    "MatchResult",
    "PAPER_QUERIES",
    "PaperQuery",
    "get_query",
]
