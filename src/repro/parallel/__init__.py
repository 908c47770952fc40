"""Process-parallel frontier execution (the paper's Fig.-3 parallelism).

The dataflow engine's one pool: seed chunks run in worker processes, so
evaluation scales with cores instead of sharing one GIL:

* :mod:`repro.parallel.partition` — the degree-weighted chunk
  partitioner;
* :mod:`repro.parallel.plan` — picklable execution plans: a stable
  per-graph token plus the serialized graph payload, shipped to each
  worker at most once;
* :mod:`repro.parallel.pool` — persistent worker-process pools, the
  graph installation protocol, and the worker-side chunk runner (the
  columnar kernel's one entry, ``run_query``, on the full chain and one
  chunk of seed objects — the serial path's call, restricted);
* :mod:`repro.parallel.merge` — the single parent-side coalescing merge
  of per-chunk partial results (the columnar kernel reuses its family
  merge to union a distributed alternation's leaves).

It engages with ``DataflowEngine(graph, workers=N)`` or ``repro query …
--workers N`` for any ``N > 1``.
"""

from repro.parallel.partition import chunk_weight, weighted_chunks
from repro.parallel.plan import ExecutionPlan, graph_token, plan_for
from repro.parallel.merge import merge_family_chunks, merge_point_chunks
from repro.parallel.pool import (
    PlanNotInstalledError,
    WorkerPool,
    shared_pool,
    shutdown_all,
    shutdown_pools,
)

__all__ = [
    "ExecutionPlan",
    "PlanNotInstalledError",
    "WorkerPool",
    "chunk_weight",
    "graph_token",
    "merge_family_chunks",
    "merge_point_chunks",
    "plan_for",
    "shared_pool",
    "shutdown_all",
    "shutdown_pools",
    "weighted_chunks",
]
