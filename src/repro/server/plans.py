"""The compiled-plan cache: normalized query text → plan.

The front half of a query — parse, translate, chain compilation, kernel
planning — is a pure function of the query text (everything
graph-dependent is read through the engine's
:class:`~repro.perf.graph_index.GraphIndex` when the plan *runs*), so
the server memoizes it as a
:class:`~repro.dataflow.executor.QueryPlan` keyed by the normalized
MATCH text alone.  A plan therefore survives a write: the read after an
``apply_delta`` is a hit that evaluates on the patched index.

The cache is bounded (LRU eviction) and thread-safe; hit/miss/eviction
counters feed the ``stats`` op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.dataflow.executor import QueryPlan

PlanKey = str  # normalized query text


class PlanCache:
    """A bounded, thread-safe LRU of compiled :class:`QueryPlan` objects."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[PlanKey, QueryPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: PlanKey) -> Optional[QueryPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: PlanKey, plan: QueryPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[tuple[PlanKey, QueryPlan]]:
        """A snapshot of the cached ``(key, plan)`` pairs, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
