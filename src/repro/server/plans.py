"""The compiled-plan cache: ``(normalized query text, graph token)`` → plan.

The expensive front half of a query — parse, translate, chain
compilation, hop fusion against the resident
:class:`~repro.perf.graph_index.GraphIndex` — is pure in the graph
state, so the server memoizes it as a
:class:`~repro.dataflow.executor.QueryPlan` keyed by the normalized
MATCH text plus the graph's parallel-execution token.

Invalidation has two independent layers (belt and braces, because a
stale plan is a *wrong-answer* bug, not a perf bug):

* **implicit** — applying a delta rotates the graph token
  (:func:`repro.parallel.plan.invalidate_plans` runs at delta-commit
  time), so post-delta requests simply miss: their key names a token no
  cached entry carries;
* **explicit** — the server calls :meth:`PlanCache.invalidate_token`
  with the pre-delta token, dropping the now-unreachable entries
  immediately instead of letting them squat in the LRU until capacity
  pressure ages them out.

The cache is bounded (LRU eviction) and thread-safe; hit/miss/eviction/
invalidation counters feed the ``stats`` op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.dataflow.executor import QueryPlan

PlanKey = Tuple[str, str]  # (normalized query text, graph token)


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
        self.invalidations = 0

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

    def invalidate_token(self, token: str) -> int:
        """Drop every plan compiled against graph ``token``; returns the count."""
        with self._lock:
            stale = [key for key in self._entries if key[1] == token]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

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
                "invalidations": self.invalidations,
            }
