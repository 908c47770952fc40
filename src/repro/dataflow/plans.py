"""The one plan cache: query text → compiled plan.

The front half of a query — parse, translate, chain compilation, kernel
planning — is a pure function of the query text (everything
graph-dependent is read through the engine's
:class:`~repro.perf.graph_index.GraphIndex` when the plan *runs*), so
each :class:`~repro.dataflow.executor.DataflowEngine` memoizes it as a
:class:`~repro.dataflow.executor.QueryPlan` keyed by the text alone: a
repeated ``match(text)`` skips straight to the kernel, and a plan
survives a write — the read after a delta is a hit that evaluates on
the patched index.  The server looks up its normalized query text in
the same cache (its engine's), so there is one cache per engine.

The cache is bounded (LRU eviction) and thread-safe; hit/miss/eviction
counters feed the server's ``stats`` op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.dataflow.executor import QueryPlan

PlanKey = str  # query text (the server's is normalized)


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

    def lookup(
        self, key: PlanKey, prepare: Callable[[PlanKey], QueryPlan]
    ) -> tuple[QueryPlan, bool]:
        """``(plan, hit)`` for ``key``, preparing and storing it on a miss.

        ``prepare`` runs outside the lock, so a racing miss prepares
        twice and stores one of two equal plans; a ``prepare`` that
        raises (a parse error) stores nothing and counts its miss.
        """
        plan = self.get(key)
        if plan is not None:
            return plan, True
        plan = prepare(key)
        self.put(key, plan)
        return plan, False

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
