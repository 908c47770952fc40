"""The consolidated worker-side cache of the process-parallel backend.

Worker processes memoize three things per graph token: the rebuilt (or
store-attached) graph, the :class:`~repro.perf.graph_index.GraphIndex`
compiled from it, and the ready :class:`DataflowEngine` per
kernel.  These used to live in three module-level dicts across
two modules (``pool._WORKER_GRAPHS`` / ``pool._WORKER_ENGINES`` and
``graph_index._WORKER_INDEXES``) with eviction code in ``pool`` reaching
into ``graph_index``'s registry — and the eviction order was
oldest-*installed* (plain dict order), so a burst of one-shot tokens
could evict the hot graph every other query was using.

This module is the single replacement:

* one :class:`OrderedDict` keyed by token, holding each graph together
  with its per-kernel engines (the compiled index rides on the
  graph object itself via :func:`~repro.perf.graph_index.graph_index_for`,
  so dropping the entry releases graph, index and engines atomically);
* every lookup *touches* its entry (``move_to_end``), making eviction
  genuinely least-recently-used;
* one eviction path: :func:`install` trims the oldest entries after
  inserting, and nothing else ever removes entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

#: Worker-side cap on cached graphs: least-recently-used evicted first.
GRAPH_LIMIT = 8


class CacheEntry:
    """Everything a worker keeps warm for one graph token."""

    __slots__ = ("graph", "engines")

    def __init__(self, graph: object) -> None:
        self.graph = graph
        #: kernel -> ready DataflowEngine.
        self.engines: dict[str, object] = {}


_CACHE: "OrderedDict[str, CacheEntry]" = OrderedDict()


def cached(token: str) -> Optional[CacheEntry]:
    """The entry for ``token``, touched as most-recently-used, or ``None``."""
    entry = _CACHE.get(token)
    if entry is not None:
        _CACHE.move_to_end(token)
    return entry


def install(token: str, graph: object, limit: int = GRAPH_LIMIT) -> CacheEntry:
    """Cache ``graph`` under ``token``; evict least-recently-used over ``limit``.

    The sole eviction path of the worker-side cache: an evicted entry
    takes its graph, the index attached to that graph, and every engine
    built on it down together.
    """
    entry = _CACHE[token] = CacheEntry(graph)
    _CACHE.move_to_end(token)
    while len(_CACHE) > limit:
        _CACHE.popitem(last=False)
    return entry


def tokens() -> Iterator[str]:
    """Cached tokens in eviction order (least-recently-used first)."""
    return iter(_CACHE)


def clear() -> None:
    """Drop every cached entry (tests and fork-safety hooks)."""
    _CACHE.clear()
