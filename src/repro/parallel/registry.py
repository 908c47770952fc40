"""The consolidated worker-side cache of the process-parallel backend.

Worker processes memoize one thing per graph token: the rebuilt (or
store-attached) graph — the compiled
:class:`~repro.perf.graph_index.GraphIndex` rides on the graph object
itself via :func:`~repro.perf.graph_index.graph_index_for`, so dropping
an entry releases graph and index atomically.  This used to live in
three module-level dicts across two modules (``pool._WORKER_GRAPHS`` /
``pool._WORKER_ENGINES`` and ``graph_index._WORKER_INDEXES``) with
eviction code in ``pool`` reaching into ``graph_index``'s registry — and
the eviction order was oldest-*installed* (plain dict order), so a
burst of one-shot tokens could evict the hot graph every other query
was using.

This module is the single replacement:

* one :class:`OrderedDict` keyed by token;
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

_CACHE: "OrderedDict[str, object]" = OrderedDict()


def cached(token: str) -> Optional[object]:
    """The graph for ``token``, touched as most-recently-used, or ``None``."""
    graph = _CACHE.get(token)
    if graph is not None:
        _CACHE.move_to_end(token)
    return graph


def install(token: str, graph: object, limit: int = GRAPH_LIMIT) -> object:
    """Cache ``graph`` under ``token``; evict least-recently-used over ``limit``.

    The sole eviction path of the worker-side cache: an evicted entry
    takes its graph and the index attached to that graph down together.
    """
    _CACHE[token] = graph
    _CACHE.move_to_end(token)
    while len(_CACHE) > limit:
        _CACHE.popitem(last=False)
    return graph


def tokens() -> Iterator[str]:
    """Cached tokens in eviction order (least-recently-used first)."""
    return iter(_CACHE)


def clear() -> None:
    """Drop every cached entry (tests and fork-safety hooks)."""
    _CACHE.clear()
