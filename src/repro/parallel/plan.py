"""Picklable execution plans for the process-parallel backend.

A worker process cannot share the parent's :class:`IntervalTPG` or its
compiled :class:`~repro.perf.graph_index.GraphIndex`; it has to rebuild
both from bytes.  The expensive part — the graph payload — therefore
ships **once** per ``(graph, worker)`` pair and is cached worker-side by
a stable *token*: an :class:`ExecutionPlan` pairs that token with the
pickled graph (serialized lazily, exactly once per graph, and reused by
every engine and query on it).  Each worker picks its evaluation kernel
itself, exactly as the parent would.

Plans are memoized on the graph object itself (the same pattern as
:func:`~repro.perf.graph_index.graph_index_for`), under a ``_repro_``
attribute that :meth:`IntervalTPG.__getstate__` strips — payloads never
nest payloads.

Graphs attached from a persistent compiled-index artifact
(:func:`repro.store.attach`) carry a :class:`StoreRef` instead: a tiny
``(path, token)`` pair the workers use to mmap-attach the *same*
artifact rather than unpickling a private copy — every worker then
shares the parent's page-cache pages.  The ref is bound to the graph
alongside the token and travels on every plan; the pickled payload
remains as the self-healing fallback when a worker cannot attach (file
moved, corrupted, token mismatch after recompile).

The per-query parts of a dispatch (the full compiled chain, one chunk of
seed objects) are small and travel with each task: a worker seeds the
chunk from its own index, whose times it already holds.
"""

from __future__ import annotations

import pickle
import threading
import uuid
from dataclasses import dataclass
from typing import Optional

from repro.model.itpg import IntervalTPG

_TOKEN_ATTR = "_repro_parallel_token"
_PLAN_ATTR = "_repro_parallel_plan"
_PLAN_LOCK = threading.Lock()
_STORE_ATTR = "_repro_store_ref"


@dataclass(frozen=True)
class StoreRef:
    """Where workers can attach a graph's compiled artifact themselves.

    ``token`` is the artifact's compile-time identity (persisted in its
    header metadata); it doubles as the graph's parallel-execution token
    so worker-side caches key attached and shipped graphs uniformly.  A
    ref whose token no longer matches the graph's current token is stale
    (the graph mutated since attach) and is never dispatched.
    """

    path: str
    token: str


def bind_store(graph: IntervalTPG, ref: StoreRef) -> None:
    """Adopt the artifact's identity for ``graph``'s parallel execution.

    Called by :func:`repro.store.attach`: the graph's token becomes the
    artifact token (every attacher of one artifact shares it) and the
    ref rides on subsequent plans so workers attach instead of receiving
    a pickled payload.
    """
    setattr(graph, _TOKEN_ATTR, ref.token)
    setattr(graph, _STORE_ATTR, ref)


def store_ref(graph: IntervalTPG) -> Optional[StoreRef]:
    """The live :class:`StoreRef` of ``graph``, or ``None``.

    A ref left over from before an in-place mutation (token rotated by
    :func:`invalidate_plans`) is treated as absent.
    """
    ref = getattr(graph, _STORE_ATTR, None)
    if ref is not None and ref.token != getattr(graph, _TOKEN_ATTR, None):
        return None
    return ref


class ExecutionPlan:
    """What a worker needs to rebuild the parent's graph."""

    __slots__ = ("token", "store", "_graph", "_payload")

    def __init__(
        self, token: str, graph: IntervalTPG, store: Optional[StoreRef]
    ) -> None:
        self.token = token
        #: Set for store-attached graphs: workers mmap the artifact at
        #: this ref instead of unpickling ``payload`` (which stays
        #: available as the fallback when attaching fails worker-side).
        self.store = store
        self._graph = graph
        self._payload: bytes | None = None

    @property
    def payload(self) -> bytes:
        """The pickled graph, serialized on first use and then reused.

        The plan is memoized per graph, so the graph is pickled at most
        once however many engines and queries dispatch on it.
        ``IntervalTPG.__getstate__`` guarantees the bytes contain the
        graph only — no cached index, no nested plans.
        """
        if self._payload is None:
            self._payload = pickle.dumps(self._graph, protocol=pickle.HIGHEST_PROTOCOL)
        return self._payload


def graph_token(graph: IntervalTPG) -> str:
    """The stable parallel-execution identity of ``graph``.

    Assigned on first use and stored on the graph, so the token's
    lifetime is the graph's lifetime (``id()`` reuse after garbage
    collection can never alias two graphs) and every engine sharing the
    graph shares the token — which is what lets worker-side caches
    answer repeat queries with zero re-transfer.
    """
    token = getattr(graph, _TOKEN_ATTR, None)
    if token is None:
        token = uuid.uuid4().hex
        setattr(graph, _TOKEN_ATTR, token)
    return token


def invalidate_plans(graph: IntervalTPG) -> bool:
    """Drop ``graph``'s execution plan *and* rotate its token.

    Called whenever the graph is mutated in place (the delta commit path
    of :func:`repro.streaming.delta.apply_delta`).  Both halves matter:

    * the memoized plan holds a pickled payload of the *pre-mutation*
      graph, so the next dispatch must re-serialize;
    * worker processes cache rebuilt graphs/engines/indexes **by
      token**, so a surviving token would keep answering from the stale
      worker-side graph even with a fresh payload — rotating the token
      makes the post-delta graph a new identity that ships anew and ages
      the stale entries out of the bounded worker caches.

    Returns ``True`` when there was anything to invalidate.
    """
    had = hasattr(graph, _PLAN_ATTR) or hasattr(graph, _TOKEN_ATTR)
    for attr in (_PLAN_ATTR, _TOKEN_ATTR, _STORE_ATTR):
        try:
            delattr(graph, attr)
        except AttributeError:
            pass
    return had


def plan_for(graph: IntervalTPG) -> ExecutionPlan:
    """The shared :class:`ExecutionPlan` of one graph.

    Built under a lock: concurrent readers of one graph state must agree
    on one token (the worker-side cache key).
    """
    plan: ExecutionPlan | None = getattr(graph, _PLAN_ATTR, None)
    if plan is None:
        with _PLAN_LOCK:
            plan = getattr(graph, _PLAN_ATTR, None)
            if plan is None:
                plan = ExecutionPlan(graph_token(graph), graph, store=store_ref(graph))
                setattr(graph, _PLAN_ATTR, plan)
    return plan

