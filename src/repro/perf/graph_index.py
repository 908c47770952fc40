"""What a temporal graph cannot answer itself, compiled once per graph.

The graph already answers every per-object question — label, existence
family, property families, adjacency, endpoints — through its own
accessors (:class:`~repro.model.itpg.IntervalTPG`).  A
:class:`GraphIndex` keeps only what those accessors cannot give:

* the dense-id object table (the columnar kernel's array positions) and
  the node / edge sets;
* ``label → objects`` and ``(property, value) → objects`` buckets, used
  to seed frontiers with only the objects that can match a condition;
* memoized *condition tables*: for a static condition, the mapping from
  every satisfying object to its coalesced satisfaction times, computed
  by :func:`condition_times`;
* the kernel's array image (:meth:`GraphIndex.columnar_context`).

Use :func:`graph_index_for` to obtain the shared per-graph instance.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Iterable, Optional, Union as TypingUnion

from repro.errors import UnsupportedFragmentError
from repro.lang.ast import (
    AndTest,
    EdgeTest,
    ExistsTest,
    LabelTest,
    NodeTest,
    NotTest,
    OrTest,
    PathTest,
    PropEq,
    Test,
    TimeLt,
    TrueTest,
)
from repro.model.convert import tpg_to_itpg
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]
#: ``(node label, edge label, (property, value))`` candidate buckets.
Buckets = tuple[dict, dict, dict]


def condition_times(
    graph: IntervalTPG,
    obj: ObjectId,
    condition: Test,
    full: Optional[IntervalSet] = None,
    leaves: Optional[dict] = None,
) -> IntervalSet:
    """The set of time points at which ``(obj, t)`` satisfies ``condition``.

    The result is a coalesced interval family read from the graph's own
    accessors, computed without ever expanding the graph to time points
    — the primitive that keeps Steps 1 and 2 of the evaluation
    interval-based.  ``full`` is the graph's full-domain family (a caller
    evaluating many objects passes one instead of having it rebuilt per
    call); ``leaves`` memoizes the object's property leaves across the
    conditions of one repair.
    """
    if full is None:
        full = IntervalSet((graph.domain,))
    if isinstance(condition, AndTest):
        # Every part's times lie inside the domain, so the conjunction
        # starts from its first non-full part rather than intersecting
        # with the full domain.
        result = full
        for part in condition.parts:
            times = condition_times(graph, obj, part, full, leaves)
            if result is full:
                result = times
            elif times is not full:
                result = result.intersect(times)
            if result.is_empty():
                return result
        return result
    if isinstance(condition, LabelTest):
        return full if graph.label(obj) == condition.label else IntervalSet.empty()
    if isinstance(condition, PropEq):
        if leaves is not None:
            times = leaves.get(condition)
            if times is None:
                times = leaves[condition] = condition_times(graph, obj, condition, full)
            return times
        return graph.property_family(obj, condition.prop).when_equals(condition.value)
    if isinstance(condition, ExistsTest):
        return graph.existence(obj)
    if isinstance(condition, NodeTest):
        return full if graph.is_node(obj) else IntervalSet.empty()
    if isinstance(condition, EdgeTest):
        return full if graph.is_edge(obj) else IntervalSet.empty()
    if isinstance(condition, TimeLt):
        domain = graph.domain
        if condition.bound <= domain.start:
            return IntervalSet.empty()
        return IntervalSet((Interval(domain.start, min(domain.end, condition.bound - 1)),))
    if isinstance(condition, TrueTest):
        return full
    if isinstance(condition, OrTest):
        result = IntervalSet.empty()
        for part in condition.parts:
            result = result.union(condition_times(graph, obj, part, full, leaves))
        return result
    if isinstance(condition, NotTest):
        return condition_times(graph, obj, condition.inner, full, leaves).complement(
            graph.domain
        )
    if isinstance(condition, PathTest):
        raise UnsupportedFragmentError(
            "path conditions (?path) are outside the dataflow fragment"
        )
    raise TypeError(f"unknown test {condition!r}")


class GraphIndex:
    """Id interning, candidate buckets and condition tables over one graph.

    Build via :func:`graph_index_for` so the compilation cost is paid
    once per graph; the memoized condition tables then accumulate across
    every query and engine that shares the instance.  No per-object fact
    of the graph is copied here: condition evaluation and the array image
    read the graph's accessors.  The store's :func:`~repro.store.attach`
    hands over what it must not rebuild by scanning: the artifact's
    ``objects`` order (its dense ids) and a ``buckets`` loader for its
    bucket section.
    """

    def __init__(
        self,
        graph: IntervalTPG,
        objects: Optional[tuple[ObjectId, ...]] = None,
        buckets: Optional[Callable[[], Buckets]] = None,
    ) -> None:
        self._graph = graph
        self._domain = graph.domain
        self._full = IntervalSet((self._domain,))
        #: Dense per-object integers in deterministic enumeration order:
        #: the columnar kernel's array positions for each object.
        self.objects: tuple[ObjectId, ...] = (
            tuple(graph.objects()) if objects is None else objects
        )
        self.object_id: dict[ObjectId, int] = {
            obj: position for position, obj in enumerate(self.objects)
        }
        self._nodes: frozenset[ObjectId] = frozenset(graph.nodes())
        self._edges: frozenset[ObjectId] = frozenset(graph.edges())
        self._load_buckets = buckets or self._scan_buckets
        self._buckets: Optional[Buckets] = None
        self._buckets_lock = threading.Lock()

        self._table_cache: dict[Test, dict[ObjectId, IntervalSet]] = {}
        #: Maintenance counter: +1 per :meth:`apply_delta` (server stats).
        self._epoch = 0
        #: The columnar kernel's array image (:meth:`columnar_context`),
        #: built once under its own lock: readers share the host lock.
        self._columnar = None
        self._columnar_lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """How many delta batches this index has been maintained through."""
        return self._epoch

    def columnar_context(self):
        """The graph's one :class:`~repro.perf.columnar.ColumnarContext`.

        Built on first use, shared by every engine on
        the graph, and patched in place by :meth:`apply_delta` — no read
        after a delta pays a rebuild.
        """
        if self._columnar is None:
            from repro.perf.columnar import ColumnarContext

            with self._columnar_lock:
                if self._columnar is None:
                    self._columnar = ColumnarContext(self)
        return self._columnar

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> IntervalTPG:
        return self._graph

    @property
    def domain(self) -> Interval:
        return self._domain

    def is_node(self, obj: ObjectId) -> bool:
        return obj in self._nodes

    def is_edge(self, obj: ObjectId) -> bool:
        return obj in self._edges

    def nodes(self) -> frozenset[ObjectId]:
        return self._nodes

    def edges(self) -> frozenset[ObjectId]:
        return self._edges

    def buckets(self) -> Buckets:
        """The candidate buckets, loaded on first use (readers share the
        host lock, so one of them loads and the rest wait)."""
        if self._buckets is None:
            with self._buckets_lock:
                if self._buckets is None:
                    self._buckets = self._load_buckets()
        return self._buckets

    def _scan_buckets(self) -> Buckets:
        graph = self._graph
        node_buckets: dict[str, list[ObjectId]] = {}
        edge_buckets: dict[str, list[ObjectId]] = {}
        prop_buckets: dict[tuple[str, Hashable], list[ObjectId]] = {}
        for obj in self.objects:
            labels = node_buckets if obj in self._nodes else edge_buckets
            labels.setdefault(graph.label(obj), []).append(obj)
            for name in graph.property_names(obj):
                for value in graph.property_family(obj, name).values():
                    prop_buckets.setdefault((name, value), []).append(obj)
        return tuple(
            {key: tuple(members) for key, members in buckets.items()}
            for buckets in (node_buckets, edge_buckets, prop_buckets)
        )

    # ------------------------------------------------------------------ #
    # Condition evaluation
    # ------------------------------------------------------------------ #
    def condition_table(self, condition: Test) -> dict[ObjectId, IntervalSet]:
        """``object → satisfaction times`` for every object with nonempty times.

        Candidates are narrowed through the label / property buckets
        before any per-object work, and the finished table is memoized.
        Treat the returned mapping as read-only: it is shared between
        callers.  Only static conditions have a table: a path condition
        ``(?path)`` raises :class:`UnsupportedFragmentError` (the
        dataflow fragment excludes them; the reference engine evaluates
        them by projection).
        """
        cached = self._table_cache.get(condition)
        if cached is not None:
            return cached
        candidates = self._candidates(condition)
        if candidates is None:
            pool: Iterable[ObjectId] = self.objects
        else:
            # Filter the deterministic object order through the candidate
            # set rather than iterating the (hash-ordered) set itself, so
            # frontier seeding stays reproducible across processes.
            pool = (obj for obj in self.objects if obj in candidates)
        graph, full = self._graph, self._full
        table: dict[ObjectId, IntervalSet] = {}
        for obj in pool:
            times = condition_times(graph, obj, condition, full)
            if not times.is_empty():
                table[obj] = times
        self._table_cache[condition] = table
        return table

    # ------------------------------------------------------------------ #
    # In-place maintenance (streaming deltas)
    # ------------------------------------------------------------------ #
    def apply_delta(self, effects) -> None:
        """Maintain the index after an applied delta batch.

        ``effects`` is the :class:`~repro.streaming.delta.DeltaEffects`
        record of a batch already applied to :attr:`graph` (typed
        loosely to keep :mod:`repro.perf` below :mod:`repro.streaming`
        in the layering); it names what changed, so nothing here
        compares families:

        * new objects are appended — their dense ``object_id`` slots
          extend the table, so every existing id stays valid;
        * the label buckets gain the new objects and the property
          buckets the ``(property, value)`` keys new to an object, one
          tuple extension per key;
        * memoized condition tables are repaired for exactly the objects
          whose families changed, and the columnar array image re-splices
          only the rows whose existence, edges or satisfaction times
          changed.

        Advancing the horizon invalidates every memoized family instead:
        condition satisfaction (``¬φ``, label tests, ``time < c``) is
        clamped to the domain, so no per-object surgery is sound there.

        Soundness: a condition table entry is a function of one
        object's own label, existence and property families
        (object-local — an object only touched through a new incident
        edge keeps its entries).  ``tests/test_columnar_context.py``
        compares the patched index and image with rebuilds after every
        delta.
        """
        self._epoch += 1
        graph = self._graph
        if effects.horizon_advanced:
            self._domain = graph.domain
            self._full = IntervalSet((self._domain,))
            self._table_cache.clear()

        appended = effects.new_nodes + effects.new_edges
        if appended:
            self._nodes = self._nodes.union(effects.new_nodes)
            self._edges = self._edges.union(effects.new_edges)
            position = len(self.objects)
            self.objects = self.objects + appended
            for obj in appended:
                self.object_id[obj] = position
                position += 1
        if self._buckets is None:
            # Never loaded: a later scan of the graph sees this batch.
            self._load_buckets = self._scan_buckets
        else:
            node_buckets, edge_buckets, prop_buckets = self._buckets
            _extend(node_buckets, _by_label(graph, effects.new_nodes))
            _extend(edge_buckets, _by_label(graph, effects.new_edges))
            _extend(prop_buckets, effects.new_keys)
        out_edges: dict[ObjectId, list[ObjectId]] = {}
        in_edges: dict[ObjectId, list[ObjectId]] = {}
        for edge in effects.new_edges:
            src, tgt = graph.endpoints(edge)
            out_edges.setdefault(src, []).append(edge)
            in_edges.setdefault(tgt, []).append(edge)

        # Condition tables are shared with callers by reference, so they
        # are repaired in place, and each reports the objects whose
        # times actually changed — the only rows the image re-splices.
        changed: dict[Test, list[ObjectId]] = {}
        tables = list(self._table_cache.items())
        full = self._full
        for obj in effects.families_changed:
            leaves: dict[Test, IntervalSet] = {}
            for condition, table in tables:
                times = condition_times(graph, obj, condition, full, leaves)
                old = table.get(obj)
                if times.is_empty():
                    if old is None:
                        continue
                    del table[obj]
                elif times == old:
                    continue
                else:
                    table[obj] = times
                changed.setdefault(condition, []).append(obj)
        if self._columnar is not None:
            self._columnar.patch(
                effects.horizon_advanced,
                effects.existence_changed,
                out_edges,
                in_edges,
                changed,
            )

    def _candidates(self, condition: Test) -> Optional[frozenset[ObjectId]]:
        """Objects that can possibly satisfy the condition, or ``None`` for all.

        Sound over-approximation only — the per-object times are always
        verified afterwards — so unrestrictive tests simply return
        ``None``.
        """
        if isinstance(condition, LabelTest):
            node_buckets, edge_buckets, _ = self.buckets()
            return frozenset(
                node_buckets.get(condition.label, ())
                + edge_buckets.get(condition.label, ())
            )
        if isinstance(condition, PropEq):
            return frozenset(self.buckets()[2].get((condition.prop, condition.value), ()))
        if isinstance(condition, NodeTest):
            return self._nodes
        if isinstance(condition, EdgeTest):
            return self._edges
        if isinstance(condition, AndTest):
            narrowed: Optional[frozenset[ObjectId]] = None
            for part in condition.parts:
                part_candidates = self._candidates(part)
                if part_candidates is None:
                    continue
                narrowed = (
                    part_candidates
                    if narrowed is None
                    else narrowed & part_candidates
                )
            return narrowed
        if isinstance(condition, OrTest):
            union: frozenset[ObjectId] = frozenset()
            for part in condition.parts:
                part_candidates = self._candidates(part)
                if part_candidates is None:
                    return None
                union |= part_candidates
            return union
        return None


def _extend(buckets: dict, additions: dict) -> None:
    """Append each key's new members to its tuple, one copy per key."""
    for key, members in additions.items():
        buckets[key] = buckets.get(key, ()) + tuple(members)


def _by_label(graph: IntervalTPG, objects: Iterable[ObjectId]) -> dict:
    """``label → objects`` of ``objects``, in their order."""
    grouped: dict[str, list[ObjectId]] = {}
    for obj in objects:
        grouped.setdefault(graph.label(obj), []).append(obj)
    return grouped


# --------------------------------------------------------------------- #
# Per-graph cache
# --------------------------------------------------------------------- #
_CACHE_ATTR = "_repro_graph_index"


def graph_index_for(graph: TemporalGraph) -> GraphIndex:
    """The shared :class:`GraphIndex` of ``graph``, compiling it on first use.

    Point-based graphs are converted to their interval form once.  The
    index is stored on the graph object itself, so its lifetime is
    exactly the graph's lifetime — no global registry to leak through.
    """
    cached = getattr(graph, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    itpg = tpg_to_itpg(graph) if isinstance(graph, TemporalPropertyGraph) else graph
    index = GraphIndex(itpg)
    setattr(graph, _CACHE_ATTR, index)
    return index


def install_index(graph: TemporalGraph, index: GraphIndex) -> None:
    """Pre-bind a compiled ``index`` as ``graph``'s shared index.

    The store attach path builds the index from an artifact's object
    table and bucket section; installing it here makes every subsequent
    :func:`graph_index_for` call return the attached index instead of
    recompiling.
    """
    setattr(graph, _CACHE_ATTR, index)
