"""One-time compilation of a temporal graph into query-ready indexes.

The evaluation hot paths repeatedly ask the same questions of the graph:
which edges leave this node, which objects carry this label, at which
times does this object satisfy a static condition.  The seed engines
answered them by walking the graph per frontier row — rebuilding
``frozenset`` adjacency copies and re-walking condition ASTs for every
row of every step.  A :class:`GraphIndex` answers them from structures
compiled once per graph and shared across queries and engines:

* adjacency as immutable tuples (no per-call copies);
* ``label → objects`` and ``(property, value) → objects`` buckets, used
  to seed frontiers with only the objects that can match a condition;
* per-object existence families (the coalesced ``IntervalSet``\\ s);
* memoized *condition tables*: for a static condition, the mapping from
  every satisfying object to its coalesced satisfaction times.

Use :func:`graph_index_for` to obtain the shared per-graph instance.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable, Optional, Union as TypingUnion

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
from repro.temporal.valued import ValuedIntervalSet

ObjectId = Hashable
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]


class CompiledCore:
    """The immutable compiled tables of one graph (the flat half of the index).

    A core is everything :class:`GraphIndex` derives from a graph that
    never changes *in place*: the dense-id object table, per-object
    existence/adjacency/property families, endpoint maps and the
    label / property candidate buckets.  It comes from one of two
    builders with the same attribute surface:

    * :meth:`from_graph` — the eager in-memory build (this class);
    * :class:`repro.store.artifact.AttachedCore` — the same attributes
      as mmap-backed lazy sections, attached zero-copy from a persistent
      ``repro-index/1`` artifact.

    :class:`GraphIndex` binds these attributes once and then treats them
    as its mutable working set: delta maintenance rebinds or writes
    through them (attached cores route writes to a per-map overlay, so
    the read-only artifact is never touched).
    """

    __slots__ = (
        "domain",
        "nodes",
        "edges",
        "objects",
        "object_id",
        "labels",
        "existence",
        "out_adjacency",
        "in_adjacency",
        "edge_source",
        "edge_target",
        "node_label_buckets",
        "edge_label_buckets",
        "prop_value_buckets",
        "properties",
    )

    @classmethod
    def from_graph(cls, graph: IntervalTPG) -> "CompiledCore":
        """Compile a core from an in-memory graph (one pass per object)."""
        core = cls()
        core.domain = graph.domain
        core.nodes = frozenset(graph.nodes())
        core.edges = frozenset(graph.edges())
        core.objects = tuple(graph.objects())
        #: Dense per-object integers in deterministic enumeration order:
        #: the columnar kernel's array positions for each object.
        core.object_id = {obj: position for position, obj in enumerate(core.objects)}

        core.labels = {}
        core.existence = {}
        core.out_adjacency = {}
        core.in_adjacency = {}
        core.edge_source = {}
        core.edge_target = {}

        node_buckets: dict[str, list[ObjectId]] = {}
        edge_buckets: dict[str, list[ObjectId]] = {}
        prop_buckets: dict[tuple[str, Hashable], list[ObjectId]] = {}
        core.properties = {}

        for node in graph.nodes():
            core.labels[node] = graph.label(node)
            core.existence[node] = graph.existence(node)
            core.out_adjacency[node] = tuple(graph.out_edges(node))
            core.in_adjacency[node] = tuple(graph.in_edges(node))
            node_buckets.setdefault(graph.label(node), []).append(node)
        for edge in graph.edges():
            core.labels[edge] = graph.label(edge)
            core.existence[edge] = graph.existence(edge)
            src, tgt = graph.endpoints(edge)
            core.edge_source[edge] = src
            core.edge_target[edge] = tgt
            edge_buckets.setdefault(graph.label(edge), []).append(edge)
        for obj in core.objects:
            families = graph.properties(obj)
            core.properties[obj] = families
            for name, family in families.items():
                for entry in family:
                    bucket = prop_buckets.setdefault((name, entry.value), [])
                    if not bucket or bucket[-1] is not obj:
                        bucket.append(obj)

        core.node_label_buckets = {
            label: tuple(members) for label, members in node_buckets.items()
        }
        core.edge_label_buckets = {
            label: tuple(members) for label, members in edge_buckets.items()
        }
        core.prop_value_buckets = {
            key: tuple(members) for key, members in prop_buckets.items()
        }
        return core


class GraphIndex:
    """Compiled, immutable-by-convention indexes over one :class:`IntervalTPG`.

    Build via :func:`graph_index_for` so the compilation cost is paid
    once per graph; the memoized condition tables then accumulate across
    every query and engine that shares the instance.  The flat compiled
    tables live in a :class:`CompiledCore` — either built eagerly from
    the graph here, or passed in pre-attached from a persistent artifact
    (:func:`repro.store.attach`); on top of the core the index keeps the
    mutable overlay state delta maintenance writes to, plus the memoized
    condition tables.
    """

    def __init__(self, graph: IntervalTPG, core: CompiledCore | None = None) -> None:
        self._graph = graph
        if core is None:
            core = CompiledCore.from_graph(graph)
        self._core = core
        self._domain = core.domain
        self._full = IntervalSet((core.domain,))
        self._empty = IntervalSet.empty()

        # The core's tables become the index's working set.  For the
        # in-memory build the core is exclusively owned, so writing its
        # plain dicts in place *is* the overlay; attached cores hand out
        # lazy maps whose writes land in a per-map overlay instead of
        # the mmapped artifact.
        self._nodes: frozenset[ObjectId] = core.nodes
        self._edges: frozenset[ObjectId] = core.edges
        self.objects: tuple[ObjectId, ...] = core.objects
        self.object_id: dict[ObjectId, int] = core.object_id
        self.labels = core.labels
        self.existence = core.existence
        self.out_adjacency = core.out_adjacency
        self.in_adjacency = core.in_adjacency
        self.edge_source = core.edge_source
        self.edge_target = core.edge_target
        self.node_label_buckets = core.node_label_buckets
        self.edge_label_buckets = core.edge_label_buckets
        self.prop_value_buckets = core.prop_value_buckets
        self._properties = core.properties

        self._table_cache: dict[Test, dict[ObjectId, IntervalSet]] = {}
        self._static_cache: dict[Test, bool] = {}
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

    @property
    def core(self) -> CompiledCore:
        """The compiled core the index was built from (or attached to)."""
        return self._core

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

    # ------------------------------------------------------------------ #
    # Condition evaluation
    # ------------------------------------------------------------------ #
    def is_static(self, condition: Test) -> bool:
        """True when the condition contains no path condition ``(?path)``."""
        cached = self._static_cache.get(condition)
        if cached is None:
            cached = _is_static(condition)
            self._static_cache[condition] = cached
        return cached

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
        table: dict[ObjectId, IntervalSet] = {}
        for obj in pool:
            times = self._times(obj, condition)
            if not times.is_empty():
                table[obj] = times
        self._table_cache[condition] = table
        return table

    def _times(self, obj: ObjectId, condition: Test) -> IntervalSet:
        if isinstance(condition, AndTest):
            result = self._full
            for part in condition.parts:
                result = result.intersect(self._times(obj, part))
                if result.is_empty():
                    return self._empty
            return result
        if isinstance(condition, LabelTest):
            return self._full if self.labels.get(obj) == condition.label else self._empty
        if isinstance(condition, PropEq):
            family = self._properties[obj].get(condition.prop)
            if family is None:
                return self._empty
            return family.when_equals(condition.value)
        if isinstance(condition, ExistsTest):
            return self.existence[obj]
        if isinstance(condition, NodeTest):
            return self._full if obj in self._nodes else self._empty
        if isinstance(condition, EdgeTest):
            return self._full if obj in self._edges else self._empty
        if isinstance(condition, TimeLt):
            if condition.bound <= self._domain.start:
                return self._empty
            return IntervalSet(
                (Interval(self._domain.start, min(self._domain.end, condition.bound - 1)),)
            )
        if isinstance(condition, TrueTest):
            return self._full
        if isinstance(condition, OrTest):
            result = self._empty
            for part in condition.parts:
                result = result.union(self._times(obj, part))
            return result
        if isinstance(condition, NotTest):
            return self._times(obj, condition.inner).complement(self._domain)
        if isinstance(condition, PathTest):
            raise UnsupportedFragmentError(
                "path conditions (?path) have no condition table"
            )
        raise TypeError(f"unknown test {condition!r}")

    # ------------------------------------------------------------------ #
    # In-place maintenance (streaming deltas)
    # ------------------------------------------------------------------ #
    def apply_delta(self, effects) -> None:
        """Maintain the compiled index after an applied delta batch.

        ``effects`` is the :class:`~repro.streaming.delta.DeltaEffects`
        record of a batch already applied to :attr:`graph` (typed
        loosely to keep :mod:`repro.perf` below :mod:`repro.streaming`
        in the layering).  The compiled structures are updated in place:

        * new objects are appended — their dense ``object_id`` slots
          extend the table, so every existing id stays valid;
        * touched objects get their existence/property families and
          label/property buckets refreshed from the graph; new edges are
          appended to their endpoints' adjacency tuples;
        * memoized *per-object* results (condition-table entries, the
          dirty rows of the columnar array image) are recomputed for
          exactly the dirty objects.

        Advancing the horizon invalidates every memoized family instead:
        condition satisfaction (``¬φ``, label tests, ``time < c``) is
        clamped to the domain, so no per-object surgery is sound there.

        Soundness: a condition table entry is a function of one
        object's own families (object-local — repairing the dirty
        objects suffices).  ``tests/test_columnar_context.py`` compares
        the patched image with a rebuild after every delta.  The stale
        caches that *do* outlive an in-place mutation — the pickled
        parallel plan payload and the worker-side graphs keyed by its
        token — are invalidated at delta-commit time by
        :func:`repro.parallel.plan.invalidate_plans`.
        """
        dirty = set(effects.dirty)
        self._epoch += 1
        if effects.horizon_advanced:
            self._domain = self._graph.domain
            self._full = IntervalSet((self._domain,))
            self._table_cache.clear()

        graph = self._graph
        appended: list[ObjectId] = []
        self._nodes = self._nodes.union(effects.new_nodes)
        self._edges = self._edges.union(effects.new_edges)
        for node in effects.new_nodes:
            self.labels[node] = graph.label(node)
            self.existence[node] = graph.existence(node)
            self.out_adjacency[node] = ()
            self.in_adjacency[node] = ()
            self._properties[node] = graph.properties(node)
            bucket = self.node_label_buckets.get(graph.label(node), ())
            self.node_label_buckets[graph.label(node)] = bucket + (node,)
            appended.append(node)
        for edge in effects.new_edges:
            self.labels[edge] = graph.label(edge)
            self.existence[edge] = graph.existence(edge)
            src, tgt = graph.endpoints(edge)
            self.edge_source[edge] = src
            self.edge_target[edge] = tgt
            self.out_adjacency[src] = self.out_adjacency[src] + (edge,)
            self.in_adjacency[tgt] = self.in_adjacency[tgt] + (edge,)
            self._properties[edge] = graph.properties(edge)
            bucket = self.edge_label_buckets.get(graph.label(edge), ())
            self.edge_label_buckets[graph.label(edge)] = bucket + (edge,)
            appended.append(edge)
        if appended:
            position = len(self.objects)
            self.objects = self.objects + tuple(appended)
            for obj in appended:
                self.object_id[obj] = position
                position += 1

        for obj in effects.touched:
            self.existence[obj] = graph.existence(obj)
            self._properties[obj] = graph.properties(obj)
        for obj in sorted(dirty, key=lambda o: self.object_id[o]):
            for name, family in self._properties[obj].items():
                for entry in family:
                    key = (name, entry.value)
                    bucket = self.prop_value_buckets.get(key, ())
                    if obj not in bucket:
                        self.prop_value_buckets[key] = bucket + (obj,)

        if not effects.horizon_advanced and dirty:
            # Condition tables are shared with callers by reference, so
            # they are repaired in place: recompute exactly the dirty
            # objects' satisfaction times.
            for condition, table in self._table_cache.items():
                for obj in dirty:
                    times = self._times(obj, condition)
                    if times.is_empty():
                        table.pop(obj, None)
                    else:
                        table[obj] = times
        if self._columnar is not None:
            self._columnar.apply_delta(effects)

    def snapshot_core(self) -> CompiledCore:
        """A plain-dict snapshot of the compiled tables *as maintained now*.

        The store writer serializes this rather than :attr:`core` because
        delta maintenance mutates the index's working maps, not the core
        it was built from — a snapshot therefore reflects every applied
        batch.  Per-object entries are pulled through the live maps, so
        an attached (lazily decoded) index snapshots correctly too.
        """
        core = CompiledCore()
        core.domain = self._domain
        core.nodes = self._nodes
        core.edges = self._edges
        core.objects = self.objects
        core.object_id = dict(self.object_id)
        core.labels = {obj: self.labels[obj] for obj in self.objects}
        core.existence = {obj: self.existence[obj] for obj in self.objects}
        core.out_adjacency = {
            obj: self.out_adjacency[obj] for obj in self.objects if obj in self._nodes
        }
        core.in_adjacency = {
            obj: self.in_adjacency[obj] for obj in self.objects if obj in self._nodes
        }
        core.edge_source = {
            obj: self.edge_source[obj] for obj in self.objects if obj in self._edges
        }
        core.edge_target = {
            obj: self.edge_target[obj] for obj in self.objects if obj in self._edges
        }
        core.properties = {obj: dict(self._properties[obj]) for obj in self.objects}
        # Copy via .items(): plain dict(m) on a dict subclass reads the
        # C-level storage directly, which would skip an attached core's
        # lazy section fill.
        core.node_label_buckets = {k: v for k, v in self.node_label_buckets.items()}
        core.edge_label_buckets = {k: v for k, v in self.edge_label_buckets.items()}
        core.prop_value_buckets = {k: v for k, v in self.prop_value_buckets.items()}
        return core

    # ------------------------------------------------------------------ #
    # Seed cost model (parallel chunking)
    # ------------------------------------------------------------------ #
    def seed_weight(self, obj: ObjectId) -> int:
        """Estimated chain-execution cost of a frontier seeded at ``obj``.

        The first structural step fans a node out to its adjacent edges,
        so a seed's work is roughly proportional to its out-degree;
        edges step to a single endpoint.  The weighted partitioner uses
        this to stop one hub-heavy chunk from straggling behind the
        rest — the imbalance a count-based split cannot see.
        """
        edges = self.out_adjacency.get(obj)
        if edges is None:
            return 2
        return 1 + len(edges)

    def _candidates(self, condition: Test) -> Optional[frozenset[ObjectId]]:
        """Objects that can possibly satisfy the condition, or ``None`` for all.

        Sound over-approximation only — the per-object times are always
        verified afterwards — so unrestrictive tests simply return
        ``None``.
        """
        if isinstance(condition, LabelTest):
            return frozenset(
                self.node_label_buckets.get(condition.label, ())
                + self.edge_label_buckets.get(condition.label, ())
            )
        if isinstance(condition, PropEq):
            return frozenset(
                self.prop_value_buckets.get((condition.prop, condition.value), ())
            )
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


def _is_static(condition: Test) -> bool:
    if isinstance(condition, PathTest):
        return False
    if isinstance(condition, (AndTest, OrTest)):
        return all(_is_static(part) for part in condition.parts)
    if isinstance(condition, NotTest):
        return _is_static(condition.inner)
    return True


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

    The store attach path builds the index from an artifact core rather
    than from the graph; installing it here makes every subsequent
    :func:`graph_index_for` call return the attached index instead of
    recompiling.
    """
    setattr(graph, _CACHE_ATTR, index)

