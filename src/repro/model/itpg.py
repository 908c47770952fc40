"""Interval-timestamped temporal property graphs (Definition A.1).

An :class:`IntervalTPG` stores, for each node or edge, a *coalesced*
family of existence intervals (``ξ : N ∪ E → FC(Ω)``) and, for each
property of each object, a coalesced family of valued intervals
(``σ : (N ∪ E) × Prop → vFC(Ω)``).  The two integrity conditions of the
definition are enforced by :meth:`IntervalTPG.validate`:

* if ``ρ(e) = (n1, n2)`` then ``ξ(e) ⊑ ξ(n1)`` and ``ξ(e) ⊑ ξ(n2)``;
* the support of every property family is contained (``⊑``) in the
  existence family of its object.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Optional

from repro.errors import GraphIntegrityError, UnknownObjectError
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet
from repro.temporal.valued import ValuedInterval, ValuedIntervalSet

ObjectId = Hashable
Label = str
PropertyName = str
Value = Hashable


class IntervalTPG:
    """Interval-timestamped temporal property graph (ITPG).

    This is the representation used by the dataflow engine and the
    workload generator: it is exponentially more succinct than the
    point-based :class:`~repro.model.tpg.TemporalPropertyGraph` when
    objects are stable over long stretches of time.
    """

    def __init__(self, domain: Interval | tuple[int, int]) -> None:
        if not isinstance(domain, Interval):
            domain = Interval(int(domain[0]), int(domain[1]))
        self._domain = domain
        self._node_labels: dict[ObjectId, Label] = {}
        self._edge_labels: dict[ObjectId, Label] = {}
        self._edge_endpoints: dict[ObjectId, tuple[ObjectId, ObjectId]] = {}
        self._existence: dict[ObjectId, IntervalSet] = {}
        self._properties: dict[ObjectId, dict[PropertyName, ValuedIntervalSet]] = {}
        self._out_edges: dict[ObjectId, set[ObjectId]] = {}
        self._in_edges: dict[ObjectId, set[ObjectId]] = {}

    # ------------------------------------------------------------------ #
    # Domain
    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> Interval:
        """The temporal domain ``Ω`` as a single interval."""
        return self._domain

    def time_points(self) -> range:
        return self._domain.points()

    def extend_domain(self, new_end: int) -> None:
        """Advance the time-domain horizon ``Ω`` to end at ``new_end``.

        Streaming growth is append-only: the horizon can only move
        forward, so every existing interval stays inside the domain and
        no stored family needs rewriting.  ``new_end`` equal to the
        current end is a no-op; moving backwards raises
        :class:`GraphIntegrityError`.  Derived structures compiled
        against the old domain (a cached
        :class:`~repro.perf.graph_index.GraphIndex`, engine domain
        caches) are *not* refreshed here — the streaming layer
        (:mod:`repro.streaming`) owns that maintenance.
        """
        new_end = int(new_end)
        if new_end < self._domain.end:
            raise GraphIntegrityError(
                f"cannot shrink temporal domain {self._domain} to end at {new_end}: "
                "streaming growth is append-only"
            )
        if new_end == self._domain.end:
            return
        self._domain = Interval(self._domain.start, new_end)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_id: ObjectId,
        label: Label,
        existence: IntervalSet | Iterable[tuple[int, int]] = (),
    ) -> None:
        """Register a node; ``existence`` may be given now or extended later."""
        if node_id in self._node_labels or node_id in self._edge_labels:
            raise GraphIntegrityError(f"object id {node_id!r} already in use")
        self._node_labels[node_id] = label
        self._existence[node_id] = self._normalize_existence(existence)
        self._properties[node_id] = {}
        self._out_edges[node_id] = set()
        self._in_edges[node_id] = set()

    def add_edge(
        self,
        edge_id: ObjectId,
        label: Label,
        source: ObjectId,
        target: ObjectId,
        existence: IntervalSet | Iterable[tuple[int, int]] = (),
    ) -> None:
        """Register a directed edge from ``source`` to ``target``."""
        if edge_id in self._node_labels or edge_id in self._edge_labels:
            raise GraphIntegrityError(f"object id {edge_id!r} already in use")
        if source not in self._node_labels:
            raise UnknownObjectError(f"unknown source node {source!r}")
        if target not in self._node_labels:
            raise UnknownObjectError(f"unknown target node {target!r}")
        self._edge_labels[edge_id] = label
        self._edge_endpoints[edge_id] = (source, target)
        self._existence[edge_id] = self._normalize_existence(existence)
        self._properties[edge_id] = {}
        self._out_edges[source].add(edge_id)
        self._in_edges[target].add(edge_id)

    def add_existence(self, object_id: ObjectId, start: int, end: int) -> None:
        """Extend the existence family of an object with ``[start, end]``."""
        interval = Interval(start, end)
        if not interval.during(self._domain):
            raise GraphIntegrityError(
                f"existence {interval} of {object_id!r} outside domain {self._domain}"
            )
        current = self._existence_of(object_id)
        self._existence[object_id] = current.union(IntervalSet((interval,)))

    def set_property(
        self,
        object_id: ObjectId,
        name: PropertyName,
        value: Value,
        start: int,
        end: int,
    ) -> None:
        """Assign ``value`` to property ``name`` during ``[start, end]``."""
        interval = Interval(start, end)
        if not interval.during(self._domain):
            raise GraphIntegrityError(
                f"property interval {interval} of {object_id!r} outside domain"
            )
        props = self._properties.get(object_id)
        if props is None:
            raise UnknownObjectError(f"unknown object {object_id!r}")
        current = props.get(name, ValuedIntervalSet.empty())
        props[name] = current.merge(
            ValuedIntervalSet((ValuedInterval(value, interval),))
        )

    def install_families(
        self,
        existence: Mapping[ObjectId, IntervalSet],
        properties: Mapping[tuple[ObjectId, PropertyName], ValuedIntervalSet],
    ) -> None:
        """Replace whole existence and property families of known objects.

        The bulk form of :meth:`add_existence` and :meth:`set_property`
        for families already merged and validated elsewhere (a delta
        batch's commit, :func:`repro.streaming.delta.apply_delta`): no
        re-merge and no domain or containment check.
        """
        self._existence.update(existence)
        for (object_id, name), family in properties.items():
            self._properties[object_id][name] = family

    def _normalize_existence(
        self, existence: IntervalSet | Iterable[tuple[int, int]]
    ) -> IntervalSet:
        if isinstance(existence, IntervalSet):
            family = existence
        else:
            family = IntervalSet(Interval(int(a), int(b)) for a, b in existence)
        for iv in family:
            if not iv.during(self._domain):
                raise GraphIntegrityError(
                    f"existence interval {iv} outside temporal domain {self._domain}"
                )
        return family

    def _existence_of(self, object_id: ObjectId) -> IntervalSet:
        try:
            return self._existence[object_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def nodes(self) -> Iterator[ObjectId]:
        return iter(self._node_labels)

    def edges(self) -> Iterator[ObjectId]:
        return iter(self._edge_labels)

    def objects(self) -> Iterator[ObjectId]:
        yield from self._node_labels
        yield from self._edge_labels

    def is_node(self, object_id: ObjectId) -> bool:
        return object_id in self._node_labels

    def is_edge(self, object_id: ObjectId) -> bool:
        return object_id in self._edge_labels

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self._existence

    def label(self, object_id: ObjectId) -> Label:
        if object_id in self._node_labels:
            return self._node_labels[object_id]
        if object_id in self._edge_labels:
            return self._edge_labels[object_id]
        raise UnknownObjectError(f"unknown object {object_id!r}")

    def endpoints(self, edge_id: ObjectId) -> tuple[ObjectId, ObjectId]:
        try:
            return self._edge_endpoints[edge_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown edge {edge_id!r}") from exc

    def source(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[0]

    def target(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[1]

    def existence(self, object_id: ObjectId) -> IntervalSet:
        """The function ``ξ``: coalesced existence family of the object."""
        return self._existence_of(object_id)

    def exists(self, object_id: ObjectId, t: int) -> bool:
        """Point-wise existence check derived from the interval family."""
        return self._existence_of(object_id).contains_point(t)

    def properties(self, object_id: ObjectId) -> dict[PropertyName, ValuedIntervalSet]:
        """All property families of the object (a copy of the mapping)."""
        props = self._properties.get(object_id)
        if props is None:
            raise UnknownObjectError(f"unknown object {object_id!r}")
        return dict(props)

    def property_family(
        self, object_id: ObjectId, name: PropertyName
    ) -> ValuedIntervalSet:
        """The function ``σ`` for one property (empty family if never defined)."""
        props = self._properties.get(object_id)
        if props is None:
            raise UnknownObjectError(f"unknown object {object_id!r}")
        return props.get(name, ValuedIntervalSet.empty())

    def property_value(
        self, object_id: ObjectId, name: PropertyName, t: int
    ) -> Optional[Value]:
        """Point-wise property lookup derived from the valued-interval family."""
        return self.property_family(object_id, name).value_at(t)

    def property_names(self, object_id: ObjectId) -> frozenset[PropertyName]:
        props = self._properties.get(object_id)
        if props is None:
            raise UnknownObjectError(f"unknown object {object_id!r}")
        return frozenset(name for name, family in props.items() if family)

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #
    def out_edges(self, node_id: ObjectId) -> frozenset[ObjectId]:
        try:
            return frozenset(self._out_edges[node_id])
        except KeyError as exc:
            raise UnknownObjectError(f"unknown node {node_id!r}") from exc

    def in_edges(self, node_id: ObjectId) -> frozenset[ObjectId]:
        try:
            return frozenset(self._in_edges[node_id])
        except KeyError as exc:
            raise UnknownObjectError(f"unknown node {node_id!r}") from exc

    # ------------------------------------------------------------------ #
    # Counting (used by Table I)
    # ------------------------------------------------------------------ #
    def num_nodes(self) -> int:
        return len(self._node_labels)

    def num_edges(self) -> int:
        return len(self._edge_labels)

    def num_temporal_nodes(self) -> int:
        """Number of node *versions*: distinct (existence ∩ property-change) pieces.

        Table I of the paper reports "# temp. nodes" — the number of rows
        of the interval-timestamped node relation, i.e. one row per
        maximal stretch of time during which the node exists and none of
        its property values change.
        """
        return sum(self._num_versions(n) for n in self._node_labels)

    def num_temporal_edges(self) -> int:
        """Number of edge versions (rows of the interval edge relation)."""
        return sum(self._num_versions(e) for e in self._edge_labels)

    def _num_versions(self, object_id: ObjectId) -> int:
        boundaries: set[int] = set()
        existence = self._existence[object_id]
        for iv in existence:
            boundaries.add(iv.start)
            boundaries.add(iv.end + 1)
        for family in self._properties[object_id].values():
            for entry in family:
                boundaries.add(entry.start)
                boundaries.add(entry.end + 1)
        if not existence:
            return 0
        ordered = sorted(boundaries)
        count = 0
        for start, nxt in zip(ordered, ordered[1:]):
            if existence.contains_point(start):
                count += 1
        del nxt
        return count

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the integrity conditions of Definition A.1.

        Raises :class:`GraphIntegrityError` on the first violation.
        """
        for edge_id, (src, tgt) in self._edge_endpoints.items():
            edge_existence = self._existence[edge_id]
            if not edge_existence.is_subset_of(self._existence[src]):
                raise GraphIntegrityError(
                    f"edge {edge_id!r} exists outside the existence of its source {src!r}"
                )
            if not edge_existence.is_subset_of(self._existence[tgt]):
                raise GraphIntegrityError(
                    f"edge {edge_id!r} exists outside the existence of its target {tgt!r}"
                )
        for object_id, props in self._properties.items():
            existence = self._existence[object_id]
            for name, family in props.items():
                if not family.support().is_subset_of(existence):
                    raise GraphIntegrityError(
                        f"property {name!r} of {object_id!r} defined outside its existence"
                    )

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"IntervalTPG(domain={self._domain}, nodes={self.num_nodes()}, "
            f"edges={self.num_edges()})"
        )
