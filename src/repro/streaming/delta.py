"""Append-only delta batches over interval-timestamped TPGs.

The interval representation makes temporal extension cheap to *store*:
appending an edge, extending an existence family or advancing the time
horizon each touch a bounded set of interval families.  A
:class:`DeltaBatch` captures exactly those update forms:

* ``add_node`` / ``add_edge`` — new objects with initial existence;
* ``add_existence`` — extend the existence family of an object;
* ``set_property`` — assign a property value over an interval;
* ``extend_domain`` — advance the horizon ``Ω`` (append-only).

:func:`apply_delta` validates the whole batch against the target graph
*before* mutating anything — a rejected batch leaves the graph
untouched — and returns a :class:`DeltaEffects` record describing what
changed: the new objects, the objects whose existence or property
families changed, the ``(property, value)`` keys new to an object, and
whether the horizon moved.  The effects drive the in-place index
maintenance (:meth:`repro.perf.graph_index.GraphIndex.apply_delta`),
which repairs exactly what they name, and the counts
:class:`~repro.streaming.engine.StreamingEngine` reports per batch.

Batches carry an optional monotonically increasing ``sequence`` number;
ordering is enforced by :class:`~repro.streaming.engine.StreamingEngine`,
not here, because a bare graph has no stream position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.errors import GraphIntegrityError, UnknownObjectError
from repro.model.itpg import IntervalTPG
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet
from repro.temporal.valued import ValuedIntervalSet

ObjectId = Hashable


@dataclass(frozen=True)
class NodeAdd:
    """A new node with its label and initial existence intervals."""

    node_id: ObjectId
    label: str
    existence: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeAdd:
    """A new directed edge with its endpoints and initial existence."""

    edge_id: ObjectId
    label: str
    source: ObjectId
    target: ObjectId
    existence: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExistenceAdd:
    """Extend the existence family of an existing (or batch-new) object."""

    object_id: ObjectId
    start: int
    end: int


@dataclass(frozen=True)
class PropertySet:
    """Assign ``value`` to a property during ``[start, end]``."""

    object_id: ObjectId
    name: str
    value: Hashable
    start: int
    end: int


class DeltaBatch:
    """One batch of append-only updates, built up call by call.

    The builder methods return ``self`` so batches can be written
    fluently::

        batch = (
            DeltaBatch(sequence=3)
            .add_node("p9", "Person", [(40, 45)])
            .add_edge("m7", "meets", "p9", "p2", [(41, 43)])
            .set_property("p9", "risk", "low", 40, 45)
        )

    Within a batch, new edges may reference nodes added earlier in the
    same batch, and existence/property records may target batch-new
    objects — the batch is validated and applied as one atomic unit by
    :func:`apply_delta`.
    """

    __slots__ = ("sequence", "_horizon", "_nodes", "_edges", "_existence", "_properties")

    def __init__(self, sequence: Optional[int] = None) -> None:
        self.sequence = sequence
        self._horizon: Optional[int] = None
        self._nodes: list[NodeAdd] = []
        self._edges: list[EdgeAdd] = []
        self._existence: list[ExistenceAdd] = []
        self._properties: list[PropertySet] = []

    # ------------------------------------------------------------------ #
    # Builder API
    # ------------------------------------------------------------------ #
    def extend_domain(self, new_end: int) -> "DeltaBatch":
        """Advance the time-domain horizon to end at ``new_end``."""
        new_end = int(new_end)
        if self._horizon is not None and new_end < self._horizon:
            raise GraphIntegrityError(
                f"batch horizon cannot move backwards ({self._horizon} -> {new_end})"
            )
        self._horizon = new_end
        return self

    def add_node(
        self,
        node_id: ObjectId,
        label: str,
        existence: Iterable[tuple[int, int]] = (),
    ) -> "DeltaBatch":
        self._nodes.append(
            NodeAdd(node_id, label, tuple((int(a), int(b)) for a, b in existence))
        )
        return self

    def add_edge(
        self,
        edge_id: ObjectId,
        label: str,
        source: ObjectId,
        target: ObjectId,
        existence: Iterable[tuple[int, int]] = (),
    ) -> "DeltaBatch":
        self._edges.append(
            EdgeAdd(
                edge_id, label, source, target,
                tuple((int(a), int(b)) for a, b in existence),
            )
        )
        return self

    def add_existence(self, object_id: ObjectId, start: int, end: int) -> "DeltaBatch":
        self._existence.append(ExistenceAdd(object_id, int(start), int(end)))
        return self

    def set_property(
        self, object_id: ObjectId, name: str, value: Hashable, start: int, end: int
    ) -> "DeltaBatch":
        self._properties.append(
            PropertySet(object_id, name, value, int(start), int(end))
        )
        return self

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def horizon(self) -> Optional[int]:
        return self._horizon

    @property
    def nodes(self) -> tuple[NodeAdd, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[EdgeAdd, ...]:
        return tuple(self._edges)

    @property
    def existence(self) -> tuple[ExistenceAdd, ...]:
        return tuple(self._existence)

    @property
    def properties(self) -> tuple[PropertySet, ...]:
        return tuple(self._properties)

    def is_empty(self) -> bool:
        """True when the batch carries no updates (a horizon move is an update)."""
        return not (
            self._nodes or self._edges or self._existence or self._properties
            or self._horizon is not None
        )

    def __repr__(self) -> str:
        parts = [
            f"nodes={len(self._nodes)}",
            f"edges={len(self._edges)}",
            f"existence={len(self._existence)}",
            f"properties={len(self._properties)}",
        ]
        if self._horizon is not None:
            parts.append(f"horizon={self._horizon}")
        if self.sequence is not None:
            parts.insert(0, f"seq={self.sequence}")
        return f"DeltaBatch({', '.join(parts)})"

    # ------------------------------------------------------------------ #
    # JSON wire format (CLI --stream)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        if self.sequence is not None:
            payload["sequence"] = self.sequence
        if self._horizon is not None:
            payload["horizon"] = self._horizon
        if self._nodes:
            payload["nodes"] = [
                {"id": n.node_id, "label": n.label, "existence": [list(p) for p in n.existence]}
                for n in self._nodes
            ]
        if self._edges:
            payload["edges"] = [
                {
                    "id": e.edge_id, "label": e.label, "source": e.source,
                    "target": e.target, "existence": [list(p) for p in e.existence],
                }
                for e in self._edges
            ]
        if self._existence:
            payload["existence"] = [
                {"id": x.object_id, "start": x.start, "end": x.end}
                for x in self._existence
            ]
        if self._properties:
            payload["properties"] = [
                {
                    "id": p.object_id, "name": p.name, "value": p.value,
                    "start": p.start, "end": p.end,
                }
                for p in self._properties
            ]
        return payload

    @staticmethod
    def from_json_dict(payload: dict[str, Any]) -> "DeltaBatch":
        batch = DeltaBatch(sequence=payload.get("sequence"))
        if payload.get("horizon") is not None:
            batch.extend_domain(payload["horizon"])
        for n in payload.get("nodes", ()):
            batch.add_node(n["id"], n["label"], [tuple(p) for p in n.get("existence", ())])
        for e in payload.get("edges", ()):
            batch.add_edge(
                e["id"], e["label"], e["source"], e["target"],
                [tuple(p) for p in e.get("existence", ())],
            )
        for x in payload.get("existence", ()):
            batch.add_existence(x["id"], x["start"], x["end"])
        for p in payload.get("properties", ()):
            batch.set_property(p["id"], p["name"], p["value"], p["start"], p["end"])
        return batch


@dataclass(frozen=True)
class DeltaEffects:
    """What a successfully applied batch changed — the *dirty set*.

    ``touched`` holds every existing object the batch wrote to
    (including the endpoints of new edges); ``dirty`` adds the new
    objects themselves.  The rest is what the index repairs, found by
    comparing each written family with the graph's before the commit,
    new objects first and then in batch order:

    * ``existence_changed`` — new objects, and objects whose existence
      family changed (their existence rows of the array image);
    * ``families_changed`` — those plus objects whose property families
      changed (their condition-table entries);
    * ``new_keys`` — ``(property, value) → objects`` for values an
      object holds now and did not before (the property buckets).
    """

    new_nodes: tuple[ObjectId, ...]
    new_edges: tuple[ObjectId, ...]
    touched: frozenset[ObjectId]
    dirty: frozenset[ObjectId]
    horizon_advanced: bool
    existence_changed: tuple[ObjectId, ...]
    families_changed: tuple[ObjectId, ...]
    new_keys: dict[tuple[str, Hashable], tuple[ObjectId, ...]]
    sequence: Optional[int] = None

    def is_empty(self) -> bool:
        return not self.dirty and not self.horizon_advanced


def apply_delta(graph: IntervalTPG, batch: DeltaBatch) -> DeltaEffects:
    """Validate ``batch`` against ``graph``, then apply it atomically.

    Validation covers everything :meth:`IntervalTPG.validate` would
    reject *after* the batch — unused ids, known endpoints, intervals
    inside the (possibly advanced) domain, edge existence contained in
    both endpoints' prospective existence, property support contained in
    the object's prospective existence, and value-conflicting property
    overlaps — before the first mutation, so a rejected batch leaves the
    graph exactly as it was.
    """
    domain = graph.domain
    new_end = domain.end
    if batch.horizon is not None:
        if batch.horizon < domain.end:
            raise GraphIntegrityError(
                f"batch horizon {batch.horizon} is before the current domain end "
                f"{domain.end}: streaming growth is append-only"
            )
        new_end = batch.horizon
    prospective_domain = Interval(domain.start, new_end)

    # ---------------- validation pass (no mutation) ---------------- #
    batch_nodes: dict[ObjectId, NodeAdd] = {}
    batch_edges: dict[ObjectId, EdgeAdd] = {}
    prospective_existence: dict[ObjectId, IntervalSet] = {}

    def _interval(start: int, end: int, what: str) -> Interval:
        interval = Interval(start, end)
        if not interval.during(prospective_domain):
            raise GraphIntegrityError(
                f"{what} interval {interval} lies outside the temporal domain "
                f"{prospective_domain}"
                + (
                    ""
                    if batch.horizon is not None
                    else " (advance the horizon with extend_domain first)"
                )
            )
        return interval

    def _existence_of(object_id: ObjectId) -> IntervalSet:
        found = prospective_existence.get(object_id)
        if found is not None:
            return found
        if graph.has_object(object_id):
            found = graph.existence(object_id)
        elif object_id in batch_nodes or object_id in batch_edges:
            found = IntervalSet.empty()
        else:
            raise UnknownObjectError(f"unknown object {object_id!r} in delta batch")
        prospective_existence[object_id] = found
        return found

    for node in batch.nodes:
        if graph.has_object(node.node_id) or node.node_id in batch_nodes or node.node_id in batch_edges:
            raise GraphIntegrityError(f"object id {node.node_id!r} already in use")
        batch_nodes[node.node_id] = node
        prospective_existence[node.node_id] = IntervalSet(
            _interval(a, b, f"existence of new node {node.node_id!r}")
            for a, b in node.existence
        )
    for edge in batch.edges:
        if graph.has_object(edge.edge_id) or edge.edge_id in batch_nodes or edge.edge_id in batch_edges:
            raise GraphIntegrityError(f"object id {edge.edge_id!r} already in use")
        for endpoint in (edge.source, edge.target):
            if not (graph.is_node(endpoint) if graph.has_object(endpoint) else endpoint in batch_nodes):
                raise UnknownObjectError(
                    f"edge {edge.edge_id!r} references unknown node {endpoint!r}"
                )
        batch_edges[edge.edge_id] = edge
        prospective_existence[edge.edge_id] = IntervalSet(
            _interval(a, b, f"existence of new edge {edge.edge_id!r}")
            for a, b in edge.existence
        )
    for extend in batch.existence:
        interval = _interval(
            extend.start, extend.end, f"existence extension of {extend.object_id!r}"
        )
        prospective_existence[extend.object_id] = _existence_of(extend.object_id).union(
            IntervalSet((interval,))
        )

    # Edge containment: every edge whose own or endpoint existence the
    # batch touches must end up inside both endpoints' families.
    def _endpoints(edge_id: ObjectId) -> tuple[ObjectId, ObjectId]:
        added = batch_edges.get(edge_id)
        if added is not None:
            return added.source, added.target
        return graph.endpoints(edge_id)

    edges_to_check: set[ObjectId] = set(batch_edges)
    for object_id in prospective_existence:
        if object_id in batch_edges:
            continue
        if graph.has_object(object_id) and graph.is_edge(object_id):
            edges_to_check.add(object_id)
    for edge_id in edges_to_check:
        edge_existence = _existence_of(edge_id)
        src, tgt = _endpoints(edge_id)
        for endpoint in (src, tgt):
            if not edge_existence.is_subset_of(_existence_of(endpoint)):
                raise GraphIntegrityError(
                    f"edge {edge_id!r} would exist outside the existence of its "
                    f"endpoint {endpoint!r}"
                )

    # Property merges: simulate the ValuedIntervalSet merge now so that a
    # value conflict (InvalidIntervalError) or support violation surfaces
    # before any mutation.
    prospective_props: dict[tuple[ObjectId, str], ValuedIntervalSet] = {}
    for prop in batch.properties:
        interval = _interval(
            prop.start, prop.end, f"property {prop.name!r} of {prop.object_id!r}"
        )
        key = (prop.object_id, prop.name)
        current = prospective_props.get(key)
        if current is None:
            if graph.has_object(prop.object_id):
                current = graph.property_family(prop.object_id, prop.name)
            elif prop.object_id in batch_nodes or prop.object_id in batch_edges:
                current = ValuedIntervalSet.empty()
            else:
                raise UnknownObjectError(
                    f"unknown object {prop.object_id!r} in delta batch"
                )
        prospective_props[key] = current.merge(
            ValuedIntervalSet.constant(prop.value, interval.start, interval.end)
        )
    for (object_id, name), family in prospective_props.items():
        if not family.support().is_subset_of(_existence_of(object_id)):
            raise GraphIntegrityError(
                f"property {name!r} of {object_id!r} would be defined outside "
                "its existence"
            )

    # What the commit changes, read against the graph before it: new
    # objects, then each written family that differs from the graph's.
    new_objects = tuple(batch_nodes) + tuple(batch_edges)
    existence_changed = dict.fromkeys(new_objects)
    for extend in batch.existence:
        object_id = extend.object_id
        if object_id not in existence_changed and (
            prospective_existence[object_id] != graph.existence(object_id)
        ):
            existence_changed[object_id] = None
    families_changed = dict(existence_changed)
    new_keys: dict[tuple[str, Hashable], list[ObjectId]] = {}
    for (object_id, name), family in prospective_props.items():
        if object_id in batch_nodes or object_id in batch_edges:
            old = ValuedIntervalSet.empty()
        else:
            old = graph.property_family(object_id, name)
        if family != old:
            families_changed[object_id] = None
            for value in family.values() - old.values():
                new_keys.setdefault((name, value), []).append(object_id)

    # ---------------------- commit (cannot fail) ---------------------- #
    horizon_advanced = new_end > domain.end
    if horizon_advanced:
        graph.extend_domain(new_end)
    for node in batch.nodes:
        graph.add_node(node.node_id, node.label, prospective_existence[node.node_id])
    for edge in batch.edges:
        graph.add_edge(
            edge.edge_id, edge.label, edge.source, edge.target,
            prospective_existence[edge.edge_id],
        )
    # Validation already merged every extended existence and every set
    # property family: install those instead of merging them again.
    graph.install_families(
        {extend.object_id: prospective_existence[extend.object_id] for extend in batch.existence},
        prospective_props,
    )

    touched: set[ObjectId] = set()
    for extend in batch.existence:
        if extend.object_id not in batch_nodes and extend.object_id not in batch_edges:
            touched.add(extend.object_id)
    for prop in batch.properties:
        if prop.object_id not in batch_nodes and prop.object_id not in batch_edges:
            touched.add(prop.object_id)
    for edge in batch.edges:
        # Adjacency of both endpoints changed, whether or not their
        # interval families did.
        for endpoint in (edge.source, edge.target):
            if endpoint not in batch_nodes:
                touched.add(endpoint)
    return DeltaEffects(
        new_nodes=tuple(batch_nodes),
        new_edges=tuple(batch_edges),
        touched=frozenset(touched),
        dirty=frozenset(touched) | frozenset(new_objects),
        horizon_advanced=horizon_advanced,
        existence_changed=tuple(existence_changed),
        families_changed=tuple(families_changed),
        new_keys={key: tuple(members) for key, members in new_keys.items()},
        sequence=batch.sequence,
    )
