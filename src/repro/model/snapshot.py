"""Snapshots: conventional property graphs at a single time point.

A snapshot of a temporal property graph ``G`` at time ``t`` is the
non-temporal property graph containing exactly the nodes and edges that
exist at ``t``, with the property values they hold at ``t``.  Snapshots
are the semantic basis of *snapshot reducibility*: a temporal operator
applied to ``G`` must agree with the non-temporal operator applied to
each snapshot (Section II of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional, Union

from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph

ObjectId = Hashable
TemporalGraph = Union[TemporalPropertyGraph, IntervalTPG]


@dataclass
class Snapshot:
    """A conventional (non-temporal) property graph.

    Attributes
    ----------
    time:
        The time point this snapshot was taken at.
    node_labels / edge_labels:
        Labels of the nodes/edges present in the snapshot.
    edge_endpoints:
        ``edge id -> (source, target)`` for present edges.
    properties:
        ``object id -> {property name -> value}`` at the snapshot time.
    """

    time: int
    node_labels: dict[ObjectId, str] = field(default_factory=dict)
    edge_labels: dict[ObjectId, str] = field(default_factory=dict)
    edge_endpoints: dict[ObjectId, tuple[ObjectId, ObjectId]] = field(default_factory=dict)
    properties: dict[ObjectId, dict[str, Hashable]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def nodes(self) -> Iterator[ObjectId]:
        return iter(self.node_labels)

    def edges(self) -> Iterator[ObjectId]:
        return iter(self.edge_labels)

    def has_node(self, node_id: ObjectId) -> bool:
        return node_id in self.node_labels

    def has_edge(self, edge_id: ObjectId) -> bool:
        return edge_id in self.edge_labels

    def label(self, object_id: ObjectId) -> Optional[str]:
        return self.node_labels.get(object_id) or self.edge_labels.get(object_id)

    def property_value(self, object_id: ObjectId, name: str) -> Optional[Hashable]:
        return self.properties.get(object_id, {}).get(name)

    def out_edges(self, node_id: ObjectId) -> list[ObjectId]:
        return [e for e, (src, _t) in self.edge_endpoints.items() if src == node_id]

    def in_edges(self, node_id: ObjectId) -> list[ObjectId]:
        return [e for e, (_s, tgt) in self.edge_endpoints.items() if tgt == node_id]

    def num_nodes(self) -> int:
        return len(self.node_labels)

    def num_edges(self) -> int:
        return len(self.edge_labels)

    def to_networkx(self):
        """Export the snapshot as a ``networkx.MultiDiGraph`` (optional dependency)."""
        import networkx as nx

        out = nx.MultiDiGraph(time=self.time)
        for node_id, label in self.node_labels.items():
            out.add_node(node_id, label=label, **self.properties.get(node_id, {}))
        for edge_id, (src, tgt) in self.edge_endpoints.items():
            out.add_edge(
                src,
                tgt,
                key=edge_id,
                label=self.edge_labels[edge_id],
                **self.properties.get(edge_id, {}),
            )
        return out


def snapshot_at(graph: TemporalGraph, t: int) -> Snapshot:
    """Project a temporal graph (TPG or ITPG) onto its snapshot at time ``t``."""
    snap = Snapshot(time=t)
    for node_id in graph.nodes():
        if graph.exists(node_id, t):
            snap.node_labels[node_id] = graph.label(node_id)
            props = _properties_at(graph, node_id, t)
            if props:
                snap.properties[node_id] = props
    for edge_id in graph.edges():
        if graph.exists(edge_id, t):
            snap.edge_labels[edge_id] = graph.label(edge_id)
            snap.edge_endpoints[edge_id] = graph.endpoints(edge_id)
            props = _properties_at(graph, edge_id, t)
            if props:
                snap.properties[edge_id] = props
    return snap


def snapshot_sequence(graph: TemporalGraph) -> Iterator[Snapshot]:
    """The snapshot-sequence view of a temporal graph, one snapshot per time point."""
    for t in graph.time_points():
        yield snapshot_at(graph, t)


def _properties_at(graph: TemporalGraph, object_id: ObjectId, t: int) -> dict[str, Hashable]:
    values: dict[str, Hashable] = {}
    for name in graph.property_names(object_id):
        value = graph.property_value(object_id, name, t)
        if value is not None:
            values[name] = value
    return values
