"""Compiling graphs to persistent artifacts and attaching them.

The writer (:func:`compile_graph`) serializes a graph — its object
table, labels, endpoints, existence, adjacency and property families,
read through the graph's own accessors, plus the index's candidate
buckets — into one self-contained artifact in the flat-section
container of :mod:`repro.store.format`.

The reader (:func:`attach`) maps the artifact read-only and builds the
graph from its records once, in bulk (:meth:`AttachedCore.to_graph`):
an attached graph is a plain :class:`IntervalTPG`, the same as one
loaded from JSON.  What attach keeps from the artifact is what a scan
of the graph would otherwise recompute: the dense-id object order and
the candidate buckets.  The ``adj`` records duplicate the endpoints
table; only :meth:`AttachedCore.verify` reads them.

Layout of the per-object data sections: for each of ``exist`` /
``adj`` / ``props`` there is an ``.idx`` section of ``len(members)+1``
little-endian u64 byte offsets and a ``.dat`` section holding the
records back to back (record ``i`` spans ``idx[i]..idx[i+1]``):

* ``exist`` records are packed ``<qq`` (start, end) pairs of the
  already-coalesced existence family — decoded zero-validation via
  :meth:`IntervalSet._from_coalesced`;
* ``adj`` records are a u32 out-degree followed by the out- then
  in-edge dense ids as u32, each side ascending (edges get an empty
  record);
* ``props`` records are the pickled property mapping (empty record for
  objects without properties).

Dense ids (``objects`` positions) are the on-disk vocabulary; the
``objects`` section maps them back to user-facing identifiers.
"""

from __future__ import annotations

import pickle
import struct
import traceback
import uuid
from typing import Hashable, Iterator, Optional

from repro.errors import StoreCorruptError, StoreFormatError
from repro.model.itpg import IntervalTPG
from repro.perf.graph_index import GraphIndex, graph_index_for, install_index
from repro.store.format import Artifact, write_artifact
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable

_PAIR = struct.Struct("<qq")


# --------------------------------------------------------------------- #
# Section packing
# --------------------------------------------------------------------- #
def _pack_records(records: list[bytes]) -> tuple[bytes, bytes]:
    """``(idx, dat)`` sections: u64 offsets (with end sentinel) + payload."""
    offsets = [0]
    for record in records:
        offsets.append(offsets[-1] + len(record))
    idx = struct.pack(f"<{len(offsets)}Q", *offsets)
    return idx, b"".join(records)


def _exist_record(family: IntervalSet) -> bytes:
    return b"".join(_PAIR.pack(iv.start, iv.end) for iv in family)


def _adj_record(out_ids: list[int], in_ids: list[int]) -> bytes:
    ids = out_ids + in_ids
    return struct.pack(f"<I{len(ids)}I", len(out_ids), *ids)


def _props_record(graph: IntervalTPG, obj: ObjectId) -> bytes:
    names = graph.property_names(obj)
    if not names:
        return b""
    live = {name: graph.property_family(obj, name) for name in sorted(names)}
    return pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)


def _exist_family(record: memoryview) -> IntervalSet:
    return IntervalSet._from_coalesced(
        Interval(start, end) for start, end in _PAIR.iter_unpack(record)
    )


def _props_families(record: memoryview) -> dict:
    return pickle.loads(record) if len(record) else {}


def _head_sections(index: GraphIndex, graph: IntervalTPG) -> dict[str, bytes]:
    """The graph-wide tables: object vocabulary, labels, endpoints, buckets."""
    dumps = lambda obj: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)  # noqa: E731
    objects, nodes = index.objects, index.nodes()
    node_positions = [position for position, obj in enumerate(objects) if obj in nodes]
    return {
        "objects": dumps(objects),
        "nodekind": struct.pack(f"<{len(node_positions)}I", *node_positions),
        "labels": dumps(tuple(graph.label(obj) for obj in objects)),
        "endpoints": dumps(
            tuple(graph.endpoints(obj) for obj in objects if obj not in nodes)
        ),
        "buckets": dumps(tuple(dict(buckets) for buckets in index.buckets())),
    }


def _data_sections(index: GraphIndex, graph: IntervalTPG) -> dict[str, bytes]:
    """Per-object records, one per dense position."""
    object_id, nodes = index.object_id, index.nodes()

    def ids(edges) -> list[int]:
        return sorted(object_id[edge] for edge in edges)

    exist_records: list[bytes] = []
    adj_records: list[bytes] = []
    props_records: list[bytes] = []
    for obj in index.objects:
        exist_records.append(_exist_record(graph.existence(obj)))
        if obj in nodes:
            adj_records.append(_adj_record(ids(graph.out_edges(obj)), ids(graph.in_edges(obj))))
        else:
            adj_records.append(b"")
        props_records.append(_props_record(graph, obj))
    sections: dict[str, bytes] = {}
    for name, records in (
        ("exist", exist_records),
        ("adj", adj_records),
        ("props", props_records),
    ):
        idx, dat = _pack_records(records)
        sections[f"{name}.idx"] = idx
        sections[f"{name}.dat"] = dat
    return sections


# --------------------------------------------------------------------- #
# Compile
# --------------------------------------------------------------------- #
def compile_graph(
    graph: IntervalTPG, path: str, *, session: Optional[dict] = None
) -> dict:
    """Write ``graph`` and its index's buckets to the artifact ``path``.

    Returns a report with the artifact's ``path``, its per-compile
    ``token``, the ``objects`` and ``nodes`` counts and its size in
    ``bytes``.  Everything is read from the graph as it is now, so the
    artifact reflects every delta batch already applied — compiling is
    always safe after streaming maintenance.  ``session`` (a checkpoint's
    ``{sequence, wal_seq, epoch, queries}``, see
    :func:`repro.resilience.write_snapshot`) is stored as the header's
    ``meta["session"]``.
    """
    index = graph_index_for(graph)
    source = index.graph  # the IntervalTPG (post tpg conversion)
    token = uuid.uuid4().hex
    sections = _head_sections(index, source)
    sections.update(_data_sections(index, source))
    meta = {
        "token": token,
        "domain": [source.domain.start, source.domain.end],
        "num_objects": len(index.objects),
        "num_nodes": len(index.nodes()),
        "kind": "index",
    }
    if session is not None:
        meta["session"] = session
    report = write_artifact(path, sections, meta)
    return {
        "path": path,
        "token": token,
        "objects": len(index.objects),
        "nodes": len(index.nodes()),
        "bytes": report["bytes"],
    }




# --------------------------------------------------------------------- #
# Attached core
# --------------------------------------------------------------------- #
class AttachedCore:
    """The read side of one attached artifact.

    Construction runs the header checks and unpickles the object table;
    :meth:`to_graph` decodes every record into an :class:`IntervalTPG`
    once.  The map stays open afterwards for the bucket section, which
    the index loads on first use, and for :meth:`verify`.
    """

    def __init__(self, artifact: Artifact) -> None:
        meta = artifact.meta
        try:
            self.token: str = meta["token"]
            domain = meta["domain"]
            declared = int(meta["num_objects"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(
                f"{artifact.path}: artifact metadata is missing required keys",
                path=artifact.path,
            ) from exc
        self.meta: dict = meta
        self.domain = Interval(int(domain[0]), int(domain[1]))
        self.objects: tuple[ObjectId, ...] = pickle.loads(artifact.section("objects"))
        if len(self.objects) != declared:
            raise StoreCorruptError(
                f"{artifact.path}: object table holds {len(self.objects)} entries, "
                f"header declares {declared}",
                path=artifact.path,
                section="objects",
            )
        node_positions = artifact.section("nodekind").cast("I")
        self.node_tuple: tuple[ObjectId, ...] = tuple(
            self.objects[position] for position in node_positions
        )
        self.nodes: frozenset = frozenset(self.node_tuple)
        self.edge_tuple: tuple[ObjectId, ...] = tuple(
            obj for obj in self.objects if obj not in self.nodes
        )
        self._artifact = artifact

    def buckets(self) -> tuple[dict, dict, dict]:
        """The compiled candidate buckets (the index loads them once)."""
        return pickle.loads(self._artifact.section("buckets"))

    def _all_records(self, name: str) -> Iterator[memoryview]:
        """Every record of a data section, in dense-id order."""
        idx = self._artifact.section(f"{name}.idx").cast("Q")
        bounds = idx.tolist()
        idx.release()
        dat = self._artifact.section(f"{name}.dat")
        for start, stop in zip(bounds, bounds[1:]):
            yield dat[start:stop]

    def to_graph(self) -> IntervalTPG:
        """A new :class:`IntervalTPG` holding every record, built in bulk.

        The records were validated when they were written, so the
        graph's tables are filled directly, without ``add_node`` /
        ``add_edge``'s checks.  Nothing decoded here points into the
        map: a write to the graph never reaches the artifact.
        """
        objects, nodes = self.objects, self.nodes
        labels = pickle.loads(self._artifact.section("labels"))
        graph = IntervalTPG(self.domain)
        graph._node_labels = {
            obj: label for obj, label in zip(objects, labels) if obj in nodes
        }
        graph._edge_labels = {
            obj: label for obj, label in zip(objects, labels) if obj not in nodes
        }
        graph._edge_endpoints = dict(
            zip(self.edge_tuple, pickle.loads(self._artifact.section("endpoints")))
        )
        graph._existence = {
            obj: _exist_family(record)
            for obj, record in zip(objects, self._all_records("exist"))
        }
        graph._properties = {
            obj: _props_families(record)
            for obj, record in zip(objects, self._all_records("props"))
        }
        out_edges = graph._out_edges = {node: set() for node in self.node_tuple}
        in_edges = graph._in_edges = {node: set() for node in self.node_tuple}
        for edge, (source, target) in graph._edge_endpoints.items():
            out_edges[source].add(edge)
            in_edges[target].add(edge)
        return graph

    def verify(self) -> None:
        """CRC-check every section of the artifact."""
        self._artifact.verify()

    def close(self) -> None:
        self._artifact.close()


# --------------------------------------------------------------------- #
# Attach
# --------------------------------------------------------------------- #
class Attachment:
    """One attached artifact: the graph built from it, its index, the
    handles and the header ``meta`` (a checkpoint's ``session`` record
    lives there)."""

    __slots__ = ("graph", "index", "core", "token", "path", "meta")

    def __init__(
        self, graph: IntervalTPG, index: GraphIndex, core: AttachedCore, path: str
    ) -> None:
        self.graph = graph
        self.index = index
        self.core = core
        self.token = core.token
        self.path = path
        self.meta = core.meta

    def verify(self) -> None:
        self.core.verify()

    def close(self) -> None:
        self.core.close()


def attach(path: str) -> Attachment:
    """Attach a compiled ``repro-index`` artifact.

    Decodes every record into an :class:`IntervalTPG` once
    (:meth:`AttachedCore.to_graph`); a damaged section raises
    :class:`~repro.errors.StoreCorruptError` here, with the map closed.
    The returned graph is ready for every engine: its index is
    pre-installed (:func:`graph_index_for` returns it instead of
    recompiling) with the artifact's object order and bucket section.
    """
    artifact = Artifact(path)
    kind = artifact.meta.get("kind")
    if kind != "index":
        artifact.close()
        raise StoreFormatError(
            f"{path}: artifact kind {kind!r} is not an attachable index "
            "(expected 'index'); recompile with 'repro compile'",
            path=path,
        )
    try:
        core = AttachedCore(artifact)
        graph = core.to_graph()
    except BaseException as exc:
        # The failed build's frames may still hold record views, and an
        # exported view makes the map's close raise BufferError.
        traceback.clear_frames(exc.__traceback__)
        artifact.close()
        raise
    index = GraphIndex(graph, objects=core.objects, buckets=core.buckets)
    install_index(graph, index)
    return Attachment(graph, index, core, path)
