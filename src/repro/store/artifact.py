"""Compiling graphs to persistent artifacts and attaching them in O(1).

The writer (:func:`compile_graph`) serializes a graph — its object
table, labels, endpoints, existence, adjacency and property families,
read through the graph's own accessors, plus the index's candidate
buckets — into one self-contained artifact in the flat-section
container of :mod:`repro.store.format`.

The reader (:func:`attach`) is the point of the exercise: it maps the
artifact read-only and returns a ready graph + index **without decoding
the body**.  Attach cost is the header check plus one unpickle of the
object table; every per-object record is decoded straight out of the
mmap on first touch (:class:`AttachedCore`), so a process that runs
one query over one neighbourhood faults in only those pages — and every
process attaching the same artifact shares them through the OS page
cache instead of each holding a private unpickled copy.

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
import threading
import uuid
from typing import Hashable, Iterator, Optional

from repro.errors import StoreCorruptError, StoreFormatError, UnknownObjectError
from repro.model.itpg import IntervalTPG
from repro.perf.graph_index import GraphIndex, graph_index_for, install_index
from repro.store.format import Artifact, write_artifact
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet
from repro.temporal.valued import ValuedIntervalSet

ObjectId = Hashable

_U32 = struct.Struct("<I")
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
    source = index.graph  # the IntervalTPG (post tpg conversion / materialization)
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
    """The read side of one attached artifact, decoded on first touch.

    Eager work at attach: the header checks, one unpickle of the object
    table, and the dense-id/node-kind tables derived from it — a few
    C-speed passes over ``objects``.  Everything per-object stays on
    disk until first touched, then is memoized (readers share the host
    lock: a racing reader may decode the same record, and both memoize
    equal values).  Every read of an unknown object raises
    :class:`~repro.errors.UnknownObjectError`.
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
        self.object_id: dict[ObjectId, int] = {
            obj: position for position, obj in enumerate(self.objects)
        }
        node_positions = artifact.section("nodekind").cast("I")
        self.node_tuple: tuple[ObjectId, ...] = tuple(
            self.objects[position] for position in node_positions
        )
        self.nodes: frozenset = frozenset(self.node_tuple)
        self.edge_tuple: tuple[ObjectId, ...] = tuple(
            obj for obj in self.objects if obj not in self.nodes
        )
        self.edges: frozenset = frozenset(self.edge_tuple)

        self._artifact = artifact
        self._sections: dict[str, memoryview] = {}
        self._labels: Optional[dict] = None
        self._endpoints: Optional[dict] = None
        self._existence: dict[ObjectId, IntervalSet] = {}
        self._adjacency: dict[ObjectId, tuple[tuple, tuple]] = {}
        self._families: dict[ObjectId, dict] = {}

    # -- record access --------------------------------------------------- #
    def _section(self, name: str) -> memoryview:
        view = self._sections.get(name)
        if view is None:
            view = self._sections[name] = self._artifact.section(name)
        return view

    def _record(self, name: str, key: ObjectId) -> memoryview:
        """``key``'s record of a data section; its dense id is the index."""
        position = self.object_id.get(key)
        if position is None:
            raise UnknownObjectError(f"unknown object {key!r}")
        idx = self._section(f"{name}.idx").cast("Q")
        start, stop = idx[position], idx[position + 1]
        # If the .dat section then fails its CRC, the traceback keeps
        # this frame alive: a still-exported view would make close() fail.
        idx.release()
        if start == stop:
            return memoryview(b"")
        return self._section(f"{name}.dat")[start:stop]

    # -- per-object reads ------------------------------------------------ #
    def label(self, key: ObjectId) -> str:
        if self._labels is None:
            labels = pickle.loads(self._artifact.section("labels"))
            self._labels = dict(zip(self.objects, labels))
        try:
            return self._labels[key]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {key!r}") from exc

    def endpoints(self, key: ObjectId) -> tuple[ObjectId, ObjectId]:
        if self._endpoints is None:
            endpoints = pickle.loads(self._artifact.section("endpoints"))
            self._endpoints = dict(zip(self.edge_tuple, endpoints))
        try:
            return self._endpoints[key]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown edge {key!r}") from exc

    def existence(self, key: ObjectId) -> IntervalSet:
        found = self._existence.get(key)
        if found is None:
            found = self._existence[key] = _exist_family(self._record("exist", key))
        return found

    def adjacency(self, key: ObjectId) -> tuple[tuple, tuple]:
        """A node's ``(out-edges, in-edges)``."""
        found = self._adjacency.get(key)
        if found is None:
            if key not in self.nodes:
                raise UnknownObjectError(f"unknown node {key!r}")
            record = self._record("adj", key)
            (out_count,) = _U32.unpack_from(record, 0)
            ids = record[4:].cast("I")
            found = self._adjacency[key] = (
                tuple(self.objects[i] for i in ids[:out_count]),
                tuple(self.objects[i] for i in ids[out_count:]),
            )
        return found

    def families(self, key: ObjectId) -> dict:
        """The object's property families (treat as read-only)."""
        found = self._families.get(key)
        if found is None:
            found = self._families[key] = _props_families(self._record("props", key))
        return found

    def buckets(self) -> tuple[dict, dict, dict]:
        """The compiled candidate buckets (the index loads them once)."""
        return pickle.loads(self._artifact.section("buckets"))

    # -- bulk decode ----------------------------------------------------- #
    def columnar_sections(self) -> tuple:
        """Raw ``(exist.idx, exist.dat, adj.idx, adj.dat)`` memoryviews.

        The columnar kernel (:mod:`repro.perf.columnar`) decodes these
        four struct-packed sections straight into flat NumPy arrays —
        ``exist.idx`` is u64 byte offsets (16 bytes per ``<qq`` interval
        pair), ``adj.idx``/``adj.dat`` the u32 ``out_count + ids``
        records — skipping the per-record decode entirely.
        Consumers must **copy** out of the views before the attachment
        closes (an exported buffer makes ``mmap.close`` raise).
        """
        return (
            self._section("exist.idx"),
            self._section("exist.dat"),
            self._section("adj.idx"),
            self._section("adj.dat"),
        )

    def _all_records(self, name: str) -> Iterator[memoryview]:
        """Every record of a data section, in dense-id order, unmemoized."""
        idx = self._section(f"{name}.idx").cast("Q")
        bounds = idx.tolist()
        idx.release()
        dat = self._section(f"{name}.dat")
        for start, stop in zip(bounds, bounds[1:]):
            yield dat[start:stop]

    def to_graph(self) -> IntervalTPG:
        """A new :class:`IntervalTPG` holding every record, built in bulk.

        The records were validated when they were written, so the
        graph's tables are filled directly, without ``add_node`` /
        ``add_edge``'s checks, and nothing decoded here is memoized.
        Every per-object container (property dict, adjacency set) is
        new: a write to the graph never reaches this core's memo.
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

    # -- housekeeping --------------------------------------------------- #
    def verify(self) -> None:
        """CRC-check every section of the artifact."""
        self._artifact.verify()

    def close(self) -> None:
        # Memoized views must be released before the mmap closes (an
        # exported buffer makes mmap.close raise BufferError).
        self._sections.clear()
        self._artifact.close()


# --------------------------------------------------------------------- #
# The attached graph proxy
# --------------------------------------------------------------------- #
class AttachedGraph:
    """An :class:`IntervalTPG` look-alike backed by an attached core.

    Read accessors answer from the artifact's records, so a query that
    never leaves its neighbourhood never materializes the full graph.
    The first *mutation* (or any other attribute the proxy does not
    implement) builds the real graph once from the artifact's records
    (:meth:`AttachedCore.to_graph`) and the proxy becomes a thin
    delegate to it — reads included, so post-delta state is always
    coherent.

    Underscore attributes never materialize: the perf layer probes the
    ``_repro_``-prefixed index slot with a ``getattr`` default, and that
    probe must stay free.
    """

    def __init__(self, core: AttachedCore) -> None:
        self._core = core
        self._real: Optional[IntervalTPG] = None
        self._materialize_lock = threading.Lock()

    # -- materialization ------------------------------------------------ #
    def _materialize(self) -> IntervalTPG:
        # Locked: two readers must not each build a graph, or one of
        # them would keep reading a copy later writes never reach.
        if self._real is None:
            with self._materialize_lock:
                if self._real is None:
                    self._real = self._core.to_graph()
        return self._real

    @property
    def materialized(self) -> bool:
        return self._real is not None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._materialize(), name)

    def __repr__(self) -> str:
        state = "materialized" if self._real is not None else "attached"
        return (
            f"AttachedGraph({state}, objects={len(self._core.objects)}, "
            f"domain={self._core.domain})"
        )

    # -- read surface ---------------------------------------------------- #
    @property
    def domain(self) -> Interval:
        if self._real is not None:
            return self._real.domain
        return self._core.domain

    def time_points(self) -> range:
        return self.domain.points()

    def nodes(self) -> Iterator[ObjectId]:
        if self._real is not None:
            return self._real.nodes()
        return iter(self._core.node_tuple)

    def edges(self) -> Iterator[ObjectId]:
        if self._real is not None:
            return self._real.edges()
        return iter(self._core.edge_tuple)

    def objects(self) -> Iterator[ObjectId]:
        if self._real is not None:
            return self._real.objects()
        return iter(self._core.objects)

    def is_node(self, object_id: ObjectId) -> bool:
        if self._real is not None:
            return self._real.is_node(object_id)
        return object_id in self._core.nodes

    def is_edge(self, object_id: ObjectId) -> bool:
        if self._real is not None:
            return self._real.is_edge(object_id)
        return object_id in self._core.edges

    def has_object(self, object_id: ObjectId) -> bool:
        if self._real is not None:
            return self._real.has_object(object_id)
        return object_id in self._core.object_id

    def label(self, object_id: ObjectId) -> str:
        if self._real is not None:
            return self._real.label(object_id)
        return self._core.label(object_id)

    def endpoints(self, edge_id: ObjectId) -> tuple[ObjectId, ObjectId]:
        if self._real is not None:
            return self._real.endpoints(edge_id)
        return self._core.endpoints(edge_id)

    def source(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[0]

    def target(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[1]

    def existence(self, object_id: ObjectId) -> IntervalSet:
        if self._real is not None:
            return self._real.existence(object_id)
        return self._core.existence(object_id)

    def exists(self, object_id: ObjectId, t: int) -> bool:
        return self.existence(object_id).contains_point(t)

    def properties(self, object_id: ObjectId) -> dict:
        if self._real is not None:
            return self._real.properties(object_id)
        return dict(self._core.families(object_id))

    def property_family(self, object_id: ObjectId, name: str) -> ValuedIntervalSet:
        if self._real is not None:
            return self._real.property_family(object_id, name)
        return self._core.families(object_id).get(name, ValuedIntervalSet.empty())

    def property_value(self, object_id: ObjectId, name: str, t: int):
        return self.property_family(object_id, name).value_at(t)

    def property_names(self, object_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.property_names(object_id)
        families = self._core.families(object_id)
        return frozenset(name for name, family in families.items() if family)

    def out_edges(self, node_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.out_edges(node_id)
        return frozenset(self._core.adjacency(node_id)[0])

    def in_edges(self, node_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.in_edges(node_id)
        return frozenset(self._core.adjacency(node_id)[1])

    def num_nodes(self) -> int:
        if self._real is not None:
            return self._real.num_nodes()
        return len(self._core.nodes)

    def num_edges(self) -> int:
        if self._real is not None:
            return self._real.num_edges()
        return len(self._core.edges)

    # -- write surface --------------------------------------------------- #
    def install_families(self, existence, properties) -> None:
        """:meth:`IntervalTPG.install_families` on the materialized graph
        (the core's families are read-only)."""
        self._materialize().install_families(existence, properties)


# --------------------------------------------------------------------- #
# Attach
# --------------------------------------------------------------------- #
class Attachment:
    """One attached artifact: the proxy graph, its index, the handles and
    the header ``meta`` (a checkpoint's ``session`` record lives there)."""

    __slots__ = ("graph", "index", "core", "token", "path", "meta")

    def __init__(
        self, graph: AttachedGraph, index: GraphIndex, core: AttachedCore, path: str
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

    O(1) in the graph size up to the object-table unpickle: no data
    section is decoded here.  The returned graph is ready for every
    engine — its index is pre-installed (:func:`graph_index_for`
    returns it instead of recompiling) with the artifact's object order,
    bucket section and columnar sections.
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
    except BaseException:
        artifact.close()
        raise
    graph = AttachedGraph(core)
    index = GraphIndex(
        graph,
        objects=core.objects,
        buckets=core.buckets,
        sections=core.columnar_sections,
    )
    install_index(graph, index)
    return Attachment(graph, index, core, path)
