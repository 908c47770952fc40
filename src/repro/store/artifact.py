"""Compiling graphs to persistent artifacts and attaching them in O(1).

The writer (:func:`compile_graph`) serializes a graph's compiled index
— the same tables :class:`~repro.perf.graph_index.CompiledCore` builds
in memory — into one self-contained artifact in the flat-section
container of :mod:`repro.store.format`.

The reader (:func:`attach`) is the point of the exercise: it maps the
artifact read-only and returns a ready graph + index **without decoding
the body**.  Attach cost is the header check plus one unpickle of the
object table; every other table is a :class:`_LazyMap` that decodes
records straight out of the mmap on first touch, so a worker that runs
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
  in-edge dense ids as u32 (edges get an empty record);
* ``props`` records are the pickled property mapping (empty record for
  objects without properties).

Dense ids (``objects`` positions) are the on-disk vocabulary; the
``objects`` section maps them back to user-facing identifiers.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import uuid
from typing import Any, Callable, Hashable, Iterator, Optional

from repro.errors import StoreCorruptError, StoreFormatError, UnknownObjectError
from repro.model.itpg import IntervalTPG
from repro.parallel.plan import StoreRef, bind_store
from repro.perf.graph_index import CompiledCore, GraphIndex, graph_index_for, install_index
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


def _props_record(families: dict) -> bytes:
    live = {name: family for name, family in families.items() if family}
    if not live:
        return b""
    return pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)


def _head_sections(core: CompiledCore, graph: object) -> dict[str, bytes]:
    """The graph-wide tables: object vocabulary, labels, endpoints, buckets."""
    dumps = lambda obj: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)  # noqa: E731
    node_positions = [
        core.object_id[obj] for obj in core.objects if obj in core.nodes
    ]
    edges_in_order = [obj for obj in core.objects if obj in core.edges]
    return {
        "objects": dumps(core.objects),
        "nodekind": struct.pack(f"<{len(node_positions)}I", *node_positions),
        "labels": dumps(tuple(core.labels[obj] for obj in core.objects)),
        "endpoints": dumps(
            tuple(
                (core.edge_source[edge], core.edge_target[edge])
                for edge in edges_in_order
            )
        ),
        "buckets": dumps(
            (
                dict(core.node_label_buckets),
                dict(core.edge_label_buckets),
                dict(core.prop_value_buckets),
            )
        ),
        "graph": dumps(graph),
    }


def _data_sections(core: CompiledCore) -> dict[str, bytes]:
    """Per-object records, one per dense position."""
    exist_records: list[bytes] = []
    adj_records: list[bytes] = []
    props_records: list[bytes] = []
    for obj in core.objects:
        exist_records.append(_exist_record(core.existence[obj]))
        if obj in core.nodes:
            adj_records.append(
                _adj_record(
                    [core.object_id[e] for e in core.out_adjacency[obj]],
                    [core.object_id[e] for e in core.in_adjacency[obj]],
                )
            )
        else:
            adj_records.append(b"")
        props_records.append(_props_record(core.properties[obj]))
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
def compile_graph(graph: IntervalTPG, path: str) -> dict:
    """Write ``graph``'s compiled index to the artifact ``path``.

    Returns a report with the artifact's ``path``, its per-compile
    ``token``, the ``objects`` and ``nodes`` counts and its size in
    ``bytes``.  The snapshot reflects every delta batch already applied
    to the graph — compiling is always safe after streaming maintenance.
    """
    index = graph_index_for(graph)
    core = index.snapshot_core()
    source = index.graph  # the IntervalTPG (post tpg conversion / materialization)
    token = uuid.uuid4().hex
    sections = _head_sections(core, source)
    sections.update(_data_sections(core))
    meta = {
        "token": token,
        "domain": [core.domain.start, core.domain.end],
        "num_objects": len(core.objects),
        "num_nodes": len(core.nodes),
        "kind": "index",
    }
    report = write_artifact(path, sections, meta)
    return {
        "path": path,
        "token": token,
        "objects": len(core.objects),
        "nodes": len(core.nodes),
        "bytes": report["bytes"],
    }


# --------------------------------------------------------------------- #
# Lazy maps
# --------------------------------------------------------------------- #
class _LazyMap(dict):
    """A dict whose misses decode from the artifact; writes are the overlay.

    Two loading styles:

    * ``load`` — per-key: a miss decodes exactly one record from the
      mmap and memoizes it (existence, adjacency, properties);
    * ``fill`` — whole-section: the first miss (or any enumeration)
      decodes the section once via ``setdefault`` so entries written
      earlier by delta maintenance are never clobbered (labels,
      endpoints, candidate buckets).

    Plain ``dict`` assignment *is* the mutable overlay
    :meth:`GraphIndex.apply_delta` writes to — stored keys always win
    over the artifact, so maintained entries shadow their stale on-disk
    records without the artifact ever being touched.
    """

    __slots__ = ("_load", "_fill", "_filled", "_fill_lock")

    def __init__(
        self,
        load: Optional[Callable[[Any], Any]] = None,
        fill: Optional[Callable[["_LazyMap"], None]] = None,
    ) -> None:
        super().__init__()
        self._load = load
        self._fill = fill
        self._filled = fill is None
        self._fill_lock = threading.Lock()

    def _ensure_filled(self) -> None:
        # Readers share the host lock: one fills, and only then publishes
        # ``_filled``, so no reader takes a half-filled map for complete.
        if not self._filled:
            with self._fill_lock:
                if not self._filled:
                    self._fill(self)
                    self._filled = True

    def __missing__(self, key: Any) -> Any:
        if self._load is None:
            # Look again once filled: this miss may have raced the fill.
            self._ensure_filled()
            if dict.__contains__(self, key):
                return dict.__getitem__(self, key)
            raise KeyError(key)
        # A racing reader may decode the same record: both memoize equal
        # values.
        value = self._load(key)
        dict.__setitem__(self, key, value)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: Any) -> bool:
        if dict.__contains__(self, key):
            return True
        try:
            self[key]
        except KeyError:
            return False
        return True

    # Enumeration is only meaningful for fill-style maps; per-key maps
    # enumerate their materialized overlay, which callers never rely on
    # (the object table is the authoritative enumeration).
    def __iter__(self) -> Iterator:
        self._ensure_filled()
        return dict.__iter__(self)

    def __len__(self) -> int:
        self._ensure_filled()
        return dict.__len__(self)

    def keys(self):
        self._ensure_filled()
        return dict.keys(self)

    def values(self):
        self._ensure_filled()
        return dict.values(self)

    def items(self):
        self._ensure_filled()
        return dict.items(self)


# --------------------------------------------------------------------- #
# Attached core
# --------------------------------------------------------------------- #
class AttachedCore:
    """:class:`CompiledCore`'s attribute surface, decoded lazily from an artifact.

    Eager work at attach: the header checks, one unpickle of the object
    table, and the dense-id/node-kind tables derived from it — a few
    C-speed passes over ``objects``.  Everything per-object stays on
    disk until first touched.  Data-section views are memoized, so
    record access after the first touch is a bounds-checked slice of
    the mmap.
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
        self._node_tuple: tuple[ObjectId, ...] = tuple(
            self.objects[position] for position in node_positions
        )
        self.nodes: frozenset = frozenset(self._node_tuple)
        self._edge_tuple: tuple[ObjectId, ...] = tuple(
            obj for obj in self.objects if obj not in self.nodes
        )
        self.edges: frozenset = frozenset(self._edge_tuple)

        self._artifact = artifact
        self._sections: dict[str, memoryview] = {}
        self._endpoint_cache: Optional[tuple] = None
        self._bucket_cache: Optional[tuple] = None

        self.labels = _LazyMap(fill=self._fill_labels)
        self.existence = _LazyMap(load=self._load_existence)
        self.out_adjacency = _LazyMap(load=self._load_out_adjacency)
        self.in_adjacency = _LazyMap(load=self._load_in_adjacency)
        self.edge_source = _LazyMap(fill=self._fill_edge_source)
        self.edge_target = _LazyMap(fill=self._fill_edge_target)
        self.node_label_buckets = _LazyMap(fill=self._fill_node_buckets)
        self.edge_label_buckets = _LazyMap(fill=self._fill_edge_buckets)
        self.prop_value_buckets = _LazyMap(fill=self._fill_prop_buckets)
        self.properties = _LazyMap(load=self._load_properties)

    # -- record access --------------------------------------------------- #
    def _section(self, name: str) -> memoryview:
        view = self._sections.get(name)
        if view is None:
            view = self._sections[name] = self._artifact.section(name)
        return view

    def _record(self, name: str, key: ObjectId) -> memoryview:
        """``key``'s record of a data section; its dense id is the index."""
        position = self.object_id[key]
        idx = self._section(f"{name}.idx").cast("Q")
        start, stop = idx[position], idx[position + 1]
        # If the .dat section then fails its CRC, the traceback keeps
        # this frame alive: a still-exported view would make close() fail.
        idx.release()
        if start == stop:
            return memoryview(b"")
        return self._section(f"{name}.dat")[start:stop]

    # -- per-key loaders ------------------------------------------------ #
    def _load_existence(self, key: ObjectId) -> IntervalSet:
        record = self._record("exist", key)
        return IntervalSet._from_coalesced(
            Interval(start, end) for start, end in _PAIR.iter_unpack(record)
        )

    def _adjacency(self, key: ObjectId) -> tuple[tuple, tuple]:
        if key not in self.nodes:
            raise KeyError(key)
        record = self._record("adj", key)
        (out_count,) = _U32.unpack_from(record, 0)
        ids = record[4:].cast("I")
        out_ids = tuple(self.objects[i] for i in ids[:out_count])
        in_ids = tuple(self.objects[i] for i in ids[out_count:])
        return out_ids, in_ids

    def _load_out_adjacency(self, key: ObjectId) -> tuple:
        out_ids, in_ids = self._adjacency(key)
        dict.__setitem__(self.in_adjacency, key, in_ids)
        return out_ids

    def _load_in_adjacency(self, key: ObjectId) -> tuple:
        out_ids, in_ids = self._adjacency(key)
        dict.__setitem__(self.out_adjacency, key, out_ids)
        return in_ids

    def _load_properties(self, key: ObjectId) -> dict:
        record = self._record("props", key)
        if len(record) == 0:
            return {}
        return pickle.loads(record)

    # -- whole-section fills -------------------------------------------- #
    def _fill_labels(self, target: _LazyMap) -> None:
        labels = pickle.loads(self._artifact.section("labels"))
        for obj, label in zip(self.objects, labels):
            target.setdefault(obj, label)

    def _endpoints(self) -> tuple:
        if self._endpoint_cache is None:
            self._endpoint_cache = pickle.loads(self._artifact.section("endpoints"))
        return self._endpoint_cache

    def _fill_edge_source(self, target: _LazyMap) -> None:
        for edge, (source, _tgt) in zip(self._edge_tuple, self._endpoints()):
            target.setdefault(edge, source)

    def _fill_edge_target(self, target: _LazyMap) -> None:
        for edge, (_src, tgt) in zip(self._edge_tuple, self._endpoints()):
            target.setdefault(edge, tgt)

    def _buckets(self) -> tuple:
        if self._bucket_cache is None:
            self._bucket_cache = pickle.loads(self._artifact.section("buckets"))
        return self._bucket_cache

    def _fill_node_buckets(self, target: _LazyMap) -> None:
        for label, bucket in self._buckets()[0].items():
            target.setdefault(label, bucket)

    def _fill_edge_buckets(self, target: _LazyMap) -> None:
        for label, bucket in self._buckets()[1].items():
            target.setdefault(label, bucket)

    def _fill_prop_buckets(self, target: _LazyMap) -> None:
        for key, bucket in self._buckets()[2].items():
            target.setdefault(key, bucket)

    # -- bulk decode ----------------------------------------------------- #
    def columnar_sections(self) -> tuple:
        """Raw ``(exist.idx, exist.dat, adj.idx, adj.dat)`` memoryviews.

        The columnar kernel (:mod:`repro.perf.columnar`) decodes these
        four struct-packed sections straight into flat NumPy arrays —
        ``exist.idx`` is u64 byte offsets (16 bytes per ``<qq`` interval
        pair), ``adj.idx``/``adj.dat`` the u32 ``out_count + ids``
        records — skipping the per-record lazy-map walk entirely.
        Consumers must **copy** out of the views before the attachment
        closes (an exported buffer makes ``mmap.close`` raise).
        """
        return (
            self._section("exist.idx"),
            self._section("exist.dat"),
            self._section("adj.idx"),
            self._section("adj.dat"),
        )

    # -- housekeeping --------------------------------------------------- #
    def node_enumeration(self) -> tuple[ObjectId, ...]:
        return self._node_tuple

    def edge_enumeration(self) -> tuple[ObjectId, ...]:
        return self._edge_tuple

    def graph_bytes(self) -> memoryview:
        return self._artifact.section("graph")

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
def _identity(graph: IntervalTPG) -> IntervalTPG:
    return graph


class AttachedGraph:
    """An :class:`IntervalTPG` look-alike backed by an attached core.

    Read accessors answer from the core's lazy maps, so a query that
    never leaves its neighbourhood never materializes the full graph.
    The first *mutation* (or any other attribute the proxy does not
    implement) unpickles the embedded graph section once and the proxy
    becomes a thin delegate to that real graph — reads included, so
    post-delta state is always coherent.

    Underscore attributes never materialize: the perf and parallel
    layers probe ``_repro_``-prefixed cache slots with ``getattr``
    defaults, and those probes must stay free.
    """

    def __init__(self, core: AttachedCore) -> None:
        self._core = core
        self._real: Optional[IntervalTPG] = None
        self._materialize_lock = threading.Lock()

    # -- materialization ------------------------------------------------ #
    def _materialize(self) -> IntervalTPG:
        # Locked: two readers must not each unpickle a graph, or one of
        # them would keep reading a copy later writes never reach.
        if self._real is None:
            with self._materialize_lock:
                if self._real is None:
                    self._real = pickle.loads(self._core.graph_bytes())
        return self._real

    @property
    def materialized(self) -> bool:
        return self._real is not None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._materialize(), name)

    def __reduce__(self):
        # Pickling the proxy (the parallel backend's payload fallback)
        # yields the real graph: workers must receive something whose
        # caches IntervalTPG.__getstate__ knows how to strip.
        return (_identity, (self._materialize(),))

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
        return iter(self._core.node_enumeration())

    def edges(self) -> Iterator[ObjectId]:
        if self._real is not None:
            return self._real.edges()
        return iter(self._core.edge_enumeration())

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
        try:
            return self._core.labels[object_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc

    def endpoints(self, edge_id: ObjectId) -> tuple[ObjectId, ObjectId]:
        if self._real is not None:
            return self._real.endpoints(edge_id)
        try:
            return (
                self._core.edge_source[edge_id],
                self._core.edge_target[edge_id],
            )
        except KeyError as exc:
            raise UnknownObjectError(f"unknown edge {edge_id!r}") from exc

    def source(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[0]

    def target(self, edge_id: ObjectId) -> ObjectId:
        return self.endpoints(edge_id)[1]

    def existence(self, object_id: ObjectId) -> IntervalSet:
        if self._real is not None:
            return self._real.existence(object_id)
        try:
            return self._core.existence[object_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc

    def exists(self, object_id: ObjectId, t: int) -> bool:
        return self.existence(object_id).contains_point(t)

    def properties(self, object_id: ObjectId) -> dict:
        if self._real is not None:
            return self._real.properties(object_id)
        try:
            return dict(self._core.properties[object_id])
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc

    def property_family(self, object_id: ObjectId, name: str) -> ValuedIntervalSet:
        if self._real is not None:
            return self._real.property_family(object_id, name)
        try:
            families = self._core.properties[object_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc
        return families.get(name, ValuedIntervalSet.empty())

    def property_value(self, object_id: ObjectId, name: str, t: int):
        return self.property_family(object_id, name).value_at(t)

    def property_names(self, object_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.property_names(object_id)
        try:
            families = self._core.properties[object_id]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_id!r}") from exc
        return frozenset(name for name, family in families.items() if family)

    def out_edges(self, node_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.out_edges(node_id)
        try:
            return frozenset(self._core.out_adjacency[node_id])
        except KeyError as exc:
            raise UnknownObjectError(f"unknown node {node_id!r}") from exc

    def in_edges(self, node_id: ObjectId) -> frozenset:
        if self._real is not None:
            return self._real.in_edges(node_id)
        try:
            return frozenset(self._core.in_adjacency[node_id])
        except KeyError as exc:
            raise UnknownObjectError(f"unknown node {node_id!r}") from exc

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
    """One attached artifact: the proxy graph, its index, and the handles."""

    __slots__ = ("graph", "index", "core", "token", "path")

    def __init__(
        self, graph: AttachedGraph, index: GraphIndex, core: AttachedCore, path: str
    ) -> None:
        self.graph = graph
        self.index = index
        self.core = core
        self.token = core.token
        self.path = path

    def verify(self) -> None:
        self.core.verify()

    def close(self) -> None:
        self.core.close()


def attach(path: str) -> Attachment:
    """Attach a compiled ``repro-index`` artifact.

    O(1) in the graph size up to the object-table unpickle: no data
    section is decoded here.  The returned graph is ready for every
    engine — its compiled index is pre-installed
    (:func:`graph_index_for` returns it instead of recompiling) and its
    parallel identity is the artifact's persistent token, so worker
    processes attach the same file by reference instead of receiving a
    pickled copy.
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
    index = GraphIndex(graph, core=core)
    install_index(graph, index)
    bind_store(graph, StoreRef(path=os.path.abspath(path), token=core.token))
    return Attachment(graph, index, core, path)
