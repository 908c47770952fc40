"""Persistent compiled-graph store: artifacts, attach, CLI, server.

Covers the store subsystem end to end:

* compile → attach round trips reproduce the full index surface
  (objects, labels, endpoints, existence, properties, adjacency,
  candidate buckets);
* the on-disk format rejects damage *structurally*: bad magic and
  foreign files raise :class:`~repro.errors.StoreFormatError`, version
  bumps raise :class:`~repro.errors.StoreVersionError` carrying
  ``found``/``expected``, truncation and flipped bytes raise
  :class:`~repro.errors.StoreCorruptError` naming the section — never a
  wrong answer or an unstructured crash, which a byte-boundary fuzz
  property checks over random overwrites and truncations;
* writes are atomic (no temp debris, no partially-written artifact ever
  visible under the final name);
* attach builds the graph from the artifact's records, equal to the
  graph it was compiled from; a damaged section fails the attach with
  the map closed, a write never reaches the artifact, and an older
  artifact's pickled ``graph`` section is never read;
* deltas applied after attach keep answers correct, and a store
  compiled again after deltas — from an in-memory graph or from an
  attached one — holds every write;
* the CLI ``compile`` / ``query --store`` surface and the server's
  ``from_files(store=...)`` restart path produce the same answers as
  the in-memory route.
"""

from __future__ import annotations

import json
import os
import pickle
import struct

import pytest

from repro.cli import main as cli_main
from repro.datagen.random_graphs import random_itpg
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import (
    StoreCorruptError,
    StoreError,
    StoreFormatError,
    StoreVersionError,
)
from repro.model import contact_tracing_example
from repro.model.itpg import IntervalTPG
from repro.perf import graph_index_for
from repro.server.state import GraphHost
from repro.store import Artifact, VERSION, attach, compile_graph, write_artifact
from repro.store.format import MAGIC
from repro.streaming.delta import DeltaBatch, apply_delta
from repro.streaming.engine import StreamingEngine

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None


def _compile(tmp_path, graph, name="graph.rix"):
    path = str(tmp_path / name)
    report = compile_graph(graph, path)
    return path, report


# The 52-byte fixed header, field by field: flipped bytes and the error.
_FIXED_FIELDS = {
    "magic": (range(0, 8), StoreFormatError),
    "version": (range(8, 12), StoreVersionError),
    "header_length": (range(12, 20), StoreCorruptError),
    "digest": (range(20, 52), StoreCorruptError),
}


def _flip_section_byte(path: str, section: str) -> None:
    """Flip one byte in the middle of ``section`` of the artifact at ``path``."""
    probe = Artifact(path)
    offset, length, _crc = probe._table[section]
    body = probe._body_start
    probe.close()
    raw = bytearray(open(path, "rb").read())
    raw[body + offset + length // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))


class TestRoundTrip:
    """Attach reproduces the full index surface of the compiled graph."""

    def test_graph_surface_matches(self, tmp_path):
        graph = random_itpg(11, num_nodes=9, num_edges=14)
        path, report = _compile(tmp_path, graph)
        attachment = attach(path)
        try:
            got = attachment.graph
            assert list(got.nodes()) == list(graph.nodes())
            assert list(got.edges()) == list(graph.edges())
            assert list(got.objects()) == list(graph.objects())
            assert (got.domain.start, got.domain.end) == (
                graph.domain.start,
                graph.domain.end,
            )
            for obj in graph.objects():
                assert got.label(obj) == graph.label(obj)
                assert got.existence(obj).intervals == graph.existence(obj).intervals
                assert got.property_names(obj) == graph.property_names(obj)
                for name in graph.property_names(obj):
                    assert got.property_family(obj, name) == graph.property_family(
                        obj, name
                    )
            for edge in graph.edges():
                assert got.source(edge) == graph.source(edge)
                assert got.target(edge) == graph.target(edge)
            for node in graph.nodes():
                assert sorted(got.out_edges(node)) == sorted(graph.out_edges(node))
                assert sorted(got.in_edges(node)) == sorted(graph.in_edges(node))
        finally:
            attachment.close()
        assert report["objects"] == len(list(graph.objects()))

    def test_engine_answers_match(self, tmp_path):
        graph = contact_tracing_example()
        path, _ = _compile(tmp_path, graph)
        attachment = attach(path)
        try:
            for name in ("Q1", "Q2", "Q5"):
                text = PAPER_QUERIES[name].text
                expected = DataflowEngine(graph).match(text).as_set()
                assert DataflowEngine(attachment.graph).match(text).as_set() == expected
        finally:
            attachment.close()

    def test_token_is_per_compile_and_stable_per_artifact(self, tmp_path):
        graph = contact_tracing_example()
        path_a, report_a = _compile(tmp_path, graph, name="a.rix")
        path_b, report_b = _compile(tmp_path, graph, name="b.rix")
        assert report_a["token"] != report_b["token"]
        first, second = attach(path_a), attach(path_a)
        try:
            assert first.token == second.token == report_a["token"]
        finally:
            first.close()
            second.close()

    def test_report_shape(self, tmp_path):
        """One report shape; ``bytes`` is the artifact's size on disk."""
        path, report = _compile(tmp_path, contact_tracing_example())
        assert set(report) == {"path", "token", "objects", "nodes", "bytes"}
        assert report["path"] == path
        assert report["bytes"] == os.path.getsize(path)

    def test_verify_passes_on_intact_artifact(self, tmp_path):
        path, _ = _compile(tmp_path, contact_tracing_example())
        attachment = attach(path)
        try:
            attachment.verify()
        finally:
            attachment.close()


#: The seven tables an IntervalTPG holds besides its domain.
_GRAPH_TABLES = (
    "_node_labels",
    "_edge_labels",
    "_edge_endpoints",
    "_existence",
    "_properties",
    "_out_edges",
    "_in_edges",
)


def _assert_same_graph(got: IntervalTPG, expected: IntervalTPG) -> None:
    """Domain, labels, endpoints, existence, properties and both
    adjacency maps are equal, table for table."""
    assert type(got) is IntervalTPG
    assert got.domain == expected.domain
    for table in _GRAPH_TABLES:
        assert getattr(got, table) == getattr(expected, table), table


def _s1_graph() -> IntervalTPG:
    from repro.datagen import generate_contact_tracing_graph
    from repro.datagen.scale import scale_factor

    return generate_contact_tracing_graph(scale_factor("S1").config())


def _touching_delta(graph) -> tuple:
    """A delta that changes the first node's properties and adjacency."""
    node = next(iter(graph.nodes()))
    first = graph.existence(node).intervals[0]
    span = (first.start, first.end)
    batch = (
        DeltaBatch()
        .set_property(node, "note", "checked", *span)
        .add_node("zara", "Person", [span])
        .add_edge("e_zara", "meets", node, "zara", [span])
    )
    return node, batch


def _write(graph, index, batch) -> None:
    """A delta as a session applies it: graph, then the index."""
    index.apply_delta(apply_delta(graph, batch))


_SOURCES = {"figure1": contact_tracing_example, "S1": _s1_graph}


class TestMaterializedGraph:
    """Attach builds the graph from the artifact's records: the attached
    graph is the graph the artifact was compiled from."""

    @pytest.fixture(scope="class", params=sorted(_SOURCES))
    def materialized(self, request, tmp_path_factory):
        source = _SOURCES[request.param]()
        path = str(tmp_path_factory.mktemp("materialized") / "graph.rix")
        compile_graph(source, path)
        attachment = attach(path)
        yield source, attachment
        attachment.close()

    def test_equals_the_source_graph(self, materialized):
        source, attachment = materialized
        _assert_same_graph(attachment.graph, source)

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_answers_like_the_source_graph(self, materialized, name):
        source, attachment = materialized
        text = PAPER_QUERIES[name].text
        expected = DataflowEngine(source).match(text).as_set()
        assert DataflowEngine(attachment.graph).match(text).as_set() == expected

    def test_index_keeps_the_artifacts_order_and_buckets(self, materialized):
        """The installed index is the compiled one: same dense-id order,
        same candidate buckets, and no engine builds a second index."""
        source, attachment = materialized
        compiled = graph_index_for(source)
        assert graph_index_for(attachment.graph) is attachment.index
        assert attachment.index.objects == compiled.objects
        assert attachment.index.buckets() == tuple(
            dict(buckets) for buckets in compiled.buckets()
        )

    @pytest.mark.parametrize("source", sorted(_SOURCES))
    def test_recompiling_the_attached_graph_is_byte_identical(self, tmp_path, source):
        """Every section of an artifact compiled from the attached graph
        holds the same bytes as the artifact it was attached from."""
        first, _ = _compile(tmp_path, _SOURCES[source](), "first.rix")
        attachment = attach(first)
        try:
            second, _ = _compile(tmp_path, attachment.graph, "second.rix")
        finally:
            attachment.close()
        original, again = Artifact(first), Artifact(second)
        try:
            assert sorted(again._table) == sorted(original._table)
            for name in original._table:
                assert bytes(again.section(name)) == bytes(original.section(name)), name
        finally:
            original.close()
            again.close()

    @pytest.mark.parametrize("source", sorted(_SOURCES))
    def test_a_write_never_reaches_the_artifact(self, tmp_path, source):
        memory = _SOURCES[source]()
        path, _ = _compile(tmp_path, memory)
        with open(path, "rb") as handle:
            intact = handle.read()
        attachment = attach(path)
        try:
            node, batch = _touching_delta(memory)
            _write(attachment.graph, attachment.index, batch)
            _write(memory, graph_index_for(memory), batch)
            _assert_same_graph(attachment.graph, memory)
            assert "note" in attachment.graph.property_names(node)
        finally:
            attachment.close()
        with open(path, "rb") as handle:
            assert handle.read() == intact
        fresh = attach(path)
        try:
            _assert_same_graph(fresh.graph, _SOURCES[source]())
        finally:
            fresh.close()


class TestOldArtifacts:
    """An artifact written before the graph was stored once still
    carries a pickled ``graph`` section: it attaches, and the reader
    never opens that section."""

    @pytest.fixture()
    def old_artifact(self, tmp_path, monkeypatch):
        from repro.store.artifact import _data_sections, _head_sections

        graph = contact_tracing_example()
        sections = {"graph": pickle.dumps(contact_tracing_example())}
        index = graph_index_for(graph)
        sections.update(_head_sections(index, graph))
        sections.update(_data_sections(index, graph))
        path = str(tmp_path / "old.rix")
        write_artifact(
            path,
            sections,
            {
                "token": "old",
                "domain": [graph.domain.start, graph.domain.end],
                "num_objects": len(index.objects),
                "num_nodes": len(index.nodes()),
                "kind": "index",
            },
        )
        opened = []
        real_section = Artifact.section

        def recording_section(self, name):
            opened.append(name)
            return real_section(self, name)

        monkeypatch.setattr(Artifact, "section", recording_section)
        attachment = attach(path)
        yield attachment, opened
        attachment.close()

    def test_attaches_and_answers_every_paper_query(self, old_artifact):
        attachment, opened = old_artifact
        graph = contact_tracing_example()
        engine = DataflowEngine(attachment.graph)
        for name, query in PAPER_QUERIES.items():
            expected = DataflowEngine(graph).match(query.text).as_set()
            assert engine.match(query.text).as_set() == expected, name
        assert "graph" not in opened

    def test_first_write_rebuilds_from_the_records(self, old_artifact):
        attachment, opened = old_artifact
        memory = contact_tracing_example()
        _node, batch = _touching_delta(memory)
        _write(attachment.graph, attachment.index, batch)
        _write(memory, graph_index_for(memory), batch)
        _assert_same_graph(attachment.graph, memory)
        assert "graph" not in opened


class TestAtomicWrite:
    def test_no_temp_debris(self, tmp_path):
        _compile(tmp_path, contact_tracing_example())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.rix"]


class TestRejection:
    """Damage is rejected with structured errors, never a wrong answer."""

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not-an-artifact.rix"
        path.write_bytes(b"definitely not a repro-index artifact, long enough")
        with pytest.raises(StoreFormatError) as info:
            attach(str(path))
        assert info.value.path == str(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "stub.rix"
        path.write_bytes(MAGIC)
        with pytest.raises(StoreFormatError):
            attach(str(path))

    def test_version_bump(self, tmp_path):
        path, _ = _compile(tmp_path, contact_tracing_example())
        raw = bytearray(open(path, "rb").read())
        # The u32 format version sits right after the 8-byte magic.
        struct.pack_into("<I", raw, len(MAGIC), VERSION + 1)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(StoreVersionError) as info:
            attach(path)
        assert info.value.found == VERSION + 1
        assert info.value.expected == VERSION
        assert "recompile" in str(info.value)

    def test_truncation_caught_at_attach(self, tmp_path):
        path, _ = _compile(tmp_path, contact_tracing_example())
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - size // 4)
        with pytest.raises(StoreCorruptError):
            attach(path)

    def test_header_tamper_fails_checksum(self, tmp_path):
        path, _ = _compile(tmp_path, contact_tracing_example())
        raw = bytearray(open(path, "rb").read())
        # Flip one byte inside the header JSON (fixed header is
        # magic + u32 + u64 + sha256 = 52 bytes).
        raw[60] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(StoreCorruptError) as info:
            attach(path)
        assert info.value.path == path

    def test_section_bitflip_fails_crc(self, tmp_path):
        path, _ = _compile(tmp_path, contact_tracing_example())
        _flip_section_byte(path, "exist.dat")
        with pytest.raises(StoreCorruptError) as info:
            attach(path)
        assert info.value.section == "exist.dat"

    def test_adjacency_bitflip_fails_verify(self, tmp_path):
        """Attach builds adjacency from the endpoints table; the ``adj``
        records are checked by the full scan."""
        path, _ = _compile(tmp_path, contact_tracing_example())
        _flip_section_byte(path, "adj.dat")
        attachment = attach(path)
        try:
            with pytest.raises(StoreCorruptError) as info:
                attachment.verify()
            assert info.value.section == "adj.dat"
        finally:
            attachment.close()

    @pytest.fixture()
    def closed(self, monkeypatch):
        """Every :class:`Artifact` closed from here on, in order."""
        closed = []
        real_close = Artifact.close

        def recording_close(self):
            real_close(self)  # a view left pinning the map raises BufferError
            closed.append(self)

        monkeypatch.setattr(Artifact, "close", recording_close)
        return closed

    @pytest.mark.parametrize(
        "section",
        [
            "exist.dat",
            "props.dat",
            "labels",
            "endpoints",
            "objects",
            "nodekind",
            "exist.idx",
            "props.idx",
        ],
    )
    def test_damage_fails_the_attach_and_closes_the_map(self, tmp_path, closed, section):
        path, _ = _compile(tmp_path, contact_tracing_example())
        _flip_section_byte(path, section)
        closed.clear()  # the probe that found the section
        with pytest.raises(StoreCorruptError) as info:
            attach(path)
        assert info.value.section == section
        assert len(closed) == 1 and closed[0]._map is None

    def test_undecodable_record_fails_the_attach_and_closes_the_map(
        self, tmp_path, closed
    ):
        """A record that passes its CRC but does not decode: the build
        stops mid-section, and the map still closes."""
        from repro.store.artifact import _data_sections, _head_sections, _pack_records

        graph = contact_tracing_example()
        index = graph_index_for(graph)
        sections = _head_sections(index, graph)
        sections.update(_data_sections(index, graph))
        sections["props.idx"], sections["props.dat"] = _pack_records(
            [b"not a pickle"] * len(index.objects)
        )
        path = str(tmp_path / "undecodable.rix")
        write_artifact(
            path,
            sections,
            {
                "token": "t",
                "domain": [graph.domain.start, graph.domain.end],
                "num_objects": len(index.objects),
                "num_nodes": len(index.nodes()),
                "kind": "index",
            },
        )
        with pytest.raises(Exception) as info:
            attach(path)
        assert not isinstance(info.value, BufferError)
        assert len(closed) == 1 and closed[0]._map is None

    @pytest.mark.parametrize("kind", ["head", "shard"])
    def test_non_index_artifact_rejected(self, tmp_path, kind):
        """A valid container whose kind is not ``index`` never attaches."""
        path = str(tmp_path / f"old.{kind}.rix")
        write_artifact(path, {"objects": b""}, {"kind": kind, "token": "t"})
        with pytest.raises(StoreFormatError) as info:
            attach(path)
        assert "kind" in str(info.value) and info.value.path == path

    def test_json_file_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"format": "repro-index-manifest/1", "head": "x"}))
        with pytest.raises(StoreFormatError):
            attach(str(path))

    @pytest.mark.parametrize("field", sorted(_FIXED_FIELDS))
    def test_every_fixed_header_byte_flip_is_structured(self, tmp_path, field):
        """Each byte of magic, version, header length and digest is guarded."""
        positions, error = _FIXED_FIELDS[field]
        path, _ = _compile(tmp_path, contact_tracing_example())
        intact = open(path, "rb").read()
        damaged = str(tmp_path / "damaged.rix")
        for position in positions:
            raw = bytearray(intact)
            raw[position] ^= 0xFF
            with open(damaged, "wb") as handle:
                handle.write(bytes(raw))
            with pytest.raises(error):
                attach(damaged).close()

    def test_cli_reports_damaged_header_length(self, tmp_path, capsys):
        artifact = str(tmp_path / "figure1.rix")
        assert cli_main(["compile", "-o", artifact]) == 0
        raw = bytearray(open(artifact, "rb").read())
        raw[17] ^= 0xFF  # high bytes of the u64 header length
        open(artifact, "wb").write(bytes(raw))
        capsys.readouterr()
        assert cli_main(["query", "Q1", "--store", artifact]) == 2
        assert "error:" in capsys.readouterr().err


_FUZZ_QUERIES = ("Q1", "Q8")  # one families-mode and one points-mode answer


def _attached_answers(path: str) -> tuple:
    """Two paper-query answers off ``path``, then a full checksum pass."""
    attachment = attach(path)
    try:
        engine = DataflowEngine(attachment.graph)
        answers = tuple(
            engine.match(PAPER_QUERIES[name].text).as_set() for name in _FUZZ_QUERIES
        )
        attachment.verify()
    finally:
        attachment.close()
    return answers


@pytest.fixture(scope="module")
def intact_artifact(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    path = str(directory / "intact.rix")
    compile_graph(contact_tracing_example(), path)
    return directory, open(path, "rb").read(), _attached_answers(path)


if st is not None:

    class TestByteBoundaryFuzz:
        """Random overwrites and truncations: a StoreError or the intact answer."""

        @settings(
            max_examples=200,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(data=st.data())
        def test_damage_is_structured_or_invisible(self, intact_artifact, data):
            directory, intact, expected = intact_artifact
            raw = bytearray(intact)
            writes = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, len(raw) - 1), st.integers(0, 255)
                    ),
                    min_size=1,
                    max_size=4,
                )
            )
            for position, value in writes:
                raw[position] = value
            cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)))
            if cut is not None:
                del raw[cut:]
            path = str(directory / "case.rix")
            with open(path, "wb") as handle:
                handle.write(bytes(raw))
            try:
                got = _attached_answers(path)
            except StoreError:
                return
            assert got == expected


class TestDeltasAfterAttach:
    def test_delta_parity(self, tmp_path):
        baseline = contact_tracing_example()
        path, _ = _compile(tmp_path, contact_tracing_example())
        attachment = attach(path)
        try:
            attached = attachment.graph
            batch = (
                DeltaBatch()
                .add_node("zara", "Person", [(2, 9)])
                .add_edge("cZ", "ContactWith", "zara", "n1", [(3, 5)])
            )
            session = StreamingEngine(engine=DataflowEngine(attached))
            session.register(PAPER_QUERIES["Q1"].text, name="Q1")
            session.apply(batch)
            apply_delta(baseline, batch)
            expected = DataflowEngine(baseline).match(PAPER_QUERIES["Q1"].text).as_set()
            assert session.table("Q1").as_set() == expected
            assert DataflowEngine(attached).match(PAPER_QUERIES["Q1"].text).as_set() == expected
        finally:
            attachment.close()

    def test_buckets_first_read_after_a_delta_hold_it(self, tmp_path):
        """A write before any query: the artifact's bucket section is
        stale by then, so the first read scans the graph instead."""
        from repro.lang import ast

        path, _ = _compile(tmp_path, contact_tracing_example())
        attachment = attach(path)
        try:
            batch = (
                DeltaBatch()
                .add_node("zara", "Person", [(2, 9)])
                .set_property("zara", "risk", "high", 2, 9)
            )
            attachment.index.apply_delta(apply_delta(attachment.graph, batch))
            node_buckets, _, prop_buckets = attachment.index.buckets()
            assert node_buckets["Person"].count("zara") == 1
            assert prop_buckets[("risk", "high")].count("zara") == 1
            condition = ast.and_(ast.label("Person"), ast.prop_eq("risk", "high"))
            assert "zara" in attachment.index.condition_table(condition)
        finally:
            attachment.close()


def _contact_stream():
    from repro.datagen import ContactTracingConfig, TrajectoryConfig
    from repro.datagen.streaming import contact_tracing_stream

    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=25, num_locations=20, num_rooms=6, num_windows=24, seed=3
        ),
        seed=3,
    )
    stream = contact_tracing_stream(
        config, num_batches=5, initial_fraction=0.3, advance_horizon=True
    )
    names = ("Q5", "Q9", "Q11")
    return stream.initial, stream.batches, [PAPER_QUERIES[name].text for name in names]


def _random_stream(seed: int):
    from repro.datagen.random_graphs import random_delta_batches, random_match_query

    graph = random_itpg(seed)
    batches = random_delta_batches(graph, seed * 17 + 3, num_batches=4)
    return graph, batches, [random_match_query(seed * 31 + 7 + k) for k in range(3)]


class TestRecompileAfterWrites:
    """``compile_graph`` after deltas writes the graph as it is now.

    The same stream goes to an in-memory graph and to the attachment of
    its compiled store (through the indexes, as a session applies it);
    each is compiled again and attached, and the new artifacts must
    read back every object's label, existence, properties, adjacency
    and endpoints, hold the maintained buckets, and answer like the
    reference engine on the in-memory graph.
    """

    @pytest.mark.parametrize("stream", ["contact"] + [f"random-{seed}" for seed in range(11)])
    def test_recompiled_artifacts_hold_every_write(self, tmp_path, stream):
        from repro.eval import ReferenceEngine
        from repro.perf import GraphIndex

        if stream == "contact":
            memory, batches, queries = _contact_stream()
        else:
            memory, batches, queries = _random_stream(int(stream.split("-")[1]))
        first = attach(_compile(tmp_path, memory, name="first.rix")[0])
        artifacts = []
        try:
            graphs = (memory, first.graph)
            engines = [DataflowEngine(graph) for graph in graphs]
            for engine in engines:
                for query in queries:
                    engine.match(query)  # warm tables, buckets and images
            for batch in batches:
                for graph, engine in zip(graphs, engines):
                    engine.index.apply_delta(apply_delta(graph, batch))
            for number, graph in enumerate(graphs):
                path, _ = _compile(tmp_path, graph, name=f"again-{number}.rix")
                artifacts.append(attach(path))
        finally:
            first.close()
        reference = ReferenceEngine(memory)
        rebuilt = GraphIndex(memory).buckets()
        try:
            for attachment in artifacts:
                got = attachment.graph
                assert set(got.objects()) == set(memory.objects())
                assert got.domain == memory.domain
                for obj in memory.objects():
                    assert got.label(obj) == memory.label(obj), obj
                    assert got.existence(obj) == memory.existence(obj), obj
                    assert got.property_names(obj) == memory.property_names(obj), obj
                    for name in memory.property_names(obj):
                        assert got.property_family(obj, name) == memory.property_family(
                            obj, name
                        ), (obj, name)
                    if memory.is_node(obj):
                        assert got.out_edges(obj) == memory.out_edges(obj), obj
                        assert got.in_edges(obj) == memory.in_edges(obj), obj
                    else:
                        assert got.endpoints(obj) == memory.endpoints(obj), obj
                for buckets, expected in zip(attachment.index.buckets(), rebuilt):
                    assert {k: set(v) for k, v in buckets.items()} == {
                        k: set(v) for k, v in expected.items()
                    }
                engine = DataflowEngine(got)
                for query in queries:
                    assert engine.match(query).as_set() == reference.match(query).as_set()
        finally:
            for attachment in artifacts:
                attachment.close()


class TestCliStore:
    def test_compile_verify_and_query_store(self, tmp_path, capsys):
        artifact = str(tmp_path / "figure1.rix")
        assert cli_main(["compile", "-o", artifact, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "# verify: every section passed its checksum" in out

        assert cli_main(["query", "Q1"]) == 0
        baseline = capsys.readouterr().out
        assert cli_main(["query", "Q1", "--store", artifact]) == 0
        assert capsys.readouterr().out == baseline

    def test_store_and_graph_are_mutually_exclusive(self, tmp_path, capsys):
        assert cli_main(["query", "Q1", "--store", "a.rix", "--graph", "b.json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_store_requires_dataflow_engine(self, capsys):
        assert cli_main(["query", "Q1", "--engine", "reference", "--store", "a.rix"]) == 2
        assert "dataflow engine only" in capsys.readouterr().err

    def test_query_missing_store_reports_structured_error(self, tmp_path, capsys):
        missing = str(tmp_path / "gone.rix")
        assert cli_main(["query", "Q1", "--store", missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestServerStore:
    def test_from_files_attaches_store(self, tmp_path):
        graph = contact_tracing_example()
        path, _ = _compile(tmp_path, graph)
        host, recovery = GraphHost.from_files("g", None, store=path)
        assert recovery is None
        expected = DataflowEngine(graph).match(PAPER_QUERIES["Q1"].text).as_set()
        response = host.query("Q1")
        assert response["server"]["graph"] == "g"
        direct = DataflowEngine(host.graph).match(PAPER_QUERIES["Q1"].text).as_set()
        assert direct == expected
        host.close()

    def test_snapshot_still_wins_over_store(self, tmp_path):
        """Recovery semantics: durable state beats the compiled artifact."""
        from repro.resilience import write_snapshot

        graph = contact_tracing_example()
        batch = DeltaBatch().add_node("Zara", "Person", [(2, 9)])
        session = StreamingEngine(engine=DataflowEngine(graph))
        session.apply(batch)
        snapshot = str(tmp_path / "snap.rix")
        write_snapshot(session, snapshot)

        stale = contact_tracing_example()
        path, _ = _compile(tmp_path, stale)
        host, recovery = GraphHost.from_files("g", None, store=path, snapshot=snapshot)
        assert recovery is not None
        assert host.graph.has_object("Zara")
        assert host.session.epoch == 1
        host.close()

    def test_legacy_json_snapshot_names_the_fix(self, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(
            json.dumps({"format": "repro-snapshot/1", "graph": {}}, sort_keys=True)
        )
        path, _ = _compile(tmp_path, contact_tracing_example())
        with pytest.raises(StoreFormatError, match="legacy JSON snapshot") as info:
            GraphHost.from_files("g", None, store=path, snapshot=str(snapshot))
        assert "Delete the file" in str(info.value)

    def test_boots_attach_only_a_store_or_an_existing_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A ``--graph`` (+ ``--wal``) boot attaches nothing; a ``--store``
        boot attaches once, its artifact."""
        import repro.store

        attached = []
        real_attach = repro.store.attach

        def counting_attach(path):
            attached.append(path)
            return real_attach(path)

        monkeypatch.setattr(repro.store, "attach", counting_attach)
        wal = str(tmp_path / "boot.wal")
        missing = str(tmp_path / "absent.rix")
        host, recovery = GraphHost.from_files("g", None, wal=wal, snapshot=missing)
        host.session.apply(DeltaBatch(sequence=1).add_node("Zara", "Person", [(2, 9)]))
        host.checkpoint_path = None  # keep this boot from writing one
        host.close()
        assert recovery is None and attached == []
        path, _ = _compile(tmp_path, contact_tracing_example())
        host, recovery = GraphHost.from_files("g", None, store=path, wal=wal)
        assert recovery is None and attached == [path]
        assert host.graph.has_object("Zara") and host.session.epoch == 1
        host.close()
