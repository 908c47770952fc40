"""The ``GraphIndex`` and its ``ColumnarContext`` are patched, never rebuilt.

``GraphIndex.apply_delta`` maintains the index (object table, buckets,
memoized condition tables) and the columnar kernel's array image in
place (appended tails, re-spliced changed rows).  These tests hold the
patch to the only standard that matters: after every delta the
maintained index equals a fresh ``GraphIndex(graph)``, the image's
existence, adjacency and successor arrays agree with the graph itself,
and every array of the maintained image equals a freshly constructed
``ColumnarContext(index)`` element for element — over randomized delta
streams (new nodes, new edges, touched existence/properties, horizon
advances), over the contact-tracing stream, and for a store-attached
index whose image was decoded from the artifact's sections at epoch 0.
``REPRO_FUZZ_SEED_OFFSET`` shifts the random streams' seed window (the
CI fuzz matrix runs three more windows); 0 is the fixed tier-1 window.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import ContactTracingConfig, TrajectoryConfig
from repro.datagen.random_graphs import (
    random_delta_batches,
    random_itpg,
    random_match_query,
)
from repro.datagen.streaming import contact_tracing_stream
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.eval import ReferenceEngine
from repro.lang.ast import AndTest, ExistsTest, LabelTest
from repro.model import contact_tracing_example
from repro.perf.columnar import ColumnarContext, _splice
from repro.perf.graph_index import GraphIndex, graph_index_for
from repro.streaming import DeltaBatch, StreamingEngine, apply_delta

GRAPH_ARRAYS = (
    "is_node",
    "ex_indptr",
    "ex_start",
    "ex_end",
    "out_indptr",
    "out_ids",
    "in_indptr",
    "in_ids",
    "succ_fwd",
    "succ_bwd",
)
SCALARS = ("domain_start", "domain_end", "stride", "num_objects", "objects")
BUCKETS = ("node label buckets", "edge label buckets", "property buckets")
SEED_OFFSET = int(os.environ.get("REPRO_FUZZ_SEED_OFFSET", "0"))


def assert_same_arrays(got, expected, what: str) -> None:
    assert got.dtype == expected.dtype, f"{what}: {got.dtype} != {expected.dtype}"
    assert np.array_equal(got, expected), f"{what} diverged from a rebuild"


def assert_equals_rebuild(index, context: str) -> int:
    """The maintained image vs ``ColumnarContext(index)``; returns how
    many cached condition tables were compared."""
    live = index.columnar_context()
    fresh = ColumnarContext(index)
    for name in SCALARS:
        assert getattr(live, name) == getattr(fresh, name), f"{name} ({context})"
    for name in GRAPH_ARRAYS:
        assert_same_arrays(
            getattr(live, name), getattr(fresh, name), f"{name} ({context})"
        )
    for condition, arrays in live._conditions.items():
        rebuilt = fresh.condition_arrays(condition)
        for part, got, expected in zip(("indptr", "starts", "ends"), arrays, rebuilt):
            assert_same_arrays(got, expected, f"{condition!r}.{part} ({context})")
        for got, expected in zip(
            live.condition_hull(condition), fresh.condition_hull(condition)
        ):
            assert_same_arrays(got, expected, f"{condition!r} hull ({context})")
    return len(live._conditions)


def image_existence(index, obj) -> list:
    """``obj``'s existence row of the array image, as ``(start, end)`` pairs."""
    image = index.columnar_context()
    position = index.object_id[obj]
    lo, hi = image.ex_indptr[position], image.ex_indptr[position + 1]
    return list(zip(image.ex_start[lo:hi].tolist(), image.ex_end[lo:hi].tolist()))


def image_edges(index, obj, side: str) -> list:
    """``obj``'s ``out``/``in`` adjacency row of the array image."""
    image = index.columnar_context()
    position = index.object_id[obj]
    indptr, ids = getattr(image, f"{side}_indptr"), getattr(image, f"{side}_ids")
    return [index.objects[i] for i in ids[indptr[position] : indptr[position + 1]]]


def assert_image_matches_graph(index, context: str) -> None:
    """Every object's existence row, adjacency rows (no duplicates) and
    successors in the maintained image against the graph itself."""
    graph = index.graph
    image = index.columnar_context()
    for position, obj in enumerate(index.objects):
        expected = [(iv.start, iv.end) for iv in graph.existence(obj)]
        assert image_existence(index, obj) == expected, f"{obj!r} existence ({context})"
        if obj in index.nodes():
            for side, edges in (("out", graph.out_edges(obj)), ("in", graph.in_edges(obj))):
                row = image_edges(index, obj, side)
                assert len(set(row)) == len(row), f"{obj!r} {side} dup ({context})"
                assert set(row) == edges, f"{obj!r} {side} ({context})"
        else:
            source, target = image.succ_bwd[position], image.succ_fwd[position]
            ends = (index.objects[source], index.objects[target])
            assert ends == graph.endpoints(obj), f"{obj!r} endpoints ({context})"


def assert_index_equals_rebuild(index, context: str) -> None:
    """The maintained index vs a fresh ``GraphIndex(graph)``: condition
    tables, buckets (same members, no duplicates), the object table and
    node/edge sets; then the maintained image against the graph."""
    fresh = GraphIndex(index.graph)
    assert index.nodes() == fresh.nodes(), f"nodes ({context})"
    assert index.edges() == fresh.edges(), f"edges ({context})"
    assert len(index.objects) == len(fresh.objects), f"objects ({context})"
    assert set(index.objects) == set(fresh.objects), f"objects ({context})"
    assert index.object_id == {obj: i for i, obj in enumerate(index.objects)}, context
    for condition, table in index._table_cache.items():
        assert table == fresh.condition_table(condition), f"{condition!r} ({context})"
    for name, live, rebuilt in zip(BUCKETS, index.buckets(), fresh.buckets()):
        assert live.keys() == rebuilt.keys(), f"{name} keys ({context})"
        for key, members in live.items():
            assert len(set(members)) == len(members), f"{name}[{key!r}] dup ({context})"
            assert set(members) == set(rebuilt[key]), f"{name}[{key!r}] ({context})"
    assert_image_matches_graph(index, context)


def maintain(graph, batch) -> None:
    graph_index_for(graph).apply_delta(apply_delta(graph, batch))


@pytest.mark.parametrize("case", range(24))
def test_random_delta_streams_patch_equals_rebuild(case):
    seed = SEED_OFFSET + case
    graph = random_itpg(seed)
    queries = [random_match_query(seed * 31 + 7 + k) for k in range(3)]
    engine = DataflowEngine(graph)
    index = engine.index
    for query in queries:
        engine.match(query)  # warm the condition caches the patch maintains
    index.columnar_context()
    assert_equals_rebuild(index, f"seed={seed}, cold")
    for number, batch in enumerate(random_delta_batches(graph, seed * 17 + 3), 1):
        maintain(graph, batch)
        assert_index_equals_rebuild(index, f"seed={seed}, batch={number}")
        assert_equals_rebuild(index, f"seed={seed}, batch={number}")
        for query in queries:
            # Repopulates conditions dropped by a horizon advance.
            DataflowEngine(graph).match(query)


def test_streams_cover_every_delta_kind():
    """The sweep above is not vacuous: its streams add nodes and edges,
    touch existing objects, advance the horizon, and patch cached
    condition tables."""
    kinds = {"nodes": 0, "edges": 0, "touched": 0, "horizon": 0, "conditions": 0}
    for seed in range(SEED_OFFSET, SEED_OFFSET + 24):
        graph = random_itpg(seed)
        engine = DataflowEngine(graph)
        for k in range(3):
            engine.match(random_match_query(seed * 31 + 7 + k))
        engine.index.columnar_context()
        for batch in random_delta_batches(graph, seed * 17 + 3):
            effects = apply_delta(graph, batch)
            engine.index.apply_delta(effects)
            kinds["nodes"] += len(effects.new_nodes)
            kinds["edges"] += len(effects.new_edges)
            kinds["touched"] += len(effects.touched)
            kinds["horizon"] += effects.horizon_advanced
            kinds["conditions"] += len(engine.index.columnar_context()._conditions)
    assert all(kinds.values()), kinds


def test_contact_tracing_stream_with_horizon_advance():
    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=25, num_locations=20, num_rooms=6, num_windows=24, seed=5
        ),
        seed=5,
    )
    stream = contact_tracing_stream(
        config, num_batches=6, initial_fraction=0.2, advance_horizon=True
    )
    graph = stream.initial
    engine = DataflowEngine(graph)
    for name in ("Q2", "Q5", "Q9", "Q11", "Q12"):
        engine.match(PAPER_QUERIES[name].text)
    compared = 0
    for number, batch in enumerate(stream.batches, 1):
        maintain(graph, batch)
        assert_index_equals_rebuild(engine.index, f"contact batch {number}")
        compared += assert_equals_rebuild(engine.index, f"contact batch {number}")
        DataflowEngine(graph).match(PAPER_QUERIES["Q11"].text)
    assert compared > 0


def test_store_attached_image_stays_equal_after_first_delta(tmp_path):
    from repro.store import attach, compile_graph

    path = str(tmp_path / "graph.rix")
    compile_graph(contact_tracing_example(), path)
    attachment = attach(path)
    try:
        graph = attachment.graph
        index = graph_index_for(graph)
        engine = DataflowEngine(graph)
        for name in ("Q5", "Q9", "Q11"):
            engine.match(PAPER_QUERIES[name].text)
        assert index.epoch == 0
        person = next(iter(graph.nodes()))
        span = next(iter(graph.existence(person)))
        batch = DeltaBatch()
        batch.add_node("zz1", "Person", [(span.start, span.end)])
        batch.set_property("zz1", "risk", "high", span.start, span.end)
        batch.add_edge("zz2", "meets", "zz1", person, [(span.start, span.start)])
        maintain(graph, batch)
        assert index.epoch == 1
        assert_index_equals_rebuild(index, "attached, first delta")
        assert assert_equals_rebuild(index, "attached, first delta") > 0
        assert (
            DataflowEngine(graph).match(PAPER_QUERIES["Q5"].text).as_set()
            == ReferenceEngine(graph).match(PAPER_QUERIES["Q5"].text).as_set()
        )
    finally:
        attachment.close()


def test_no_read_pays_a_rebuild(monkeypatch):
    """N batches through a host-shaped session: ad-hoc answers of the
    session's engine and of a fresh engine on the same graph equal the
    reference engine, and the graph's context was constructed exactly
    once."""
    built = []
    original = ColumnarContext.__init__

    def counting_init(self, index):
        built.append(index)
        original(self, index)

    monkeypatch.setattr(ColumnarContext, "__init__", counting_init)
    seed = 5
    graph = random_itpg(seed)
    queries = [random_match_query(seed * 31 + 7 + k) for k in range(3)]
    engine = DataflowEngine(graph)
    session = StreamingEngine(engine=engine)
    for batch in random_delta_batches(graph, seed * 17 + 3, num_batches=6):
        session.apply(batch)
        fresh = DataflowEngine(graph)
        reference = ReferenceEngine(graph)
        for query in queries:
            expected = reference.match(query).as_set()
            assert engine.match(query).as_set() == expected
            assert fresh.match(query).as_set() == expected
    assert len(built) == 1 and built[0] is engine.index


def test_attached_store_writes_like_the_in_memory_graph(tmp_path):
    """One contact-tracing stream applied to an in-memory graph and to
    the attachment of its compiled store: every dirty object ends with
    equal families on both graphs and both indexes, and the registered
    paper queries answer alike after every batch."""
    from repro.store import attach, compile_graph

    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=25, num_locations=20, num_rooms=6, num_windows=24, seed=7
        ),
        seed=7,
    )
    stream = contact_tracing_stream(config, num_batches=5, initial_fraction=0.3)
    memory = stream.initial
    path = str(tmp_path / "graph.rix")
    compile_graph(memory, path)
    attachment = attach(path)
    names = ("Q5", "Q9", "Q11")
    try:
        attached = attachment.graph
        graphs = (memory, attached)
        engines = [DataflowEngine(graph) for graph in graphs]
        for engine in engines:
            for name in names:
                engine.match(PAPER_QUERIES[name].text)
        for number, batch in enumerate(stream.batches, 1):
            dirty = set()
            for graph, engine in zip(graphs, engines):
                effects = apply_delta(graph, batch)
                engine.index.apply_delta(effects)
                dirty |= effects.dirty
            assert dirty, f"batch {number} changed nothing"
            mine, theirs = (engine.index for engine in engines)
            for obj in dirty:
                assert memory.existence(obj) == attached.existence(obj), obj
                assert memory.properties(obj) == attached.properties(obj), obj
                assert image_existence(mine, obj) == image_existence(theirs, obj), obj
                if obj in mine.nodes():
                    for side in ("out", "in"):
                        assert set(image_edges(mine, obj, side)) == set(
                            image_edges(theirs, obj, side)
                        ), obj
            for name in names:
                text = PAPER_QUERIES[name].text
                assert (
                    engines[0].match(text).as_set() == engines[1].match(text).as_set()
                ), f"{name} after batch {number}"
        assert_index_equals_rebuild(engines[1].index, "attached, end of stream")
    finally:
        attachment.close()


@st.composite
def splice_cases(draw):
    """A random int64 CSR with two columns, plus distinct rows in any
    order (some past the old tail), their counts and fresh values, a
    target row count at least one past the last named row, and a mode."""
    old_sizes = draw(st.lists(st.integers(0, 4), max_size=12))
    old_n = len(old_sizes)
    n = draw(st.integers(old_n, old_n + 4))
    rows = draw(st.lists(st.integers(0, n + 3), unique=True, max_size=n + 4))
    n = max([n, *(row + 1 for row in rows)])
    counts = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    values = st.integers(-50, 50)
    old = [draw(st.lists(values, min_size=size, max_size=size)) for size in old_sizes]
    fresh = [draw(st.lists(values, min_size=count, max_size=count)) for count in counts]
    return old, n, rows, fresh, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(splice_cases())
def test_splice_equals_a_naive_per_row_rebuild(case):
    old, n, rows, fresh, append = case
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in old]))).astype(np.int64)
    flat = np.array([value for row in old for value in row], dtype=np.int64)
    values = [value for row in fresh for value in row]
    got = _splice(
        (indptr, flat, flat * 2),
        n,
        rows,
        [len(row) for row in fresh],
        values,
        [2 * value for value in values],
        append=append,
    )
    expected_rows = [list(row) for row in old] + [[] for _ in range(n - len(old))]
    for row, entries in zip(rows, fresh):
        expected_rows[row] = (expected_rows[row] if append else []) + entries
    expected_indptr = np.concatenate(([0], np.cumsum([len(r) for r in expected_rows])))
    expected = np.array([value for row in expected_rows for value in row], dtype=np.int64)
    assert len(got) == 3
    assert_same_arrays(got[0], expected_indptr.astype(np.int64), "indptr")
    assert_same_arrays(got[1], expected, "first column")
    assert_same_arrays(got[2], expected * 2, "second column")


def test_a_condition_cached_during_a_patch_is_safe(monkeypatch):
    """A reader may cache a new condition CSR while a write re-splices
    the image (``condition_arrays`` runs under the shared lock): the
    patch walks a snapshot of the cached conditions, and the image still
    equals a rebuild afterwards."""
    graph = contact_tracing_example()
    index = graph_index_for(graph)
    context = index.columnar_context()
    first = AndTest((LabelTest("Person"), ExistsTest()))
    second = AndTest((LabelTest("meets"), ExistsTest()))
    context.condition_arrays(first)
    original = index.condition_table
    inserted = []

    def reader_meanwhile(condition):
        if not inserted:
            inserted.append(condition)
            context.condition_arrays(second)
        return original(condition)

    monkeypatch.setattr(index, "condition_table", reader_meanwhile)
    person = next(obj for obj in index.objects if graph.label(obj) == "Person")
    span = next(iter(graph.existence(person)))
    batch = DeltaBatch()
    batch.add_node("zz1", "Person", [(span.start, span.end)])
    batch.add_edge("zz2", "meets", "zz1", person, [(span.start, span.start)])
    maintain(graph, batch)
    monkeypatch.undo()
    assert inserted == [first]
    assert set(context._conditions) == {first, second}
    assert_index_equals_rebuild(index, "condition cached mid-patch")
    assert assert_equals_rebuild(index, "condition cached mid-patch") == 2
