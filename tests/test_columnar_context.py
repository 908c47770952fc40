"""The index-owned ``ColumnarContext`` is patched, never rebuilt.

``GraphIndex.apply_delta`` maintains the columnar kernel's array image
in place (appended tails, re-spliced dirty rows).  These tests hold the
patch to the only standard that matters: after every delta, every array
of the maintained image equals a freshly constructed
``ColumnarContext(index)`` element for element — over randomized delta
streams (new nodes, new edges, touched existence/properties, horizon
advances), over the contact-tracing stream, and for a store-attached
index whose image was decoded from the artifact's sections at epoch 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import ContactTracingConfig, TrajectoryConfig
from repro.datagen.random_graphs import (
    random_delta_batches,
    random_itpg,
    random_match_query,
)
from repro.datagen.streaming import contact_tracing_stream
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.eval import ReferenceEngine
from repro.model import contact_tracing_example
from repro.perf.columnar import ColumnarContext
from repro.perf.graph_index import graph_index_for
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


def maintain(graph, batch) -> None:
    graph_index_for(graph).apply_delta(apply_delta(graph, batch))


@pytest.mark.parametrize("seed", range(24))
def test_random_delta_streams_patch_equals_rebuild(seed):
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
        assert_equals_rebuild(index, f"seed={seed}, batch={number}")
        for query in queries:
            # Repopulates conditions dropped by a horizon advance.
            DataflowEngine(graph).match(query)


def test_streams_cover_every_delta_kind():
    """The sweep above is not vacuous: its streams add nodes and edges,
    touch existing objects, advance the horizon, and patch cached
    condition tables."""
    kinds = {"nodes": 0, "edges": 0, "touched": 0, "horizon": 0, "conditions": 0}
    for seed in range(24):
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
        assert attachment.core.columnar_sections() is not None
        engine = DataflowEngine(graph)
        for name in ("Q5", "Q9", "Q11"):
            engine.match(PAPER_QUERIES[name].text)
        assert index.epoch == 0  # image decoded from the artifact sections
        person = next(iter(graph.nodes()))
        span = next(iter(graph.existence(person)))
        batch = DeltaBatch()
        batch.add_node("zz1", "Person", [(span.start, span.end)])
        batch.set_property("zz1", "risk", "high", span.start, span.end)
        batch.add_edge("zz2", "meets", "zz1", person, [(span.start, span.start)])
        maintain(graph, batch)
        assert index.epoch == 1
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
