"""Unit tests for the streaming subsystem: DeltaBatch, maintenance, CLI.

The end-to-end incremental-vs-cold equivalence lives in
``test_streaming_oracle.py``; this module pins the edge cases of the
update model itself — adjacent-interval merging, out-of-domain deltas,
empty batches, out-of-order application — plus the in-place
``GraphIndex`` maintenance and the CLI ``--stream`` surface.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.datagen.streaming import contact_tracing_stream
from repro.datagen import ContactTracingConfig, TrajectoryConfig
from repro.eval import ReferenceEngine
from repro.errors import (
    EvaluationError,
    GraphIntegrityError,
    InvalidIntervalError,
    UnknownObjectError,
)
from repro.lang import ast
from repro.model.io import from_json_dict, save_json, to_json_dict
from repro.model.itpg import IntervalTPG
from repro.perf.graph_index import graph_index_for
from repro.streaming import DeltaBatch, StreamingEngine, apply_delta
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every ``columnar.run_query`` call, recorded as it happens."""
    from repro.perf import columnar

    calls = []
    run_query = columnar.run_query

    def counted(*args, **kwargs):
        calls.append(args)
        return run_query(*args, **kwargs)

    monkeypatch.setattr(columnar, "run_query", counted)
    return calls


def small_graph() -> IntervalTPG:
    graph = IntervalTPG((0, 9))
    graph.add_node("a", "Person", [(0, 4)])
    graph.add_node("b", "Person", [(2, 9)])
    graph.add_node("r", "Room", [(0, 9)])
    graph.add_edge("e0", "meets", "a", "b", [(2, 4)])
    graph.add_edge("v0", "visits", "a", "r", [(1, 3)])
    graph.set_property("a", "risk", "low", 0, 4)
    graph.set_property("b", "risk", "high", 2, 9)
    return graph


def snapshot(graph: IntervalTPG) -> dict:
    return to_json_dict(graph)


# --------------------------------------------------------------------- #
# DeltaBatch edge cases
# --------------------------------------------------------------------- #
class TestDeltaBatchEdgeCases:
    def test_adjacent_intervals_merge(self):
        graph = small_graph()
        effects = apply_delta(graph, DeltaBatch().add_existence("a", 5, 7))
        # [0,4] + [5,7] coalesce into one maximal interval.
        assert graph.existence("a") == IntervalSet(((0, 7),))
        assert effects.touched == frozenset({"a"})

    def test_adjacent_merge_maintains_index(self):
        graph = small_graph()
        index = graph_index_for(graph)
        image = index.columnar_context()
        exists_table = index.condition_table(ast.exists())
        assert exists_table["a"] == IntervalSet(((0, 4),))
        effects = apply_delta_and_maintain(graph, DeltaBatch().add_existence("a", 5, 7))
        assert effects.existence_changed == effects.families_changed == ("a",)
        row = index.object_id["a"]
        lo, hi = image.ex_indptr[row], image.ex_indptr[row + 1]
        assert list(zip(image.ex_start[lo:hi], image.ex_end[lo:hi])) == [(0, 7)]
        # The shared memoized table was repaired in place.
        assert exists_table["a"] == IntervalSet(((0, 7),))

    def test_effects_name_only_real_changes(self):
        """Writes that leave a family as it was are touched, not changed;
        a value an object already held is no new bucket key."""
        graph = small_graph()
        effects = apply_delta(
            graph,
            DeltaBatch()
            .add_existence("b", 3, 5)  # inside [2, 9]
            .set_property("a", "risk", "low", 1, 2),  # already held
        )
        assert effects.touched == frozenset({"a", "b"})
        assert effects.existence_changed == effects.families_changed == ()
        assert effects.new_keys == {}
        effects = apply_delta(
            graph,
            DeltaBatch()
            .add_node("c", "Person", [(0, 3)])
            .set_property("c", "risk", "high", 0, 3)
            .add_existence("a", 6, 7)
            .set_property("r", "open", "yes", 0, 9),
        )
        assert effects.existence_changed == ("c", "a")
        assert effects.families_changed == ("c", "a", "r")
        assert effects.new_keys == {("risk", "high"): ("c",), ("open", "yes"): ("r",)}

    def test_delta_outside_domain_rejected_atomically(self):
        graph = small_graph()
        before = snapshot(graph)
        batch = (
            DeltaBatch()
            .add_existence("b", 8, 9)  # valid part...
            .add_node("c", "Person", [(12, 14)])  # ...entirely outside [0,9]
        )
        with pytest.raises(GraphIntegrityError, match="outside the temporal domain"):
            apply_delta(graph, batch)
        # Nothing was applied, including the valid records before the bad one.
        assert snapshot(graph) == before

    def test_delta_outside_domain_allowed_after_horizon_advance(self):
        graph = small_graph()
        batch = DeltaBatch().extend_domain(14).add_node("c", "Person", [(12, 14)])
        effects = apply_delta(graph, batch)
        assert effects.horizon_advanced
        assert graph.domain == Interval(0, 14)
        assert graph.existence("c") == IntervalSet(((12, 14),))

    def test_horizon_cannot_move_backwards(self):
        graph = small_graph()
        with pytest.raises(GraphIntegrityError, match="append-only"):
            apply_delta(graph, DeltaBatch().extend_domain(5))
        with pytest.raises(GraphIntegrityError, match="backwards"):
            DeltaBatch().extend_domain(9).extend_domain(5)

    def test_empty_delta_is_noop(self):
        graph = small_graph()
        before = snapshot(graph)
        batch = DeltaBatch(sequence=1)
        assert batch.is_empty()
        session = StreamingEngine(graph)
        name = session.register("MATCH (x:Person) ON g")
        rows = session.table(name).as_set()
        result = session.apply(batch)
        assert (result.new_nodes, result.new_edges, result.touched_objects) == (0, 0, 0)
        assert snapshot(graph) == before
        assert session.table(name).as_set() == rows
        # The empty batch still advances the stream position.
        assert session.last_sequence == 1

    def test_out_of_order_batches_raise(self):
        graph = small_graph()
        session = StreamingEngine(graph)
        session.apply(DeltaBatch(sequence=2).add_existence("a", 5, 5))
        with pytest.raises(EvaluationError, match="out of order"):
            session.apply(DeltaBatch(sequence=2).add_existence("a", 6, 6))
        with pytest.raises(EvaluationError, match="strictly increasing"):
            session.apply(DeltaBatch(sequence=1))
        # A failed apply leaves the stream position usable.
        session.apply(DeltaBatch(sequence=3).add_existence("a", 6, 6))
        assert graph.existence("a") == IntervalSet(((0, 6),))

    def test_unsequenced_batches_always_accepted(self):
        graph = small_graph()
        session = StreamingEngine(graph)
        session.apply(DeltaBatch(sequence=5).add_existence("a", 5, 5))
        session.apply(DeltaBatch().add_existence("a", 6, 6))
        assert session.last_sequence == 5

    def test_duplicate_and_unknown_ids_rejected(self):
        graph = small_graph()
        before = snapshot(graph)
        with pytest.raises(GraphIntegrityError, match="already in use"):
            apply_delta(graph, DeltaBatch().add_node("a", "Person", [(0, 1)]))
        with pytest.raises(UnknownObjectError, match="unknown node"):
            apply_delta(graph, DeltaBatch().add_edge("e9", "meets", "a", "zz", [(2, 3)]))
        with pytest.raises(UnknownObjectError, match="unknown object"):
            apply_delta(graph, DeltaBatch().add_existence("zz", 0, 1))
        assert snapshot(graph) == before

    def test_edge_outside_endpoint_existence_rejected(self):
        graph = small_graph()
        before = snapshot(graph)
        # "a" exists on [0,4] only; edge through [0,6] is not contained.
        batch = DeltaBatch().add_edge("e9", "meets", "a", "b", [(2, 6)])
        with pytest.raises(GraphIntegrityError, match="outside the existence"):
            apply_delta(graph, batch)
        assert snapshot(graph) == before
        # Extending the endpoint in the same batch makes it valid.
        apply_delta(
            graph,
            DeltaBatch().add_existence("a", 5, 6).add_edge("e9", "meets", "a", "b", [(2, 6)]),
        )
        graph.validate()

    def test_conflicting_property_values_rejected_atomically(self):
        graph = small_graph()
        before = snapshot(graph)
        batch = DeltaBatch().add_existence("a", 5, 5).set_property("a", "risk", "high", 3, 4)
        with pytest.raises(InvalidIntervalError):
            apply_delta(graph, batch)
        assert snapshot(graph) == before

    def test_property_outside_existence_rejected(self):
        graph = small_graph()
        with pytest.raises(GraphIntegrityError, match="outside its existence"):
            apply_delta(graph, DeltaBatch().set_property("a", "risk", "low", 5, 6))

    def test_batch_new_objects_can_be_extended_in_batch(self):
        graph = small_graph()
        batch = (
            DeltaBatch()
            .add_node("c", "Person", [(0, 2)])
            .add_existence("c", 3, 5)
            .add_edge("e9", "knows", "c", "b", [(3, 4)])
            .set_property("c", "risk", "low", 0, 5)
        )
        effects = apply_delta(graph, batch)
        graph.validate()
        assert graph.existence("c") == IntervalSet(((0, 5),))
        assert effects.new_nodes == ("c",)
        assert effects.new_edges == ("e9",)
        # Batch-new objects are dirty but not "touched existing".
        assert "c" not in effects.touched
        assert "b" in effects.touched  # endpoint adjacency changed

    def test_json_round_trip(self):
        batch = (
            DeltaBatch(sequence=7)
            .extend_domain(20)
            .add_node("c", "Person", [(0, 2), (4, 5)])
            .add_edge("e9", "meets", "c", "c", [(1, 2)])
            .add_existence("c", 7, 8)
            .set_property("c", "risk", "low", 0, 2)
        )
        clone = DeltaBatch.from_json_dict(json.loads(json.dumps(batch.to_json_dict())))
        assert clone.sequence == 7
        assert clone.horizon == 20
        assert clone.nodes == batch.nodes
        assert clone.edges == batch.edges
        assert clone.existence == batch.existence
        assert clone.properties == batch.properties


def apply_delta_and_maintain(graph: IntervalTPG, batch: DeltaBatch):
    """Apply a batch and maintain the graph's cached index (test helper)."""
    effects = apply_delta(graph, batch)
    graph_index_for(graph).apply_delta(effects)
    return effects


# --------------------------------------------------------------------- #
# Incremental index maintenance
# --------------------------------------------------------------------- #
class TestIndexMaintenance:
    def test_new_objects_enter_buckets_and_ids(self):
        graph = small_graph()
        index = graph_index_for(graph)
        index.buckets()  # loaded: the delta extends them
        image = index.columnar_context()
        ids_before = dict(index.object_id)
        apply_delta_and_maintain(
            graph,
            DeltaBatch()
            .add_node("c", "Person", [(0, 3)])
            .add_edge("e9", "meets", "c", "b", [(2, 3)])
            .set_property("c", "risk", "high", 0, 3),
        )
        # Existing dense ids are stable; new objects appended.
        for obj, dense in ids_before.items():
            assert index.object_id[obj] == dense
        assert index.is_node("c") and index.is_edge("e9")
        node_buckets, edge_buckets, prop_buckets = index.buckets()
        assert "c" in node_buckets["Person"]
        assert "e9" in edge_buckets["meets"]
        assert "c" in prop_buckets[("risk", "high")]
        c, b, e9 = (index.object_id[obj] for obj in ("c", "b", "e9"))
        assert image.succ_bwd[e9] == c
        assert e9 in image.out_ids[image.out_indptr[c] : image.out_indptr[c + 1]]
        assert e9 in image.in_ids[image.in_indptr[b] : image.in_indptr[b + 1]]

    def test_condition_tables_repaired_for_dirty_objects(self):
        graph = small_graph()
        index = graph_index_for(graph)
        low = index.condition_table(ast.prop_eq("risk", "low"))
        assert low["a"] == IntervalSet(((0, 4),))
        assert "b" not in low
        apply_delta_and_maintain(
            graph,
            DeltaBatch().add_existence("a", 5, 7).set_property("a", "risk", "low", 5, 7),
        )
        assert low["a"] == IntervalSet(((0, 7),))
        # Untouched objects keep their entries untouched.
        assert "b" not in low

    def test_negated_condition_shrinks_on_update(self):
        graph = small_graph()
        index = graph_index_for(graph)
        not_low = index.condition_table(ast.not_(ast.prop_eq("risk", "low")))
        assert not_low["a"] == IntervalSet(((5, 9),))
        apply_delta_and_maintain(
            graph,
            DeltaBatch().add_existence("a", 5, 6).set_property("a", "risk", "low", 5, 6),
        )
        assert not_low["a"] == IntervalSet(((7, 9),))

    def test_horizon_advance_clears_domain_clamped_tables(self):
        graph = small_graph()
        index = graph_index_for(graph)
        not_exists = index.condition_table(ast.not_(ast.exists()))
        assert not_exists["a"] == IntervalSet(((5, 9),))
        apply_delta_and_maintain(graph, DeltaBatch().extend_domain(12))
        fresh = index.condition_table(ast.not_(ast.exists()))
        assert fresh["a"] == IntervalSet(((5, 12),))
        assert index.domain == Interval(0, 12)

    def test_index_epoch_counts_maintained_batches(self):
        graph = small_graph()
        index = graph_index_for(graph)
        assert index.epoch == 0
        apply_delta_and_maintain(graph, DeltaBatch().add_existence("a", 5, 6))
        apply_delta_and_maintain(graph, DeltaBatch().add_existence("a", 7, 8))
        assert index.epoch == 2

    def test_property_mutation_reaches_a_resident_condition_table(self):
        """A resident condition table over ``test = 'pos'`` is repaired in
        place by the incremental index maintenance: a property set by a
        delta reaches the condition on the hop target, and the
        incremental answer equals a cold rebuild over a fresh copy of the
        mutated graph.
        """
        config = ContactTracingConfig(
            trajectory=TrajectoryConfig(
                num_persons=30, num_locations=10, num_rooms=5, num_windows=16, seed=7
            ),
            positivity_rate=0.2,
            seed=7,
        )
        from repro.datagen import generate_contact_tracing_graph

        graph = generate_contact_tracing_graph(config)
        # The {test = 'pos'} condition sits on the hop *target*, so its
        # table is read mid-chain, not absorbed into the seed frontier.
        query = "MATCH (x:Person)-[z:meets]->(y {test = 'pos'}) ON contact_tracing"
        engine = DataflowEngine(graph)
        stale = engine.match_intervals(query)
        # Find an untested person someone meets, and hand them a positive
        # test over exactly that meeting's span.
        target = span = None
        for node in graph.nodes():
            if graph.label(node) != "Person":
                continue
            if len(graph.property_family(node, "test")) > 0:
                continue
            for edge in graph.in_edges(node):
                if graph.label(edge) == "meets":
                    target = node
                    span = next(iter(graph.existence(edge)))
                    break
            if target is not None:
                break
        assert target is not None, "no untested met person in the contact graph"
        apply_delta_and_maintain(
            graph,
            DeltaBatch().set_property(target, "test", "pos", span.start, span.end),
        )
        incremental = engine.match_intervals(query)
        cold = DataflowEngine(from_json_dict(to_json_dict(graph)))
        rebuilt = cold.match_intervals(query)

        def canonical(families):
            return sorted(
                (tuple(bindings), tuple((iv.start, iv.end) for iv in times))
                for bindings, times in families
            )

        assert canonical(incremental) != canonical(stale)
        assert canonical(incremental) == canonical(rebuilt)
        # Every gained family binds the newly-positive person as target.
        gained = set(canonical(incremental)) - set(canonical(stale))
        assert gained
        assert all(dict(bindings)["y"] == target for bindings, _times in gained)


# --------------------------------------------------------------------- #
# StreamingEngine behaviour
# --------------------------------------------------------------------- #
class TestStreamingEngine:
    QUERY = "MATCH (x:Person {risk = 'low'})-[z:meets]->(y:Person {risk = 'high'}) ON g"

    def test_incremental_matches_cold_after_each_batch(self):
        graph = small_graph()
        session = StreamingEngine(graph)
        name = session.register(self.QUERY)
        batches = [
            DeltaBatch(sequence=1)
            .add_node("c", "Person", [(3, 8)])
            .set_property("c", "risk", "high", 3, 8)
            .add_edge("e1", "meets", "a", "c", [(3, 4)]),
            DeltaBatch(sequence=2).add_existence("b", 0, 1),
            DeltaBatch(sequence=3).extend_domain(12).add_existence("c", 9, 12)
            .set_property("c", "risk", "high", 9, 12),
        ]
        for batch in batches:
            session.apply(batch)
            cold = DataflowEngine(from_json_dict(to_json_dict(graph)))
            assert session.table(name).as_set() == cold.match(self.QUERY).as_set()
            inc_families = sorted(
                ((b, tuple(t.intervals)) for b, t in session.results(name)),
                key=repr,
            )
            cold_families = sorted(
                ((b, tuple(t.intervals)) for b, t in cold.match_intervals(self.QUERY)),
                key=repr,
            )
            assert inc_families == cold_families

    def test_apply_runs_no_kernel(self, kernel_runs):
        session = StreamingEngine(small_graph())
        name = session.register(self.QUERY)
        assert kernel_runs == []  # registration only prepares the plan
        session.table(name)
        kernel_runs.clear()
        result = session.apply(
            DeltaBatch(sequence=1).add_existence("b", 0, 1).extend_domain(11)
        )
        assert result.horizon_advanced and result.touched_objects == 1
        assert kernel_runs == []
        assert session.epoch == 1

    def test_horizon_advance_recomputes_everything(self):
        # Domain-clamped conditions (label tests, negation) shift for every
        # object when the horizon moves: the next read must answer like a
        # cold rebuild of the grown graph.
        graph = small_graph()
        session = StreamingEngine(graph)
        queries = [self.QUERY, "MATCH (x:Person {NOT risk = 'low'}) ON g"]
        for query in queries:
            session.register(query)
            session.table(query)
        session.apply(
            DeltaBatch(sequence=1)
            .extend_domain(12)
            .add_existence("a", 5, 12)
            .set_property("a", "risk", "low", 5, 8)
        )
        cold = DataflowEngine(from_json_dict(to_json_dict(graph)))
        for query in queries:
            assert session.table(query).as_set() == cold.match(query).as_set()
            assert sorted(session.results(query), key=repr) == sorted(
                cold.match_intervals(query), key=repr
            )

    def test_streaming_engine_standalone_registration(self):
        graph = small_graph()
        session = StreamingEngine(graph)
        name = session.register(self.QUERY)
        assert name == self.QUERY
        assert session.query_names() == (self.QUERY,)
        families = session.results(name)
        assert families
        with pytest.raises(EvaluationError, match="not registered"):
            session.table("MATCH (q) ON g")

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (x:Person)-/NEXT + PREV/-(:Person) ON g",
            "MATCH (x:Person)-/(NEXT[0,2] + PREV[0,2])/-(:Person) ON g",
            PAPER_QUERIES["Q6"].text,
        ],
    )
    def test_results_answer_like_match_intervals(self, query):
        # One definedness rule: a temporal alternation after the only
        # bind keeps the output interval-native on both paths, and a
        # group-spanning query is refused on both with the same error.
        from repro.model import contact_tracing_example

        engine = DataflowEngine(contact_tracing_example())
        session = StreamingEngine(engine=engine)
        name = session.register(query)
        try:
            expected = engine.match_intervals(query)
        except EvaluationError as error:
            with pytest.raises(EvaluationError) as refused:
                session.results(name)
            assert str(refused.value) == str(error)
            return
        assert expected
        assert sorted(session.results(name), key=repr) == sorted(expected, key=repr)

    def test_first_read_after_write_runs_kernel_once(self, kernel_runs):
        session = StreamingEngine(small_graph())
        name = session.register(self.QUERY)
        session.apply(DeltaBatch(sequence=1).add_existence("b", 0, 1))
        session.table(name)
        assert len(kernel_runs) == 1
        session.table(name)
        session.results(name)
        assert len(kernel_runs) == 1
        session.apply(DeltaBatch(sequence=2))  # even an empty batch is a new epoch
        session.results(name)
        assert len(kernel_runs) == 2

    def test_second_read_at_same_epoch_returns_same_object(self):
        session = StreamingEngine(small_graph())
        name = session.register(self.QUERY)
        first = session.table(name)
        assert session.table(name) is first
        session.apply(DeltaBatch(sequence=1).add_existence("b", 0, 1))
        second = session.table(name)
        assert second is not first
        assert session.table(name) is second

    def test_direction_follows_the_graph(self):
        """A plan registered once picks its direction per read: a delta
        that makes Q11's far end common sends it back to the chain as
        written, and the answer still equals a cold engine's."""
        from repro.model import contact_tracing_example

        graph = contact_tracing_example()
        query = PAPER_QUERIES["Q11"].text
        session = StreamingEngine(graph)
        name = session.register(query)
        plan = session._plan(name)
        assert session.engine.explain(plan)["direction"] == "converse"
        batch = DeltaBatch(sequence=1)
        for node, end in (("n1", 9), ("n2", 9), ("n3", 7)):
            batch.set_property(node, "test", "pos", 1, end)
        session.apply(batch)
        explained = session.engine.explain(plan)
        assert explained["direction"] == "forward"
        assert explained["seed_points"] == {"forward": 20, "converse": 26}
        cold = DataflowEngine(from_json_dict(to_json_dict(graph)))
        assert session.table(name).as_set() == cold.match(query).as_set()

    def test_kernel_sessions_agree(self):
        # The query kernel, reading the session's delta-maintained index
        # ad hoc, agrees with the session's registered answer and with
        # the reference engine.
        query = "MATCH (x:Person {risk = 'high'}) ON g"
        session = StreamingEngine(small_graph())
        name = session.register(query)
        engine = session.engine
        engine.match(query)  # builds the columnar image the delta patches
        session.apply(
            DeltaBatch(sequence=1)
            .add_existence("a", 5, 9)
            .set_property("a", "risk", "high", 5, 9)
        )
        rows = session.table(name).as_set()
        assert rows  # the update made 'a' high-risk on [5,9]
        assert engine.match(query).as_set() == rows
        assert ReferenceEngine(engine.graph).match(query).as_set() == rows


# --------------------------------------------------------------------- #
# Streaming workload generator
# --------------------------------------------------------------------- #
class TestContactTracingStream:
    CONFIG = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=25, num_locations=20, num_rooms=6, num_windows=24, seed=5
        ),
        seed=5,
    )

    def test_stream_replays_to_valid_graph(self):
        stream = contact_tracing_stream(self.CONFIG, num_batches=4)
        assert stream.batches
        sequences = [batch.sequence for batch in stream.batches]
        assert sequences == sorted(sequences)
        final = stream.replay()
        final.validate()
        assert final.num_nodes() > stream.initial.num_nodes() or (
            final.num_edges() > stream.initial.num_edges()
        )

    def test_fresh_initial_is_pristine_under_mutation(self):
        stream = contact_tracing_stream(self.CONFIG, num_batches=3)
        session = StreamingEngine(stream.initial)
        name = session.register("MATCH (x:Person) ON g")
        for batch in stream.batches:
            session.apply(batch)
        # initial was mutated through the session; fresh_initial was not.
        assert stream.initial.num_edges() > stream.fresh_initial().num_edges()
        cold = DataflowEngine(stream.replay())
        assert (
            session.table(name).as_set()
            == cold.match("MATCH (x:Person) ON g").as_set()
        )

    def test_advance_horizon_variant(self):
        stream = contact_tracing_stream(
            self.CONFIG, num_batches=4, initial_fraction=0.2, advance_horizon=True
        )
        full_end = self.CONFIG.trajectory.num_windows - 1
        assert stream.initial.domain.end <= full_end
        final = stream.replay()
        final.validate()
        if any(batch.horizon is not None for batch in stream.batches):
            # Batches moved the horizon monotonically up to the final end.
            horizons = [b.horizon for b in stream.batches if b.horizon is not None]
            assert horizons == sorted(horizons)
            assert final.domain.end == horizons[-1]
        else:
            # The prefix already reached the last event's end.
            assert final.domain == stream.initial.domain

    def test_batch_size_and_num_batches_are_exclusive(self):
        with pytest.raises(ValueError):
            contact_tracing_stream(self.CONFIG, num_batches=2, batch_size=3)


# --------------------------------------------------------------------- #
# CLI --stream
# --------------------------------------------------------------------- #
class TestCliStream:
    def test_generate_and_stream_query(self, tmp_path, capsys):
        graph_path = tmp_path / "prefix.json"
        deltas_path = tmp_path / "deltas.jsonl"
        assert cli_main([
            "generate", "--persons", "20", "--locations", "15", "--rooms", "5",
            "--windows", "16", "-o", str(graph_path),
            "--stream-batches", "3", "--stream-output", str(deltas_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "delta batches" in out
        assert deltas_path.exists()
        assert cli_main([
            "query", "MATCH (x:Person) ON g", "--graph", str(graph_path),
            "--stream", str(deltas_path), "--stats", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "# stream: initial graph" in out
        assert "# batch 1 (seq 1):" in out
        assert "# batch 3 (seq 3):" in out
        assert "| output " in out

    def test_stream_requires_dataflow_engine(self, tmp_path, capsys):
        deltas_path = tmp_path / "d.jsonl"
        deltas_path.write_text("{}\n")
        assert cli_main([
            "query", "MATCH (x) ON g", "--engine", "reference",
            "--stream", str(deltas_path),
        ]) == 2
        assert "--stream" in capsys.readouterr().err

    def test_stream_final_table_reflects_batches(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        deltas_path = tmp_path / "d.jsonl"
        save_json(small_graph(), str(graph_path))
        batch = (
            DeltaBatch(sequence=1)
            .add_node("zz", "Person", [(0, 3)])
            .set_property("zz", "risk", "high", 0, 3)
        )
        deltas_path.write_text(json.dumps(batch.to_json_dict()) + "\n\n# comment\n")
        assert cli_main([
            "query", "MATCH (x:Person {risk = 'high'}) ON g",
            "--graph", str(graph_path), "--stream", str(deltas_path),
            "--intervals", "--limit", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "x=zz @ [0,3]" in out

    def test_stream_line_numbers_are_1_based_and_physical(self, tmp_path):
        """Line numbers count physical lines from 1, across reader paths."""
        from repro.errors import StreamFormatError
        from repro.streaming.reader import parse_stream_line, read_delta_stream

        path = tmp_path / "d.jsonl"
        good = json.dumps(DeltaBatch(sequence=1).add_existence("a", 5, 6).to_json_dict())
        # Record sits on physical line 3 (after a comment and a blank);
        # the malformed record is physical line 5.
        path.write_text(f"# header\n\n{good}\n\nnot json\n")
        stream = read_delta_stream(str(path))
        number, batch = next(stream)
        assert number == 3
        assert batch.sequence == 1
        with pytest.raises(StreamFormatError) as err:
            next(stream)
        assert err.value.line == 5
        assert ":5:" in str(err.value)
        # The single-line parser reports the number it was given, 1-based.
        with pytest.raises(StreamFormatError) as err:
            parse_stream_line("not json", path=str(path), number=1)
        assert err.value.line == 1
        assert ":1:" in str(err.value)

    def test_wal_records_carry_1_based_line_numbers(self, tmp_path):
        from repro.resilience.wal import DeltaWAL, scan_wal

        path = tmp_path / "d.wal"
        wal = DeltaWAL(str(path))
        wal.append(DeltaBatch(sequence=1).add_existence("a", 5, 6))
        wal.append(DeltaBatch(sequence=2).add_existence("a", 7, 8))
        wal.close()
        records = scan_wal(str(path)).records
        assert [record.line for record in records] == [1, 2]

    def test_stream_bad_json_reports_line(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        deltas_path = tmp_path / "d.jsonl"
        save_json(small_graph(), str(graph_path))
        deltas_path.write_text("not json\n")
        assert cli_main([
            "query", "MATCH (x) ON g", "--graph", str(graph_path),
            "--stream", str(deltas_path),
        ]) == 2
        assert ":1: invalid JSON" in capsys.readouterr().err
