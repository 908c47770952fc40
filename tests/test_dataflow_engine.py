"""Tests for the dataflow engine: correctness, stats, coalesced output."""

import threading

import pytest

from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import EvaluationError, UnsupportedFragmentError
from repro.eval import ReferenceEngine
from repro.model import contact_tracing_example
from repro.temporal import IntervalSet


class TestAgainstReferenceEngine:
    """The dataflow engine must agree with the reference engine everywhere it applies."""

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_paper_queries_on_running_example(self, figure1, name):
        reference = ReferenceEngine(figure1).match(PAPER_QUERIES[name].text)
        dataflow = DataflowEngine(figure1).match(PAPER_QUERIES[name].text)
        assert reference.as_set() == dataflow.as_set()

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (x:Person)-[:knows]->(y:Person) ON g",
            "MATCH (x:Person)<-[e:knows]-(y:Person) ON g",
            "MATCH (x)-[:knows]-(y) ON g",
            "MATCH (x:Person)-/NEXT*/-(y:Person) ON g",
            "MATCH (x:Person)-/PREV[1,3]/-(y) ON g",
            "MATCH (x:Person {name = 'a'})-/FWD/:knows/FWD/NEXT*/-(y) ON g",
            "MATCH (x)-/FWD/FWD/BWD/BWD/-(y) ON g",
            "MATCH (x {time < '5'})-/NEXT/NEXT/-(y) ON g",
        ],
    )
    def test_assorted_queries_on_tiny_graph(self, tiny, query):
        reference = ReferenceEngine(tiny).match(query)
        dataflow = DataflowEngine(tiny).match(query)
        assert reference.as_set() == dataflow.as_set()

    def test_random_graphs_agree(self, small_random_graphs):
        queries = [
            "MATCH (x)-[:knows]->(y) ON g",
            "MATCH (x:Person)-/NEXT[0,2]/-(y) ON g",
            "MATCH (x)-/FWD/:visits/FWD/PREV*/-(y) ON g",
        ]
        for graph in small_random_graphs:
            reference = ReferenceEngine(graph)
            dataflow = DataflowEngine(graph)
            for query in queries:
                assert reference.match(query).as_set() == dataflow.match(query).as_set()


class TestStatsAndOutput:
    def test_match_with_stats_fields(self, figure1):
        result = DataflowEngine(figure1).match_with_stats(PAPER_QUERIES["Q8"].text)
        assert result.output_size == len(result.table) == 4
        assert result.total_seconds >= result.interval_seconds >= 0.0
        assert result.frontier_rows >= 1

    def test_as_table_row_keys(self, figure1):
        result = DataflowEngine(figure1).match_with_stats(PAPER_QUERIES["Q1"].text)
        row = result.as_table_row()
        assert set(row) == {"interval-based time (s)", "total time (s)", "output size"}

    def test_interval_only_queries_have_equal_times(self, figure1):
        # For Q1-Q5 the output can stay coalesced: Step 3 only expands the rows.
        result = DataflowEngine(figure1).match_with_stats(PAPER_QUERIES["Q3"].text)
        assert result.output_size == 2

    def test_match_intervals_coalesced_output(self, figure1):
        engine = DataflowEngine(figure1)
        rows = engine.match_intervals("MATCH (x:Person {risk = 'high'}) ON g")
        by_object = {bindings[0][1]: times for bindings, times in rows}
        assert by_object[("n3")] == IntervalSet([(1, 7)])
        assert by_object[("n7")] == IntervalSet([(1, 8)])
        assert by_object[("n2")] == IntervalSet([(5, 9)])

    def test_match_intervals_rejects_temporal_queries(self, figure1):
        # Q6 binds x before and y after the temporal step: their binding
        # times are linked, not shared, so no coalesced output exists.
        engine = DataflowEngine(figure1)
        with pytest.raises(EvaluationError):
            engine.match_intervals(PAPER_QUERIES["Q6"].text)

    def test_match_intervals_covers_single_group_temporal_queries(self, figure1):
        # Q11 navigates through time but binds only x (before the
        # navigation), so its output is a coalesced family per binding —
        # the primary output path, from which match() derives the table.
        engine = DataflowEngine(figure1)
        families = engine.match_intervals(PAPER_QUERIES["Q11"].text)
        expanded = {
            (bindings[0][1], t)
            for bindings, times in families
            for t in times.points()
        }
        pointwise = {
            (obj, t) for ((obj, t),) in engine.match(PAPER_QUERIES["Q11"].text).rows
        }
        assert expanded == pointwise
        assert len(families) == len({bindings for bindings, _ in families})

    def test_rows_merged_stat(self, figure1):
        # Q12's alternation reaches the same (binding, object) through both
        # branches; the frontier merges them instead of carrying both.
        text = PAPER_QUERIES["Q12"].text
        result = DataflowEngine(figure1).match_with_stats(text)
        assert result.rows_merged > 0
        assert result.table.as_set() == ReferenceEngine(figure1).match(text).as_set()

    def test_match_intervals_expansion_matches_pointwise_output(self, figure1):
        engine = DataflowEngine(figure1)
        query = PAPER_QUERIES["Q2"].text
        coalesced = engine.match_intervals(query)
        expanded = {
            (bindings[0][1], t) for bindings, times in coalesced for t in times.points()
        }
        pointwise = {(obj, t) for ((obj, t),) in engine.match(query).rows}
        assert expanded == pointwise


class TestUnsupportedFragment:
    def test_structural_star_rejected(self, figure1):
        engine = DataflowEngine(figure1)
        with pytest.raises(UnsupportedFragmentError):
            engine.match("MATCH (x)-/(FWD/:meets/FWD)*/-(y) ON g")

    def test_reference_engine_still_handles_it(self, figure1):
        # The reference engine covers the full language, so the fallback exists.
        table = ReferenceEngine(figure1).match(
            "MATCH (x:Person {name = 'Ann'})-/(FWD/:meets/FWD)[0,2]/-(y:Person) ON g"
        )
        assert len(table) > 0


class TestInputs:
    def test_accepts_tpg_input(self, figure1_tpg):
        engine = DataflowEngine(figure1_tpg)
        assert len(engine.match(PAPER_QUERIES["Q3"].text)) == 2


class TestConcurrentCalls:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threads_do_not_change_results(self, figure1, threads):
        """Threads released together on one new engine build its index's
        condition tables and array image under concurrent first use and
        answer like a single call on an already built index."""
        graph = contact_tracing_example()
        engine = DataflowEngine(graph)
        single = DataflowEngine(figure1)
        names = ("Q5", "Q9", "Q11")
        barrier = threading.Barrier(threads)
        answers = [None] * threads

        def run(slot):
            barrier.wait(timeout=30)
            answers[slot] = {
                name: engine.match(PAPER_QUERIES[name].text).as_set() for name in names
            }

        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        expected = {name: single.match(PAPER_QUERIES[name].text).as_set() for name in names}
        assert answers == [expected] * threads


class TestGeneratedGraphAgreement:
    def test_small_generated_graph_matches_reference(self):
        from repro.datagen import ContactTracingConfig, TrajectoryConfig, generate_contact_tracing_graph

        config = ContactTracingConfig(
            trajectory=TrajectoryConfig(num_persons=12, num_locations=8, num_rooms=3, seed=3),
            positivity_rate=0.2,
            seed=5,
        )
        graph = generate_contact_tracing_graph(config)
        reference = ReferenceEngine(graph)
        dataflow = DataflowEngine(graph)
        for name in ("Q2", "Q5", "Q6", "Q8", "Q9", "Q11"):
            text = PAPER_QUERIES[name].text
            assert reference.match(text).as_set() == dataflow.match(text).as_set(), name
