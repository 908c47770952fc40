"""Cross-checks of the perf layer against the point-based ground truth.

Everything the compiled index and the interval-native relations change is
an implementation detail: on every graph and every expression, the
dataflow engine, the interval bottom-up evaluator and the point-based
reference engines must produce the same answers.
"""

import pytest

from repro.datagen import (
    ContactTracingConfig,
    TrajectoryConfig,
    generate_contact_tracing_graph,
)
from repro.datagen.random_graphs import random_itpg, random_path_expression
from repro.datagen.scale import SCALE_FACTORS
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.eval import ReferenceEngine
from repro.eval.bottom_up import BottomUpEvaluator
from repro.perf import IntervalBottomUpEvaluator
from repro.reductions import (
    gsubset_sum_reduction,
    solve_gsubset_sum,
    solve_subset_sum,
    subset_sum_reduction,
)


class TestDataflowIndexedVsReference:
    """The compiled index must be an invisible optimization."""

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (x) ON g",
            "MATCH (x:Person)-[:knows]->(y) ON g",
            "MATCH (x {risk = 'high'})-/NEXT[1,3]/-(y) ON g",
            "MATCH (x)-/FWD/BWD/-(y) ON g",
            "MATCH (x:Person)-/PREV*/-(y:Person) ON g",
        ],
    )
    def test_random_graphs(self, small_random_graphs, query):
        for graph in small_random_graphs:
            indexed = DataflowEngine(graph).match(query)
            reference = ReferenceEngine(graph).match(query)
            assert indexed.as_set() == reference.as_set()

    def test_workers_with_index(self, figure1):
        query = PAPER_QUERIES["Q5"].text
        serial = DataflowEngine(figure1, workers=1).match(query)
        parallel = DataflowEngine(figure1, workers=4).match(query)
        assert serial.as_set() == parallel.as_set()


class TestTableOneSweep:
    """Q1–Q12 on Table-I generator graphs, dataflow vs reference.

    The Table-II mix above runs on the paper's running example; this
    sweep uses the contact-tracing generator behind the Table-I scale
    factors (at test-sized counts) so the coalescing frontier is
    cross-checked on the same graph family the benchmarks measure.
    """

    @pytest.fixture(scope="class")
    def table1_graphs(self):
        graphs = []
        for scale_name in ("S1", "S2"):
            base = SCALE_FACTORS[scale_name]
            config = ContactTracingConfig(
                trajectory=TrajectoryConfig(
                    num_persons=max(8, base.num_persons // 12),
                    num_locations=max(5, base.num_locations // 12),
                    num_rooms=max(2, base.num_rooms // 6),
                    num_windows=24,
                    seed=13,
                ),
                positivity_rate=0.2,
                seed=13,
            )
            graphs.append((scale_name, generate_contact_tracing_graph(config)))
        return graphs

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_paper_query_matches_reference(self, table1_graphs, name):
        text = PAPER_QUERIES[name].text
        for scale_name, graph in table1_graphs:
            dataflow = DataflowEngine(graph).match(text).as_set()
            reference = ReferenceEngine(graph, use_intervals=True).match(text).as_set()
            assert dataflow == reference, (
                f"{name} diverged on shrunk Table-I graph {scale_name} "
                f"(dataflow={len(dataflow)}, reference={len(reference)})"
            )

    @pytest.mark.parametrize("name", ["Q3", "Q5", "Q10", "Q11"])
    def test_threaded_agrees_with_serial(self, table1_graphs, name):
        text = PAPER_QUERIES[name].text
        _scale, graph = table1_graphs[0]
        serial = DataflowEngine(graph).match(text)
        threaded = DataflowEngine(graph, workers=4).match(text)
        assert serial.as_set() == threaded.as_set()


class TestIntervalBottomUp:
    """The interval evaluator is exact on every fragment, including (?path)."""

    def test_running_example_random_paths(self, figure1):
        point = BottomUpEvaluator(figure1)
        interval = IntervalBottomUpEvaluator(figure1)
        for seed in range(20):
            path = random_path_expression(seed, allow_path_conditions=True)
            assert interval.evaluate_points(path) == point.evaluate(path), path

    def test_random_graphs_random_paths(self):
        for graph_seed in range(4):
            graph = random_itpg(graph_seed)
            point = BottomUpEvaluator(graph)
            interval = IntervalBottomUpEvaluator(graph)
            for seed in range(12):
                path = random_path_expression(
                    seed + 50 * graph_seed, allow_path_conditions=True
                )
                assert interval.evaluate_points(path) == point.evaluate(path), path

    def test_fast_mode_flag_on_bottom_up(self, figure1):
        fast = BottomUpEvaluator(figure1, use_intervals=True)
        slow = BottomUpEvaluator(figure1)
        for seed in range(10):
            path = random_path_expression(seed, allow_path_conditions=True)
            assert fast.evaluate(path) == slow.evaluate(path), path

    def test_fast_mode_flag_on_reference_engine(self, figure1):
        for name in ("Q1", "Q5", "Q6", "Q10"):
            text = PAPER_QUERIES[name].text
            fast = ReferenceEngine(figure1, use_intervals=True).match(text)
            slow = ReferenceEngine(figure1).match(text)
            assert fast.as_set() == slow.as_set()


class TestHardnessGadgets:
    """The interval algebra must stay exact on the adversarial reductions."""

    @pytest.mark.parametrize(
        "numbers,target",
        [
            ([3, 5, 7], 12),
            ([3, 5, 7], 11),
            ([2, 4, 6], 7),
            ([1, 2, 3, 4], 10),
            ([], 0),
        ],
    )
    def test_subset_sum(self, numbers, target):
        instance = subset_sum_reduction(numbers, target)
        evaluator = IntervalBottomUpEvaluator(instance.graph)
        relation = evaluator.evaluate(instance.path)
        expected = solve_subset_sum(numbers, target)
        got = (*instance.source, *instance.target) in relation
        assert got == expected
        # Full-relation agreement with the ground truth, not just the endpoint.
        assert relation.to_temporal_relation() == BottomUpEvaluator(
            instance.graph
        ).evaluate(instance.path)

    @pytest.mark.parametrize(
        "u,w,target",
        [([2, 3], [1], 5), ([2], [3], 4), ([1, 4], [5], 9)],
    )
    def test_generalized_subset_sum(self, u, w, target):
        instance = gsubset_sum_reduction(u, w, target)
        evaluator = IntervalBottomUpEvaluator(instance.graph)
        got = (*instance.source, *instance.target) in evaluator.evaluate(instance.path)
        assert got == solve_gsubset_sum(u, w, target)
