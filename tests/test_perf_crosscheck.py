"""Cross-checks of the perf layer against the point-based ground truth.

Everything the compiled index changes is an implementation detail: on
every graph and every query, the dataflow engine and the point-based
reference engine must produce the same answers.  The ground truth is
itself cross-checked against the interval-native tuple checkers of the
appendix on random paths and on the hardness gadgets.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datagen import (
    ContactTracingConfig,
    TrajectoryConfig,
    generate_contact_tracing_graph,
)
from repro.datagen.random_graphs import random_itpg, random_path_expression
from repro.datagen.scale import SCALE_FACTORS
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.eval import ReferenceEngine, check_full
from repro.eval.bottom_up import BottomUpEvaluator
from repro.eval.tuple_anoi import ANOIChecker
from repro.eval.tuple_pc import PCChecker
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
            reference = ReferenceEngine(graph).match(text).as_set()
            assert dataflow == reference, (
                f"{name} diverged on shrunk Table-I graph {scale_name} "
                f"(dataflow={len(dataflow)}, reference={len(reference)})"
            )

    @pytest.mark.parametrize("name", ["Q3", "Q5", "Q10", "Q11"])
    def test_threaded_agrees_with_serial(self, table1_graphs, name):
        """Four threads matching on one engine at once each get the
        answer of a call made alone."""
        text = PAPER_QUERIES[name].text
        _scale, graph = table1_graphs[0]
        engine = DataflowEngine(graph)
        serial = engine.match(text).as_set()
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(lambda _: engine.match(text).as_set(), range(8)))
        assert all(answer == serial for answer in answers)


def assert_agrees_with_pc_checker(graph, seeds):
    """Bottom-up relations vs the PC checker on member and random tuples."""
    evaluator = BottomUpEvaluator(graph)
    checker = PCChecker(graph)
    rng = random.Random(0)
    objects, times = list(graph.objects()), list(graph.time_points())
    for seed in seeds:
        path = random_path_expression(
            seed, allow_occurrence_indicators=False, allow_path_conditions=True
        )
        relation = evaluator.evaluate(path)
        members = sorted(relation, key=repr)
        candidates = rng.sample(members, min(25, len(members))) + [
            (rng.choice(objects), rng.choice(times), rng.choice(objects), rng.choice(times))
            for _ in range(25)
        ]
        for o, t, o2, t2 in candidates:
            expected = (o, t, o2, t2) in relation
            assert checker.check(path, (o, t), (o2, t2)) == expected, (path, o, t, o2, t2)


class TestIntervalBottomUp:
    """Bottom-up evaluation over interval graphs is exact with (?path):
    it agrees with the interval-native PC checker (Algorithm 3)."""

    def test_running_example_random_paths(self, figure1):
        assert_agrees_with_pc_checker(figure1, range(20))

    def test_random_graphs_random_paths(self):
        for graph_seed in range(4):
            assert_agrees_with_pc_checker(
                random_itpg(graph_seed), [seed + 50 * graph_seed for seed in range(12)]
            )


class TestHardnessGadgets:
    """The bottom-up algorithm must stay exact on the adversarial reductions."""

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
        relation = BottomUpEvaluator(instance.graph).evaluate(instance.path)
        got = (*instance.source, *instance.target) in relation
        assert got == solve_subset_sum(numbers, target)
        # Full-relation agreement with the ANOI checker, not just the endpoint.
        checker = ANOIChecker(instance.graph)
        objects = list(instance.graph.objects())
        times = list(instance.graph.time_points())
        for o in objects:
            for t in times:
                for o2 in objects:
                    for t2 in times:
                        assert checker.check(instance.path, (o, t), (o2, t2)) == (
                            (o, t, o2, t2) in relation
                        ), (o, t, o2, t2)

    @pytest.mark.parametrize(
        "u,w,target",
        [([2, 3], [1], 5), ([2], [3], 4), ([1, 4], [5], 9)],
    )
    def test_generalized_subset_sum(self, u, w, target):
        instance = gsubset_sum_reduction(u, w, target)
        relation = BottomUpEvaluator(instance.graph).evaluate(instance.path)
        got = (*instance.source, *instance.target) in relation
        assert got == solve_gsubset_sum(u, w, target)
        assert check_full(
            instance.graph, instance.path, instance.source, instance.target
        ) == got
