"""GraphIndex must answer every query exactly like the uncompiled graph."""

import pytest

from repro.datagen.random_graphs import random_itpg
from repro.dataflow.steps import condition_times
from repro.errors import UnsupportedFragmentError
from repro.eval.bottom_up import BottomUpEvaluator
from repro.lang import ast
from repro.model.convert import itpg_to_tpg
from repro.perf import GraphIndex, graph_index_for
from repro.temporal import IntervalSet

CONDITIONS = [
    ast.is_node(),
    ast.is_edge(),
    ast.exists(),
    ast.label("Person"),
    ast.label("meets"),
    ast.prop_eq("risk", "high"),
    ast.prop_eq("test", "pos"),
    ast.time_lt(3),
    ast.time_eq(1),
    ast.and_(ast.is_node(), ast.label("Person"), ast.exists()),
    ast.and_(ast.label("Person"), ast.prop_eq("risk", "low"), ast.exists()),
    ast.or_(ast.label("Person"), ast.label("Room")),
    ast.not_(ast.exists()),
    ast.and_(ast.not_(ast.prop_eq("risk", "low")), ast.exists()),
    ast.TrueTest(),
]


@pytest.fixture(scope="module")
def graphs(request):
    from repro.model.examples import contact_tracing_example, tiny_example

    return [contact_tracing_example(), tiny_example()] + [
        random_itpg(seed) for seed in range(4)
    ]


class TestCompiledStructures:
    def test_adjacency_matches_graph(self, graphs):
        for graph in graphs:
            index = GraphIndex(graph)
            for node in graph.nodes():
                assert frozenset(index.out_adjacency[node]) == graph.out_edges(node)
                assert frozenset(index.in_adjacency[node]) == graph.in_edges(node)
            for edge in graph.edges():
                assert index.edge_source[edge] == graph.source(edge)
                assert index.edge_target[edge] == graph.target(edge)

    def test_label_buckets_partition_objects(self, graphs):
        for graph in graphs:
            index = GraphIndex(graph)
            for node in graph.nodes():
                assert node in index.node_label_buckets[graph.label(node)]
            for edge in graph.edges():
                assert edge in index.edge_label_buckets[graph.label(edge)]
            bucketed = {
                obj
                for members in index.node_label_buckets.values()
                for obj in members
            } | {
                obj
                for members in index.edge_label_buckets.values()
                for obj in members
            }
            assert bucketed == set(graph.objects())

    def test_prop_buckets_cover_assignments(self, graphs):
        for graph in graphs:
            index = GraphIndex(graph)
            for obj in graph.objects():
                for name in graph.property_names(obj):
                    for entry in graph.property_family(obj, name):
                        assert obj in index.prop_value_buckets[(name, entry.value)]

    def test_existence_is_shared(self, graphs):
        for graph in graphs:
            index = GraphIndex(graph)
            for obj in graph.objects():
                assert index.existence[obj] == graph.existence(obj)


class TestConditionEvaluation:
    @pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
    def test_times_for_matches_condition_times(self, graphs, condition):
        """Per object — including the ones absent from the table — the
        index's times equal ``condition_times`` and the point oracle."""
        for graph in graphs:
            index = GraphIndex(graph)
            table = index.condition_table(condition)
            oracle = BottomUpEvaluator(graph)
            for obj in graph.objects():
                times = table.get(obj, IntervalSet.empty())
                assert times == condition_times(graph, obj, condition), (obj, condition)
                points = [
                    t for t in graph.time_points() if oracle.satisfies(obj, t, condition)
                ]
                assert times == IntervalSet.from_points(points), (obj, condition)

    @pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
    def test_condition_table_is_exact(self, graphs, condition):
        """Bucket narrowing must never drop a satisfying object."""
        for graph in graphs:
            index = GraphIndex(graph)
            expected = {}
            for obj in graph.objects():
                times = condition_times(graph, obj, condition)
                if not times.is_empty():
                    expected[obj] = times
            assert index.condition_table(condition) == expected

    def test_condition_table_memoized(self, graphs):
        index = GraphIndex(graphs[0])
        condition = ast.and_(ast.label("Person"), ast.exists())
        assert index.condition_table(condition) is index.condition_table(condition)

    def test_path_condition_has_no_table(self, graphs):
        index = GraphIndex(graphs[0])
        condition = ast.path_test(ast.F)
        with pytest.raises(UnsupportedFragmentError):
            index.condition_table(condition)


class TestSharedCache:
    def test_same_graph_same_index(self):
        graph = random_itpg(0)
        assert graph_index_for(graph) is graph_index_for(graph)

    def test_distinct_graphs_distinct_indexes(self):
        assert graph_index_for(random_itpg(1)) is not graph_index_for(random_itpg(2))

    def test_point_based_graph_is_converted(self):
        itpg = random_itpg(3)
        tpg = itpg_to_tpg(itpg)
        index = graph_index_for(tpg)
        assert index is graph_index_for(tpg)
        assert set(index.objects) == set(tpg.objects())
        for obj in tpg.objects():
            assert index.existence[obj] == tpg.existence_intervals(obj)

    def test_engines_on_one_point_graph_share_the_index(self):
        from repro.dataflow import DataflowEngine

        tpg = itpg_to_tpg(random_itpg(4))
        first = DataflowEngine(tpg)
        second = DataflowEngine(tpg)
        assert first.index is second.index
        assert first.graph is second.graph  # the one-time conversion is reused

    def test_index_dies_with_its_graph(self):
        import gc
        import weakref

        graph = random_itpg(5)
        ref = weakref.ref(graph)
        graph_index_for(graph)
        del graph
        gc.collect()
        assert ref() is None
