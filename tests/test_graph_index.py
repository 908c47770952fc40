"""GraphIndex must answer every query exactly like the uncompiled graph."""

import pytest

from repro.datagen.random_graphs import random_itpg
from repro.dataflow import condition_times
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


def image_row(index, side: str, position: int) -> list:
    """The ``out``/``in`` adjacency row of the array image, as object ids."""
    image = index.columnar_context()
    indptr, ids = getattr(image, f"{side}_indptr"), getattr(image, f"{side}_ids")
    return [index.objects[i] for i in ids[indptr[position] : indptr[position + 1]]]


class TestCompiledStructures:
    def test_adjacency_matches_graph(self, graphs):
        """The image's out/in rows (ascending dense ids) and successor
        arrays against the graph's adjacency and endpoints."""
        for graph in graphs:
            index = GraphIndex(graph)
            image = index.columnar_context()
            for position, obj in enumerate(index.objects):
                outs, ins = image_row(index, "out", position), image_row(index, "in", position)
                for row in (outs, ins):
                    assert row == sorted(row, key=index.object_id.__getitem__)
                if graph.is_node(obj):
                    assert image.is_node[position]
                    assert frozenset(outs) == graph.out_edges(obj)
                    assert frozenset(ins) == graph.in_edges(obj)
                    assert image.succ_fwd[position] == image.succ_bwd[position] == -1
                else:
                    assert not image.is_node[position] and not outs and not ins
                    source, target = graph.endpoints(obj)
                    assert index.objects[image.succ_bwd[position]] == source
                    assert index.objects[image.succ_fwd[position]] == target

    def test_label_buckets_partition_objects(self, graphs):
        for graph in graphs:
            node_buckets, edge_buckets, _ = GraphIndex(graph).buckets()
            for node in graph.nodes():
                assert node in node_buckets[graph.label(node)]
            for edge in graph.edges():
                assert edge in edge_buckets[graph.label(edge)]
            bucketed = {
                obj for members in node_buckets.values() for obj in members
            } | {obj for members in edge_buckets.values() for obj in members}
            assert bucketed == set(graph.objects())

    def test_prop_buckets_cover_assignments(self, graphs):
        for graph in graphs:
            prop_buckets = GraphIndex(graph).buckets()[2]
            for obj in graph.objects():
                for name in graph.property_names(obj):
                    for entry in graph.property_family(obj, name):
                        assert obj in prop_buckets[(name, entry.value)]

    def test_existence_matches_graph(self, graphs):
        """The image's existence CSR against the graph's families."""
        for graph in graphs:
            index = GraphIndex(graph)
            image = index.columnar_context()
            for position, obj in enumerate(index.objects):
                lo, hi = image.ex_indptr[position], image.ex_indptr[position + 1]
                pairs = list(zip(image.ex_start[lo:hi], image.ex_end[lo:hi]))
                assert pairs == [(iv.start, iv.end) for iv in graph.existence(obj)]


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
            assert index.graph.existence(obj) == tpg.existence_intervals(obj)

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
