"""Interval-based MATCH evaluation against the point-based oracle.

The dataflow engine (§VI) evaluates MATCH over interval families;
:class:`~repro.eval.engine.ReferenceEngine` offers a first-class
``match_intervals`` mirroring the dataflow API, derived from its
point-based MATCH frontier.  These tests pin:

* the offset representation of temporal navigation (binding times
  relate to each other by the fixed offsets of the temporal links);
* exact agreement of the interval-based ``match`` with the point-mode
  ground truth, and of the oracle's frontier join with the composed
  path relation on the reference-only fragment (path conditions);
* ``match_intervals``: canonical families, exact expansion, agreement
  with the dataflow engine and the dynamic per-row definedness check
  (group-spanning bindings are rejected; an empty result never is);
* a fully hand-checkable instance.
"""

from __future__ import annotations

import pytest

from repro.datagen.random_graphs import (
    random_itpg,
    random_match_query,
    random_path_expression,
)
from repro.dataflow import DataflowEngine
from repro.errors import EvaluationError
from repro.eval import ReferenceEngine
from repro.eval.bindings import expand_match_families
from repro.eval.bottom_up import BottomUpEvaluator
from repro.lang import ast
from repro.lang.parser import MatchQuery, NodePattern, PathPattern
from repro.lang.translate import compile_match
from repro.temporal import Interval, IntervalSet


def pc_query(path, bind_second=True, text="<pc>"):
    """A two-element MATCH joined by an arbitrary NavL path connector."""
    return MatchQuery(
        elements=(
            NodePattern(variable="x"),
            NodePattern(variable="y" if bind_second else None),
        ),
        connectors=(PathPattern(path=path, source_text=text),),
        graph_name="g",
        text=text,
    )


def dataflow_frontier(kernel_steps, graph, query):
    """The kernel's frontier after Steps 1–2 (before Step 3)."""
    state = None
    for _op, state in kernel_steps(DataflowEngine(graph), query):
        pass
    return state


def links(state) -> list:
    """The temporal steps linking the frontier's groups, first to last."""
    steps = []
    while state.link is not None:
        state, step = state.link
        steps.append(step)
    return steps[::-1]


class TestOffsetFrontier:
    """Temporal navigation relates binding times by fixed offsets."""

    def test_temporal_axis_shifts_offsets(self, kernel_steps):
        graph = random_itpg(0)
        query = pc_query(ast.N, text="<n>")
        table = ReferenceEngine(graph).match(query)
        assert table
        for (x, x_time), (y, y_time) in table:
            # x was bound one N-move before y, on the same object.
            assert x == y and x_time == y_time - 1
        frontier = dataflow_frontier(kernel_steps, graph, query)
        assert frontier.rows
        (link,) = links(frontier)
        assert (link.forward, link.lower, link.upper) == (True, 1, 1)
        # x lives in the frozen group, y in the live one.
        frozen, _step = frontier.link
        assert frozen.names == ("x",) and frontier.names == ("x", "y")
        assert DataflowEngine(graph).match(query).as_set() == table.as_set()

    def test_cancelling_moves_return_to_zero_offset(self, kernel_steps):
        graph = random_itpg(0)
        query = pc_query(ast.concat(ast.N, ast.P), text="<np>")
        table = ReferenceEngine(graph).match(query)
        assert table
        for (_x, x_time), (_y, y_time) in table:
            assert x_time == y_time
        frontier = dataflow_frontier(kernel_steps, graph, query)
        assert frontier.rows
        assert [link.forward for link in links(frontier)] == [True, False]
        for (_x, x_time), (_y, y_time) in DataflowEngine(graph).match(query):
            assert x_time == y_time

    def test_frontier_families_are_coalesced(self, kernel_steps):
        checked = 0
        for graph_seed in range(6):
            graph = random_itpg(graph_seed)
            for query_seed in range(40, 46):
                state = dataflow_frontier(
                    kernel_steps, graph, random_match_query(query_seed)
                )
                while state is not None:  # the live group, then the frozen ones
                    owner, start, end = state.family
                    checked += state.rows
                    assert set(owner.tolist()) == set(range(state.rows))
                    same = owner[1:] == owner[:-1]
                    assert (start[1:][same] - end[:-1][same] > 1).all()
                    state = None if state.link is None else state.link[0]
        assert checked, "every sampled frontier was empty"


class TestIntervalModeMatch:
    """The interval-based dataflow ``match`` equals the point-mode ground truth."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_queries_agree(self, seed):
        graph = random_itpg(seed)
        reference, dataflow = ReferenceEngine(graph), DataflowEngine(graph)
        rows = 0
        for offset in range(6):
            query = random_match_query(seed * 131 + 5 + offset)
            point = reference.match(query)
            interval = dataflow.match(query)
            assert point.variables == interval.variables
            assert point.as_set() == interval.as_set(), query.text
            rows += len(point)
        assert rows, "every sampled query had an empty answer"

    @pytest.mark.parametrize("seed", range(6))
    def test_reference_only_fragment_agrees(self, seed):
        # Path conditions are outside the dataflow fragment; the oracle's
        # frontier join must still equal the composed path relation.
        graph = random_itpg(seed)
        path = random_path_expression(5500 + seed, allow_path_conditions=True)
        query = pc_query(path, text=f"<pc-{seed}>")
        relation = BottomUpEvaluator(graph).evaluate(compile_match(query).full_path())
        expected = {((o, t), (o2, t2)) for o, t, o2, t2 in relation}
        assert ReferenceEngine(graph).match(query).as_set() == expected

    def test_unbound_elements_and_empty_variable_lists(self):
        graph = random_itpg(2)
        query = MatchQuery(
            elements=(NodePattern(variable=None), NodePattern(variable=None)),
            connectors=(PathPattern(path=ast.F, source_text="<f>"),),
            graph_name="g",
            text="<anon>",
        )
        point = ReferenceEngine(graph).match(query)
        interval = DataflowEngine(graph).match(query)
        assert point.variables == interval.variables == ()
        assert point.as_set() == interval.as_set()


class TestReferenceMatchIntervals:
    """ReferenceEngine.match_intervals mirrors the dataflow API."""

    def test_families_expand_to_match_rows(self, figure1):
        engine = ReferenceEngine(figure1)
        query = "MATCH (x:Person {risk = 'high'}) ON g"
        table = engine.match(query)
        families = engine.match_intervals(query)
        bindings = [b for b, _times in families]
        assert len(bindings) == len(set(bindings))
        assert expand_match_families(families, table.variables) == table.as_set()

    def test_agrees_with_dataflow_families(self, figure1):
        engine = ReferenceEngine(figure1)
        dataflow = DataflowEngine(figure1)
        query = "MATCH (x:Person)-[z:meets]->(y:Person) ON g"
        mine = sorted(
            ((b, tuple(ts.intervals)) for b, ts in engine.match_intervals(query)),
            key=repr,
        )
        theirs = sorted(
            ((b, tuple(ts.intervals)) for b, ts in dataflow.match_intervals(query)),
            key=repr,
        )
        assert mine == theirs

    def test_rejects_group_spanning_bindings(self):
        graph = random_itpg(4)
        engine = ReferenceEngine(graph)
        query = pc_query(ast.N, text="<n>")
        # x and y are bound one temporal move apart: no shared time axis.
        if engine.match(query):
            with pytest.raises(EvaluationError):
                engine.match_intervals(query)

    def test_definedness_is_per_output_row(self):
        # An empty result never raises: with no output rows there is
        # nothing that fails to coalesce.
        graph = random_itpg(4)
        never = MatchQuery(
            elements=(
                NodePattern(variable="x", condition=ast.prop_eq("risk", "none")),
                NodePattern(variable="y"),
            ),
            connectors=(PathPattern(path=ast.N, source_text="<n>"),),
            graph_name="g",
            text="<never>",
        )
        engine = ReferenceEngine(graph)
        assert engine.match(never).is_empty()
        assert engine.match_intervals(never) == []


class TestHandBuiltGraph:
    """A fully hand-checkable two-segment family."""

    def test_two_segment_family(self):
        from repro.model.itpg import IntervalTPG

        graph = IntervalTPG(Interval(0, 6))
        graph.add_node("a", "Person", IntervalSet([(0, 4)]))
        graph.add_node("b", "Person", IntervalSet([(2, 6)]))
        graph.add_edge("e", "meets", "a", "b", IntervalSet([(2, 4)]))
        graph.validate()
        query = "MATCH (x:Person)-[:meets]->(y:Person) ON g"
        families = ReferenceEngine(graph).match_intervals(query)
        assert families == [((("x", "a"), ("y", "b")), IntervalSet([(2, 4)]))]
