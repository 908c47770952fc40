"""Tests for the kernel's temporal links and the paper-query registry."""

import numpy as np
import pytest

from repro.dataflow import DataflowEngine
from repro.dataflow.queries import PAPER_QUERIES, get_query, query_names
from repro.dataflow.steps import TemporalStep
from repro.lang import parse_match
from repro.perf import columnar
from repro.temporal import IntervalSet


def _run_ops(graph, state, *ops):
    """``state`` after the kernel runs ``ops`` (bounds-free, as planned)."""
    ctx = DataflowEngine(graph).index.columnar_context()
    return columnar._Kernel(ctx).run(state, columnar._push_bounds(ops, ()))


def _seed(graph, *objects):
    """A one-group frontier: one row per object, under the domain times."""
    ctx = DataflowEngine(graph).index.columnar_context()
    return columnar.seed_state(ctx, columnar.plan_query(()), objects)


def _objects(graph, ids) -> list:
    return [DataflowEngine(graph).index.objects[i] for i in ids.tolist()]


class TestGroupAndRow:
    """The kernel's frontier rows: current object, bindings, one
    coalesced family per row, temporal groups frozen behind the rows."""

    def test_initial_row(self, figure1):
        row = _seed(figure1, "n1")
        assert _objects(figure1, row.cur) == ["n1"]
        assert row.names == () and row.link is None and row.src is None
        assert (row.start.tolist(), row.end.tolist()) == ([1], [11])

    def test_bind_adds_binding(self, figure1):
        bound = _run_ops(figure1, _seed(figure1, "n1"), ("bind", "x"))
        assert bound.names == ("x",)
        assert _objects(figure1, bound.cols[0]) == ["n1"]
        assert _objects(figure1, bound.cur) == ["n1"]

    def test_with_current_and_times(self, figure1):
        moved = _run_ops(figure1, _seed(figure1, "n1"), ("bind", "x"), ("struct", True))
        # One row per outgoing edge, each still binding x to n1 and
        # carrying n1's family.
        assert sorted(_objects(figure1, moved.cur)) == sorted(figure1.out_edges("n1"))
        assert _objects(figure1, moved.cols[0]) == ["n1"] * moved.rows
        assert moved.owner.tolist() == list(range(moved.rows))
        assert set(zip(moved.start.tolist(), moved.end.tolist())) == {(1, 11)}

    def test_row_replace_and_append(self, figure1):
        step = TemporalStep(forward=True, lower=0, upper=None)
        row = _run_ops(figure1, _seed(figure1, "n1"), ("bind", "x"), ("temporal", step))
        frozen, link = row.link
        assert link is step
        assert frozen.names == ("x",) and frozen.link is None
        assert row.src.tolist() == [0]  # the row navigated from frozen row 0

    def test_dead_row(self, figure1):
        # n4 (a Room) never satisfies the test: its row is compacted away.
        from repro.lang import ast

        state = _run_ops(figure1, _seed(figure1, "n1", "n4"), ("test", ast.label("Person")))
        assert _objects(figure1, state.cur) == ["n1"]


def _reach(graph, obj, anchors, forward, lower, upper, contiguous) -> IntervalSet:
    """Every time the kernel's temporal step reaches on ``obj`` from the
    ``(start, end)`` anchor intervals."""
    ctx = DataflowEngine(graph).index.columnar_context()
    step = TemporalStep(
        forward=forward, lower=lower, upper=upper, require_existence=contiguous
    )
    start, end = (np.array(part, dtype=np.int64) for part in zip(*anchors))
    _owner, reached_start, reached_end = columnar._Kernel(ctx)._targets(
        step,
        np.array([ctx.object_id[obj]], dtype=np.int64),
        np.zeros(len(anchors), dtype=np.int64),
        start,
        end,
    )
    return IntervalSet(list(zip(reached_start.tolist(), reached_end.tolist())))


class TestTemporalLink:
    """The times a temporal step links: ``lower <= delta <= upper`` moves,
    and with ``contiguous`` every visited point (the anchor excluded)
    inside the object's existence."""

    def test_forward_bounds(self, figure1):
        assert _reach(figure1, "n6", [(5, 5)], True, 1, 3, False) == IntervalSet([(6, 8)])

    def test_backward_bounds(self, figure1):
        assert _reach(figure1, "n6", [(8, 8)], False, 0, 2, False) == IntervalSet([(6, 8)])

    def test_contiguity_requires_same_existence_run(self, figure1):
        # n2 exists during [1, 9]: the run ends the reach.
        assert _reach(figure1, "n2", [(5, 5)], True, 0, None, True) == IntervalSet([(5, 9)])

    def test_unbounded_upper(self, figure1):
        # Unbounded: up to the end of the domain [1, 11].
        assert _reach(figure1, "n1", [(1, 1)], True, 2, None, False) == IntervalSet([(3, 11)])

    def test_enumerate_times_respects_links(self, figure1):
        # Per anchor time in [7, 9], the linked times in [8, 10].
        def linked(t):
            reach = _reach(figure1, "n6", [(t, t)], True, 1, 2, True)
            return set(reach.intersect(IntervalSet([(8, 10)])).points())

        assert linked(7) == {8, 9}
        assert linked(8) == {9, 10}
        assert linked(9) == {10}  # delta 0 < lower; delta 3 > upper from 7


class TestPaperQueryRegistry:
    def test_twelve_queries_in_order(self):
        assert query_names() == [f"Q{i}" for i in range(1, 13)]

    def test_all_queries_parse(self):
        for query in PAPER_QUERIES.values():
            parsed = parse_match(query.text)
            assert parsed.graph_name == "contact_tracing"

    def test_temporal_navigation_flags(self):
        assert not PAPER_QUERIES["Q5"].uses_temporal_navigation
        assert PAPER_QUERIES["Q6"].uses_temporal_navigation
        assert PAPER_QUERIES["Q9"].uses_positivity
        assert not PAPER_QUERIES["Q2"].uses_positivity

    def test_with_bound_rewrites_indicator(self):
        q11 = get_query("Q11", temporal_bound=24)
        assert "[0,24]" in q11.text and "[0,12]" not in q11.text
        assert q11.temporal_bound == 24

    def test_with_bound_on_unbounded_query_rejected(self):
        with pytest.raises(ValueError):
            get_query("Q9", temporal_bound=5)

    def test_get_query_passthrough(self):
        assert get_query("Q3") is PAPER_QUERIES["Q3"]

    def test_bound_rewrite_changes_results(self, figure1):
        from repro.dataflow import DataflowEngine

        engine = DataflowEngine(figure1)
        narrow = engine.match(get_query("Q11", temporal_bound=1).text)
        wide = engine.match(get_query("Q11", temporal_bound=12).text)
        assert narrow.as_set() <= wide.as_set()
        assert len(narrow) < len(wide)
