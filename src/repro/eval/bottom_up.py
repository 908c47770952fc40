"""Bottom-up polynomial-time evaluation over point-based TPGs (Theorem C.1).

The evaluator walks the parse tree of a NavL[PC,NOI] expression and
computes, for every node, the temporal relation it denotes — exactly the
algorithm described in Appendix C.A: leaves (basic tests and axes) are
materialized directly, inner nodes combine the child relations with
union / composition / repetition-by-squaring, and path conditions are
evaluated by projecting the sub-relation onto its starting objects.

This engine is the semantic ground truth of the library: every other
engine is cross-checked against it in the test suite, so it stays the
plain point-based algorithm — obviously right rather than fast.  Its
complexity is ``Õ(|path|² · M²)`` with ``M = |Ω| · (|N| + |E|)``, so it
is only meant for small graphs (unit tests, the running example,
hardness gadgets).
"""

from __future__ import annotations

from typing import Hashable, Union as TypingUnion

from repro.lang.ast import (
    AndTest,
    Axis,
    Concat,
    EdgeTest,
    ExistsTest,
    LabelTest,
    NodeTest,
    NotTest,
    OrTest,
    PathExpr,
    PathTest,
    PropEq,
    Repeat,
    Test,
    TestPath,
    TimeLt,
    TrueTest,
    Union,
)
from repro.model.convert import itpg_to_tpg
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.eval.relation import TemporalRelation

ObjectId = Hashable
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]


class BottomUpEvaluator:
    """Evaluates NavL[PC,NOI] expressions over a single TPG, with memoization.

    The evaluator caches the relation of every sub-expression it has
    seen, so repeated sub-expressions (common once MATCH clauses are
    compiled) are only evaluated once per graph.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        if isinstance(graph, IntervalTPG):
            graph = itpg_to_tpg(graph)
        self._graph = graph
        self._cache: dict[PathExpr, TemporalRelation] = {}
        self._identity: TemporalRelation | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> TemporalPropertyGraph:
        return self._graph

    def evaluate(self, path: PathExpr) -> TemporalRelation:
        """The relation ``JpathK_G`` as a :class:`TemporalRelation`."""
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        relation = self._evaluate(path)
        self._cache[path] = relation
        return relation

    def satisfies(self, obj: ObjectId, t: int, condition: Test) -> bool:
        """Whether the temporal object ``(obj, t)`` satisfies ``condition``."""
        graph = self._graph
        if isinstance(condition, NodeTest):
            return graph.is_node(obj)
        if isinstance(condition, EdgeTest):
            return graph.is_edge(obj)
        if isinstance(condition, LabelTest):
            return graph.label(obj) == condition.label
        if isinstance(condition, PropEq):
            value = graph.property_value(obj, condition.prop, t)
            return value is not None and value == condition.value
        if isinstance(condition, TimeLt):
            return t < condition.bound
        if isinstance(condition, ExistsTest):
            return graph.exists(obj, t)
        if isinstance(condition, TrueTest):
            return True
        if isinstance(condition, AndTest):
            return all(self.satisfies(obj, t, part) for part in condition.parts)
        if isinstance(condition, OrTest):
            return any(self.satisfies(obj, t, part) for part in condition.parts)
        if isinstance(condition, NotTest):
            return not self.satisfies(obj, t, condition.inner)
        if isinstance(condition, PathTest):
            return (obj, t) in self.evaluate(condition.path).source_project()
        raise TypeError(f"unknown test {condition!r}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _identity_relation(self) -> TemporalRelation:
        if self._identity is None:
            graph = self._graph
            self._identity = TemporalRelation(
                (o, t, o, t) for o in graph.objects() for t in graph.time_points()
            )
        return self._identity

    def _evaluate(self, path: PathExpr) -> TemporalRelation:
        if isinstance(path, Axis):
            return self._evaluate_axis(path)
        if isinstance(path, TestPath):
            return self._evaluate_test_path(path.condition)
        if isinstance(path, Concat):
            relation = self.evaluate(path.parts[0])
            for part in path.parts[1:]:
                relation = relation.compose(self.evaluate(part))
            return relation
        if isinstance(path, Union):
            relation = self.evaluate(path.parts[0])
            for part in path.parts[1:]:
                relation = relation.union(self.evaluate(part))
            return relation
        if isinstance(path, Repeat):
            body = self.evaluate(path.body)
            identity = self._identity_relation()
            if path.upper is None:
                return body.unbounded_repetition(path.lower, identity)
            return body.bounded_repetition(path.lower, path.upper, identity)
        raise TypeError(f"unknown path expression {path!r}")

    def _evaluate_axis(self, axis: Axis) -> TemporalRelation:
        graph = self._graph
        times = graph.time_points()
        tuples: set[tuple[ObjectId, int, ObjectId, int]] = set()
        if axis.kind == "F":
            for edge in graph.edges():
                src, tgt = graph.endpoints(edge)
                for t in times:
                    tuples.add((src, t, edge, t))
                    tuples.add((edge, t, tgt, t))
        elif axis.kind == "B":
            for edge in graph.edges():
                src, tgt = graph.endpoints(edge)
                for t in times:
                    tuples.add((tgt, t, edge, t))
                    tuples.add((edge, t, src, t))
        elif axis.kind == "N":
            for obj in graph.objects():
                for t in times:
                    if t + 1 in graph.domain:
                        tuples.add((obj, t, obj, t + 1))
        elif axis.kind == "P":
            for obj in graph.objects():
                for t in times:
                    if t - 1 in graph.domain:
                        tuples.add((obj, t, obj, t - 1))
        else:  # pragma: no cover - Axis validates its kind
            raise TypeError(f"unknown axis {axis!r}")
        return TemporalRelation(tuples)

    def _evaluate_test_path(self, condition: Test) -> TemporalRelation:
        graph = self._graph
        tuples = [
            (o, t, o, t)
            for o in graph.objects()
            for t in graph.time_points()
            if self.satisfies(o, t, condition)
        ]
        return TemporalRelation(tuples)


def evaluate_path(graph: TemporalGraph, path: PathExpr) -> frozenset:
    """Evaluate ``path`` over ``graph`` and return the set of ``(o, t, o', t')`` tuples.

    Convenience wrapper around :class:`BottomUpEvaluator` for one-shot
    evaluations; build the evaluator directly when several expressions
    are evaluated over the same graph, so that the memoization cache is
    shared.
    """
    return BottomUpEvaluator(graph).evaluate(path).tuples
