"""Interval-native bottom-up evaluation of NavL[PC,NOI] expressions.

:class:`IntervalBottomUpEvaluator` runs the same parse-tree recursion as
:class:`~repro.eval.bottom_up.BottomUpEvaluator` — leaves are
materialized, inner nodes combine child relations with union /
composition / repetition — but every intermediate relation is an
:class:`~repro.perf.interval_relation.IntervalRelation`, so the cost of
each step scales with the number of maximal diagonal intervals instead
of the number of time points.  The two evaluators compute *identical*
point relations (the test suite cross-checks them on the running
example, random graphs and the hardness gadgets); this one is the fast
mode behind ``BottomUpEvaluator(graph, use_intervals=True)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Union as TypingUnion

from repro.errors import EvaluationError
from repro.lang.ast import (
    Axis,
    Concat,
    PathExpr,
    PathTest,
    Repeat,
    Test,
    TestPath,
    Union,
)
from repro.lang.translate import CompiledMatch
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.eval.bindings import Family
from repro.eval.relation import TemporalRelation
from repro.perf.graph_index import GraphIndex, graph_index_for
from repro.perf.interval_relation import IntervalRelation
from repro.temporal.interval import Interval
from repro.temporal.intervalset import IntervalSet, IntervalSetAccumulator

ObjectId = Hashable
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]

#: One coalesced MATCH output entry: variable bindings plus the shared
#: family of matching times.  The canonical alias lives in
#: :mod:`repro.eval.bindings` (structurally identical to
#: :data:`repro.dataflow.frontier.IntervalFamily`, kept separate only
#: so neither ground-truth layer depends on the dataflow engine).
MatchFamily = Family

#: One interval-native MATCH frontier entry key: the bindings made so
#: far, each binding's time offset relative to the current time, and the
#: current object.  The mapped value is the coalesced family of current
#: times.
FrontierKey = tuple[tuple[tuple[str, ObjectId], ...], tuple[int, ...], ObjectId]


class IntervalBottomUpEvaluator:
    """Bottom-up evaluation on coalesced diagonal relations, with memoization."""

    def __init__(self, graph: TemporalGraph | GraphIndex) -> None:
        self._index = graph if isinstance(graph, GraphIndex) else graph_index_for(graph)
        self._cache: dict[PathExpr, IntervalRelation] = {}
        self._identity: IntervalRelation | None = None

    @property
    def index(self) -> GraphIndex:
        return self._index

    @property
    def graph(self) -> IntervalTPG:
        return self._index.graph

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate(self, path: PathExpr) -> IntervalRelation:
        """The relation ``JpathK_G`` in the diagonal-interval representation."""
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        relation = self._evaluate(path)
        self._cache[path] = relation
        return relation

    def evaluate_points(self, path: PathExpr) -> TemporalRelation:
        """The relation expanded to point tuples (for cross-checks/output)."""
        return self.evaluate(path).to_temporal_relation()

    def condition_times(self, obj: ObjectId, condition: Test) -> IntervalSet:
        """Times at which ``(obj, t)`` satisfies ``condition`` (path conditions ok)."""
        return self._index.times_for(obj, condition, self._resolve_path_test)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _identity_relation(self) -> IntervalRelation:
        if self._identity is None:
            self._identity = IntervalRelation.identity(
                self._index.objects, self._index.domain
            )
        return self._identity

    def _resolve_path_test(self, condition: PathTest) -> dict[ObjectId, IntervalSet]:
        return self.evaluate(condition.path).source_project()

    def _evaluate(self, path: PathExpr) -> IntervalRelation:
        if isinstance(path, Axis):
            return self._evaluate_axis(path)
        if isinstance(path, TestPath):
            table = self._index.condition_table(
                path.condition, self._resolve_path_test
            )
            return IntervalRelation.from_diagonals(
                (obj, obj, 0, times) for obj, times in table.items()
            )
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

    def _evaluate_axis(self, axis: Axis) -> IntervalRelation:
        """Axes as diagonals over the full domain (point semantics, Appendix C).

        Structural axes relate endpoints at equal times for *every* time
        point; temporal axes shift by one point; existence filtering, if
        any, comes from the surrounding tests.
        """
        index = self._index
        domain = index.domain
        full = IntervalSet((domain,))
        entries: list[tuple[ObjectId, ObjectId, int, IntervalSet]] = []
        if axis.kind in ("F", "B"):
            for edge, src in index.edge_source.items():
                tgt = index.edge_target[edge]
                if axis.kind == "F":
                    entries.append((src, edge, 0, full))
                    entries.append((edge, tgt, 0, full))
                else:
                    entries.append((tgt, edge, 0, full))
                    entries.append((edge, src, 0, full))
        else:
            delta = 1 if axis.kind == "N" else -1
            if domain.start == domain.end:
                return IntervalRelation.empty()
            anchors = IntervalSet(
                (
                    Interval(domain.start, domain.end - 1)
                    if axis.kind == "N"
                    else Interval(domain.start + 1, domain.end),
                )
            )
            entries.extend((obj, obj, delta, anchors) for obj in index.objects)
        return IntervalRelation.from_diagonals(entries)


class IntervalMatchEvaluator:
    """MATCH-segment composition on coalesced diagonal relations.

    The reference engine's MATCH evaluation advances a frontier of
    partial bindings through the compiled segments.  Done on point
    relations, each advance is a hash join over ``(o, t)`` tuples, so
    the frontier — and every join — scales with the number of time
    points.  This composer keeps the frontier interval-native: because
    every segment relation is a union of diagonals
    ``{(o, t, o', t + δ)}``, each binding's time relates to the current
    time by a *fixed offset* along any composition of diagonals.  A
    frontier entry is therefore keyed by ``(bindings, offsets, current
    object)`` and carries one coalesced family of current times; a
    segment advance is one interval intersection and shift per matching
    diagonal (:meth:`IntervalRelation.by_source`), and signature-equal
    entries merge eagerly through an
    :class:`~repro.temporal.intervalset.IntervalSetAccumulator` — the
    same coalescing discipline as the dataflow engine's set-at-a-time
    frontier.

    Point rows (:meth:`rows`) are expanded only from the final frontier;
    coalesced families (:meth:`families`) never expand at all.
    """

    def __init__(self, evaluator: IntervalBottomUpEvaluator) -> None:
        self._evaluator = evaluator

    def frontier(self, compiled: CompiledMatch) -> dict[FrontierKey, IntervalSet]:
        """The final MATCH frontier in the offset-diagonal representation."""
        first = compiled.segments[0]
        relation = self._evaluator.evaluate(first.path)
        accumulators: dict[FrontierKey, IntervalSetAccumulator] = defaultdict(
            IntervalSetAccumulator
        )
        for _src, dst, delta, anchors in relation.entries():
            bindings = ((first.variable, dst),) if first.variable else ()
            offsets = (0,) if first.variable else ()
            accumulators[(bindings, offsets, dst)].add(anchors.shift(delta))
        entries = {key: acc.build() for key, acc in accumulators.items()}
        for segment in compiled.segments[1:]:
            if not entries:
                break
            continuations = self._evaluator.evaluate(segment.path).by_source()
            accumulators = defaultdict(IntervalSetAccumulator)
            for (bindings, offsets, current), times in entries.items():
                for dst, delta, anchors in continuations.get(current, ()):
                    moved = times.intersect(anchors)
                    if moved.is_empty():
                        continue
                    if delta:
                        moved = moved.shift(delta)
                        new_offsets = tuple(offset - delta for offset in offsets)
                    else:
                        new_offsets = offsets
                    new_bindings = bindings
                    if segment.variable:
                        new_bindings = bindings + ((segment.variable, dst),)
                        new_offsets = new_offsets + (0,)
                    accumulators[(new_bindings, new_offsets, dst)].add(moved)
            entries = {key: acc.build() for key, acc in accumulators.items()}
        return entries

    def families(self, compiled: CompiledMatch) -> list[MatchFamily]:
        """Coalesced ``(bindings, times)`` families, one per binding tuple.

        Raises :class:`~repro.errors.EvaluationError` when some frontier
        entry binds variables at different times (offsets disagree) —
        such output cannot be coalesced onto a shared time axis.  The
        check is exact: a query whose temporal moves cancel out (e.g.
        ``N·P`` between two bindings) still coalesces here, whereas the
        dataflow engine rejects it statically.
        """
        merged: dict[tuple[tuple[str, ObjectId], ...], IntervalSetAccumulator] = {}
        for (bindings, offsets, _current), times in self.frontier(compiled).items():
            if offsets and any(offset != offsets[0] for offset in offsets[1:]):
                raise EvaluationError(
                    "interval (coalesced) output is only defined when every "
                    "variable is bound at a single shared time"
                )
            anchor = offsets[0] if offsets else 0
            accumulator = merged.get(bindings)
            if accumulator is None:
                accumulator = merged[bindings] = IntervalSetAccumulator()
            accumulator.add(times.shift(anchor) if anchor else times)
        return [(bindings, acc.build()) for bindings, acc in merged.items()]

    def rows(self, compiled: CompiledMatch) -> list[tuple[tuple[ObjectId, int], ...]]:
        """Point-based binding rows, expanded from the final frontier only."""
        out: list[tuple[tuple[ObjectId, int], ...]] = []
        for (bindings, offsets, _current), times in self.frontier(compiled).items():
            if not bindings:
                if not times.is_empty():
                    out.append(())
                continue
            objects = tuple(obj for _name, obj in bindings)
            for t in times.points():
                out.append(
                    tuple(
                        (obj, t + offset)
                        for obj, offset in zip(objects, offsets)
                    )
                )
        return out
