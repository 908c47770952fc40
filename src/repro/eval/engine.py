"""The reference evaluation engine: path evaluation and MATCH evaluation.

:class:`ReferenceEngine` wraps a temporal graph (point-based or
interval-based) and offers three operations:

* :meth:`ReferenceEngine.evaluate_path` — the binary relation
  ``JpathK_G`` (Theorem C.1's bottom-up algorithm);
* :meth:`ReferenceEngine.match` — evaluation of a practical MATCH clause
  into a temporal binding table.  MATCH clauses are compiled into
  anchored segments (:func:`repro.lang.translate.compile_match`); the
  engine propagates a frontier of partial bindings through the segments,
  binding each variable to the temporal object reached at the end of its
  segment.
* :meth:`ReferenceEngine.match_intervals` — the coalesced (interval)
  output of a MATCH clause, mirroring
  :meth:`repro.dataflow.executor.DataflowEngine.match_intervals`: one
  ``(bindings, IntervalSet)`` family per distinct binding tuple,
  defined whenever every variable is bound at a single shared time.

The MATCH frontier is the classic ``(bindings, current)`` hash join
over point-based segment relations.  This engine is the oracle: it
favours clarity and faithfulness to the paper's semantics over speed,
and has one mode.  The dataflow engine (:mod:`repro.dataflow`) is the
fast implementation used by the benchmarks and is cross-checked against
this one in the tests.
"""

from __future__ import annotations

from typing import Hashable, Union as TypingUnion

from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable, Family
from repro.eval.bottom_up import BottomUpEvaluator
from repro.eval.relation import TemporalRelation
from repro.lang.ast import PathExpr
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch, compile_match
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]


class ReferenceEngine:
    """Reference (slow but complete) evaluation of TRPQs over one graph."""

    def __init__(self, graph: TemporalGraph) -> None:
        self._evaluator = BottomUpEvaluator(graph)

    @property
    def graph(self) -> TemporalPropertyGraph:
        """The point-based view of the wrapped graph."""
        return self._evaluator.graph

    # ------------------------------------------------------------------ #
    # Path evaluation
    # ------------------------------------------------------------------ #
    def evaluate_path(self, path: PathExpr) -> TemporalRelation:
        """The full relation ``JpathK_G``."""
        return self._evaluator.evaluate(path)

    def holds(self, path: PathExpr, source: tuple[ObjectId, int], target: tuple[ObjectId, int]) -> bool:
        """Membership test ``(o, t, o', t') ∈ JpathK_G`` (the Eval problem)."""
        o, t = source
        o2, t2 = target
        return (o, t, o2, t2) in self.evaluate_path(path)

    # ------------------------------------------------------------------ #
    # MATCH evaluation
    # ------------------------------------------------------------------ #
    def match(self, query: TypingUnion[str, MatchQuery, CompiledMatch]) -> BindingTable:
        """Evaluate a MATCH clause and return its temporal binding table."""
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        rows = [bindings for bindings, _current in self._point_frontier(compiled)]
        return BindingTable.build(compiled.variables, rows)

    def match_intervals(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch]
    ) -> list[Family]:
        """Coalesced (interval) output: one entry per distinct binding tuple.

        Mirrors the dataflow engine's ``match_intervals``: each entry
        pairs the variable bindings with the coalesced family of times
        at which they all hold, and expanding every family over its
        times reproduces :meth:`match` exactly.  Raises
        :class:`~repro.errors.EvaluationError` when some output row
        binds variables at different times — then the output has no
        shared time axis to coalesce on.  (The check here is exact and
        per-row, so this engine accepts some queries — e.g. temporal
        moves that cancel out — that the dataflow engine rejects from
        its static chain shape.)
        """
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        merged: dict[tuple[tuple[str, ObjectId], ...], set[int]] = {}
        for bindings, current in self._point_frontier(compiled):
            times = {t for _obj, t in bindings}
            if len(times) > 1:
                raise EvaluationError(
                    "interval (coalesced) output is only defined when every "
                    "variable is bound at a single shared time"
                )
            t = times.pop() if times else current[1]
            key = tuple(
                (variable, obj)
                for variable, (obj, _t) in zip(compiled.variables, bindings)
            )
            merged.setdefault(key, set()).add(t)
        return [
            (bindings, IntervalSet.from_points(points))
            for bindings, points in merged.items()
        ]

    # ------------------------------------------------------------------ #
    # Point-mode frontier propagation
    # ------------------------------------------------------------------ #
    def _point_frontier(self, compiled: CompiledMatch):
        frontier = self._initial_frontier(compiled)
        for segment in compiled.segments[1:]:
            if not frontier:
                break
            frontier = self._advance(frontier, segment.path, segment.variable)
        return frontier

    def _initial_frontier(self, compiled: CompiledMatch):
        first = compiled.segments[0]
        relation = self.evaluate_path(first.path)
        frontier = []
        seen = set()
        for o, t, o2, t2 in relation:
            current = (o2, t2)
            bindings = ((o2, t2),) if first.variable else ()
            key = (bindings, current)
            if key in seen:
                continue
            seen.add(key)
            frontier.append((bindings, current))
        return frontier

    def _advance(self, frontier, path: PathExpr, variable):
        index = self.evaluate_path(path).index_by_source()
        out = []
        seen = set()
        for bindings, current in frontier:
            for target in index.get(current, ()):
                new_bindings = bindings + (target,) if variable else bindings
                key = (new_bindings, target)
                if key in seen:
                    continue
                seen.add(key)
                out.append((new_bindings, target))
        return out
