"""The dataflow engine: compile a MATCH clause, run it on the columnar kernel.

:class:`DataflowEngine` compiles a MATCH clause into a chain of dataflow
steps (:mod:`repro.dataflow.steps`), plans it once per
:class:`QueryPlan` (:meth:`DataflowEngine.prepare`; a query text is
prepared once per engine, through its plan cache) and runs it on the
columnar kernel (:mod:`repro.perf.columnar`): vectorized sweeps over
the index-owned, delta-maintained array image of the graph.  Every
chain runs there — an
alternation that navigates through time is distributed into leaf
chains at compile time — so there is no kernel to choose.

The kernel follows the paper's split: **Steps 1 / 2** process
structural moves, static tests and temporal moves on the interval
representation; **Step 3** turns the surviving rows into bindings —
interval-native families when every variable shares one temporal group,
point rows otherwise.  The kernel run is reported as
``interval_seconds`` (the "interval-based time" column of Table II);
``total_seconds`` adds the table build and, with ``expand_output``, the
point expansion ("total time").

Every call is one columnar pass in the calling process, seeded straight
from the array image.  The engine itself is configuration only: a
call's deadline is armed per call, so concurrent calls on one engine
cannot see each other's budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Union as TypingUnion

from repro.dataflow.plans import PlanCache
from repro.dataflow.steps import (
    FAMILIES_UNDEFINED,
    BindStep,
    ChainStep,
    binds_share_group,
    compile_chain,
)
from repro.errors import EvaluationError
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch, compile_match
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.perf import columnar as columnar_kernel
from repro.perf.graph_index import GraphIndex, graph_index_for
from repro.resilience.deadline import Deadline
from repro.temporal.intervalset import IntervalSet

ObjectId = Hashable
#: One coalesced output entry: variable bindings plus shared validity times.
IntervalFamily = tuple[tuple[tuple[str, ObjectId], ...], IntervalSet]
TemporalGraph = TypingUnion[TemporalPropertyGraph, IntervalTPG]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a dataflow evaluation, including the Table-II measurements.

    For single-temporal-group queries (all of Q1–Q5 and the
    Q9–Q12 shapes) ``table`` is an
    :class:`~repro.perf.columnar.FamilyTable` (an ``IntervalBindingTable``):
    ``total_seconds`` then covers Steps 1–3 in the interval representation
    only, and families and point rows are built when the table is read; the
    columnar kernel's group-spanning outputs (Q6–Q8) are an equally lazy
    :class:`~repro.perf.columnar.PointTable`.  ``output_size`` is always
    the point-row count (computed without building the rows).
    """

    table: TypingUnion[BindingTable, IntervalBindingTable]
    #: Kernel wall time: Steps 1–2 plus the interval-native Step 3 that
    #: yields families or point tuples.
    interval_seconds: float
    total_seconds: float
    output_size: int
    #: Surviving frontier rows, summed over the leaf chains.
    frontier_rows: int
    #: How many frontier rows the coalescing frontier absorbed into
    #: signature-equal survivors across all steps.
    rows_merged: int = 0

    def as_table_row(self) -> dict[str, float | int]:
        """The three columns the paper reports per query in Table II."""
        return {
            "interval-based time (s)": round(self.interval_seconds, 6),
            "total time (s)": round(self.total_seconds, 6),
            "output size": self.output_size,
        }


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, immediately-executable plan for one query.

    Produced by :meth:`DataflowEngine.prepare` and accepted anywhere a
    query is (:meth:`match`, :meth:`match_with_stats`,
    :meth:`match_intervals`, :meth:`explain`), skipping parse, translate,
    chain compilation and kernel planning on every reuse.  A plan is a
    pure function of the query text and reads the graph only when it
    runs, through the engine's index, so it stays valid across deltas:
    the engine's plan cache (:attr:`DataflowEngine.plans`) is keyed by
    query text alone, and a streaming session keeps one plan per
    registered query.  The kernel plan holds the chain's converse too,
    and each run seeds from the end with fewer points on the graph as it
    is then: direction is a cost choice and never changes an answer.
    """

    text: str | None
    compiled: CompiledMatch
    chain: tuple[ChainStep, ...]
    #: The chain planned for the columnar kernel (seed condition +
    #: leaves), with its converse.
    kernel_plan: columnar_kernel.ColumnarPlan
    #: ``"families"`` (interval-native) when every variable is bound
    #: within one temporal group (:func:`binds_share_group`), else
    #: ``"points"``.
    mode: str

    @property
    def variables(self) -> tuple[str, ...]:
        return self.compiled.variables

    def require_families(self) -> None:
        """Raise :class:`EvaluationError` unless the plan has interval
        (coalesced) output — the one definedness check of
        :meth:`DataflowEngine.match_intervals` and of a streaming
        session's ``results``."""
        if self.mode != "families":
            raise EvaluationError(FAMILIES_UNDEFINED)


class DataflowEngine:
    """Interval-based dataflow evaluation of MATCH queries (Section VI)."""

    def __init__(
        self,
        graph: TemporalGraph,
        deadline_seconds: float | None = None,
        *,
        plans: PlanCache | None = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {deadline_seconds!r}"
            )
        # The compiled index is shared per graph across engines and queries
        # (index first, so a point-based graph is converted exactly once and
        # the conversion is reused too).
        self._index: GraphIndex = graph_index_for(graph)
        self._graph = self._index.graph
        #: The per-query wall-clock budget a call runs under unless it
        #: passes its own (each call arms a fresh
        #: :class:`~repro.resilience.Deadline` from it).
        self._deadline_seconds = deadline_seconds
        #: Query text → :class:`QueryPlan`: a ``str`` query is prepared
        #: once per text (the server looks its normalized text up here).
        self.plans = plans if plans is not None else PlanCache()

    @property
    def graph(self) -> IntervalTPG:
        return self._graph

    @property
    def index(self) -> GraphIndex:
        return self._index

    @property
    def deadline_seconds(self) -> float | None:
        return self._deadline_seconds

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def match(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan]
    ) -> TypingUnion[BindingTable, IntervalBindingTable]:
        """Evaluate a MATCH clause and return its binding table.

        Single-temporal-group queries return an
        :class:`~repro.eval.bindings.IntervalBindingTable` whose point
        rows expand lazily; both classes expose the same read API.
        """
        return self.match_with_stats(query).table

    def prepare(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch]
    ) -> QueryPlan:
        """Compile ``query`` into a reusable :class:`QueryPlan`.

        The front half of a match call — parse, translate, chain
        compilation, kernel planning — done once; the plan replays
        through :meth:`match_with_stats` / :meth:`match_intervals` for as
        long as it is kept, across writes to the graph too.  Always
        compiles afresh: a ``str`` passed to the other methods is
        looked up in :attr:`plans` first.
        """
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        chain = self._compile(compiled)
        if isinstance(query, str):
            text: str | None = query
        else:
            text = getattr(query, "text", None)
        return QueryPlan(
            text=text,
            compiled=compiled,
            chain=chain,
            kernel_plan=columnar_kernel.plan_query(chain),
            mode="families" if binds_share_group(chain) else "points",
        )

    def match_with_stats(
        self,
        query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan],
        expand_output: bool = False,
        *,
        deadline_seconds: float | None = None,
    ) -> MatchResult:
        """Evaluate a MATCH clause and return the table plus timing breakdown.

        With ``expand_output=True`` the point-row expansion of a lazy
        table is forced inside the timed region, so ``total_seconds``
        measures the paper's Table-II "total time" (Steps 1–3 including
        point materialization) regardless of the output representation —
        the paper-reproduction harnesses pass this; the default leaves
        single-group outputs interval-native.

        ``deadline_seconds`` overrides the engine-level budget for this
        one call — the server maps a request's ``deadline`` envelope
        field through it.  It travels with the call, never through the
        engine, so concurrent calls on one engine stay isolated.
        """
        deadline = self._deadline(deadline_seconds)
        plan = self._plan(query)
        start = time.perf_counter()
        table, frontier_rows, rows_merged, interval_seconds = self._execute(
            plan, plan.mode, deadline
        )
        if expand_output:
            _ = table.rows
        total_seconds = time.perf_counter() - start
        return MatchResult(
            table=table,
            interval_seconds=interval_seconds,
            total_seconds=total_seconds,
            output_size=len(table),
            frontier_rows=frontier_rows,
            rows_merged=rows_merged,
        )

    def match_intervals(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan]
    ) -> list[IntervalFamily]:
        """Coalesced (interval) output: one entry per binding tuple.

        This is the engine's primary output path: each
        entry pairs the variable bindings with the coalesced family of
        times at which they all hold (:meth:`match` derives the point
        table from the same per-row families).  Defined exactly when the
        plan's output mode is ``"families"``: every variable is bound
        within a single temporal group — all of Q1–Q5, and
        temporal-navigation queries such as Q9–Q12 whose output variables
        precede the navigation.  Raises :class:`EvaluationError` when
        variables span temporal groups (their binding times are linked,
        not shared, as discussed in Section VI).
        """
        plan = self._plan(query)
        plan.require_families()
        table, _rows, _merged, _seconds = self._execute(
            plan, "families", self._deadline()
        )
        return list(table.families)

    def explain(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan]
    ) -> dict:
        """The execution plan a :meth:`match` call would use, without running it.

        Returns a dictionary with the kernel (always ``"columnar"``), the
        ``direction`` the run would take on the graph as it is now
        (``forward`` or ``converse``, see
        :func:`~repro.perf.columnar.choose`) and both directions'
        ``seed_points`` (``converse`` is ``None`` without one), then for
        the direction that runs: the seed rows and the chain steps after
        the seed's tests, the output mode (``families`` =
        interval-native, ``points``) and the kernel plan — ``leaves``,
        how many leaf chains it runs, and ``ops``, the first leaf's ops
        as short strings.  ``repro query … --explain`` prints this.
        """
        plan = self._plan(query)
        ctx = self._index.columnar_context()
        written = plan.kernel_plan
        chosen = columnar_kernel.choose(ctx, written)
        seed = chosen.seed_condition
        if seed is None:
            seed_rows = len(self._index.objects)
        else:
            seed_rows = len(self._index.condition_table(seed))
        leaves = chosen.leaves
        converse = written.converse
        return {
            "effective_kernel": "columnar",
            "direction": "forward" if chosen is written else "converse",
            "seed_points": {
                "forward": ctx.seed_points(written.seed_condition),
                "converse": None
                if converse is None
                else ctx.seed_points(converse.seed_condition),
            },
            "seed_rows": seed_rows,
            "chain_steps": chosen.chain_steps,
            "output_mode": plan.mode,
            "leaves": leaves.count,
            "ops": columnar_kernel.describe_ops(next(iter(leaves))),
            "deadline_seconds": self._deadline_seconds,
        }

    # ------------------------------------------------------------------ #
    # Chain compilation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _compile(compiled: CompiledMatch) -> tuple[ChainStep, ...]:
        """The MATCH clause as one chain: each segment's steps, then its bind."""
        steps: list[ChainStep] = []
        for segment in compiled.segments:
            steps.extend(compile_chain(segment.path))
            if segment.variable:
                steps.append(BindStep(segment.variable))
        return tuple(steps)

    def _plan(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan]
    ) -> QueryPlan:
        """``query``'s plan: a text through :attr:`plans`; an AST or a
        compiled query is prepared afresh (an AST's ``text`` may be a
        placeholder, so it is no key)."""
        if isinstance(query, QueryPlan):
            return query
        if isinstance(query, str):
            return self.plans.lookup(query, self.prepare)[0]
        return self.prepare(query)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _deadline(self, deadline_seconds: float | None = None) -> Deadline | None:
        """A fresh deadline for one call: its override, else the engine default."""
        seconds = self._deadline_seconds if deadline_seconds is None else deadline_seconds
        return None if seconds is None else Deadline(seconds)

    def _execute(
        self, plan: QueryPlan, mode: str, deadline: Deadline | None
    ) -> tuple[object, int, int, float]:
        """One columnar pass of ``plan``'s kernel plan: ``(data,
        frontier_rows, rows_merged, seconds)``.

        ``data`` is the kernel's lazy answer table: a
        :class:`~repro.perf.columnar.FamilyTable` (``mode="families"``) or
        a :class:`~repro.perf.columnar.PointTable`.
        """
        start = time.perf_counter()
        data, frontier_rows, rows_merged = columnar_kernel.run_query(
            self._index.columnar_context(),
            plan.kernel_plan,
            plan.variables,
            mode,
            deadline,
        )
        return data, frontier_rows, rows_merged, time.perf_counter() - start
