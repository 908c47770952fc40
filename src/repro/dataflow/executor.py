"""The dataflow engine: plan, pool choice, and the retry ladder.

:class:`DataflowEngine` compiles a MATCH clause into a chain of dataflow
steps (:mod:`repro.dataflow.steps`) and runs it on the columnar kernel
(:mod:`repro.perf.columnar`): vectorized sweeps over the index-owned,
delta-maintained array image of the graph.  Every chain runs there — an
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

:meth:`DataflowEngine._route` is the one dispatch decision.  With
``workers > 1`` and a large enough frontier, seed chunks run Steps 1–3
in the persistent worker-process pool of :mod:`repro.parallel` (the
graph ships to each worker once and is cached per ``(graph, pid)``;
degree-weighted chunks, one parent-side merge) — the path that scales
with cores, mirroring the paper's Rayon-based Fig.-3 sweep.  Otherwise
the chain runs as a single columnar pass seeded straight from the array
image.

The engine itself is configuration only.  What a call needs beyond its
plan — the deadline, the retry policy, the merge counter and the
degradation report — travels in a per-call :class:`_Call`, so concurrent
calls on one engine cannot see each other's budget or report.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Hashable, Sequence, Union as TypingUnion

from repro.dataflow.steps import (
    BindStep,
    ChainStep,
    TestStep,
    bind_group_indices,
    compile_chain,
    fuse_hops,
)
from repro.errors import EvaluationError, RetryBudgetExceeded
from repro.eval.bindings import BindingTable, IntervalBindingTable, unpack_families
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch, compile_match
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.parallel.merge import merge_family_chunks, merge_point_chunks
from repro.parallel.partition import chunk_weight, weighted_chunks
from repro.perf import columnar as columnar_kernel
from repro.perf.graph_index import GraphIndex, graph_index_for
from repro.resilience.deadline import Deadline
from repro.resilience.retry import (
    BACKEND_LADDER,
    AttemptRecord,
    DegradationReport,
    RetryPolicy,
    is_retryable,
)
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
    :class:`~repro.eval.bindings.IntervalBindingTable`: ``total_seconds``
    then covers Steps 1–3 in the interval representation only, and the
    point rows expand lazily when the table is actually read; the
    columnar kernel's group-spanning outputs (Q6–Q8) are an equally lazy
    :class:`~repro.perf.columnar.PointTable`.  ``output_size`` is always
    the point-row count (computed without building the rows).
    """

    table: TypingUnion[BindingTable, IntervalBindingTable]
    #: Kernel wall time: Steps 1–2 plus the interval-native Step 3 that
    #: yields families or point tuples.  Under the process pool this
    #: is the parallel critical path — the longest per-worker kernel
    #: time, which is what the paper's per-core Fig.-3 sweep measures.
    interval_seconds: float
    total_seconds: float
    output_size: int
    #: Surviving frontier rows.  Under the process pool this sums the
    #: per-chunk frontiers, so signature-equal rows split
    #: across chunks may be counted once per chunk (the output merge
    #: still coalesces them exactly).
    frontier_rows: int
    #: How many frontier rows the coalescing frontier absorbed into
    #: signature-equal survivors across all steps.
    rows_merged: int = 0
    #: Set when a retry policy had to re-attempt or demote to serial
    #: (the :meth:`~repro.resilience.DegradationReport.to_dict` form);
    #: ``None`` for a clean first-attempt run.
    degradation: dict | None = None

    def as_table_row(self) -> dict[str, float | int]:
        """The three columns the paper reports per query in Table II."""
        return {
            "interval-based time (s)": round(self.interval_seconds, 6),
            "total time (s)": round(self.total_seconds, 6),
            "output size": self.output_size,
        }


class _Call:
    """Per-call state, threaded through dispatch and never kept on the engine.

    The deadline armed for this call, the retry policy it runs under,
    the rows its frontiers merged and — when the retry policy had to
    step in — the degradation report that becomes
    :attr:`MatchResult.degradation`.
    """

    __slots__ = ("deadline", "retry", "rows_merged", "degradation")

    def __init__(self, deadline_seconds: float | None, retry: RetryPolicy | None) -> None:
        self.deadline = None if deadline_seconds is None else Deadline(deadline_seconds)
        self.retry = retry
        self.rows_merged = 0
        self.degradation: DegradationReport | None = None


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, immediately-executable plan for one query on one engine.

    Produced by :meth:`DataflowEngine.prepare` and accepted anywhere a
    query is (:meth:`match`, :meth:`match_with_stats`,
    :meth:`match_intervals`), skipping parse + translate + chain
    compilation on every reuse.  A plan is a pure function of the query
    text — hop fusion consults only the syntactic ``is_static`` — and
    reads the graph at execution time through the engine's index, so it
    stays valid across deltas: the server keys its plan cache by
    normalized query text alone.
    """

    text: str | None
    compiled: CompiledMatch
    chain: tuple[ChainStep, ...]
    mode: str

    @property
    def variables(self) -> tuple[str, ...]:
        return self.compiled.variables


class DataflowEngine:
    """Interval-based dataflow evaluation of MATCH queries (Section VI).

    ``workers > 1`` (``0`` = one per core) runs large frontiers in worker
    processes.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        workers: int = 1,
        start_method: str | None = None,
        deadline_seconds: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if (
            start_method is not None
            and start_method not in multiprocessing.get_all_start_methods()
        ):
            raise ValueError(
                f"unknown start method {start_method!r}: this platform supports "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {deadline_seconds!r}"
            )
        # The compiled index is shared per graph across engines and queries
        # (index first, so a point-based graph is converted exactly once and
        # the conversion is reused too).
        self._index: GraphIndex = graph_index_for(graph)
        self._graph = self._index.graph
        workers = int(workers)
        if workers == 0:
            # ``workers=0`` means "use every core" (mirrors the CLI).
            workers = os.cpu_count() or 1
        self._workers = max(1, workers)
        self._start_method = start_method
        #: Defaults a call runs under unless it passes its own: the
        #: per-query wall-clock budget (each call arms a fresh
        #: :class:`~repro.resilience.Deadline` from it) and the retry
        #: policy (``None`` = fail fast; a
        #: :class:`~repro.resilience.RetryPolicy` turns crash-shaped
        #: worker-pool failures into retries + demotion to serial).
        self._deadline_seconds = deadline_seconds
        self._retry = retry

    @property
    def graph(self) -> IntervalTPG:
        return self._graph

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def index(self) -> GraphIndex:
        return self._index

    @property
    def deadline_seconds(self) -> float | None:
        return self._deadline_seconds

    @property
    def retry(self) -> RetryPolicy | None:
        return self._retry

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

        The expensive front half of a match call — parse, translate,
        chain compilation, hop fusion against the index — done once; the
        plan replays through :meth:`match_with_stats` /
        :meth:`match_intervals` until the graph changes.
        """
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        chain = self._compile(compiled)
        if isinstance(query, str):
            text: str | None = query
        else:
            text = getattr(query, "text", None)
        return QueryPlan(
            text=text, compiled=compiled, chain=chain, mode=self._output_mode(chain)
        )

    def match_with_stats(
        self,
        query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan],
        expand_output: bool = False,
        *,
        deadline_seconds: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> MatchResult:
        """Evaluate a MATCH clause and return the table plus timing breakdown.

        With ``expand_output=True`` the point-row expansion of a lazy
        table is forced inside the timed region, so ``total_seconds``
        measures the paper's Table-II "total time" (Steps 1–3 including
        point materialization) regardless of the output representation —
        the paper-reproduction harnesses pass this; the default leaves
        single-group outputs interval-native.

        ``deadline_seconds`` / ``retry`` override the engine-level
        resilience configuration for this one call — the server maps
        per-request ``deadline`` / ``retries`` envelope fields through
        them.  They travel with the call, never through the engine, so
        concurrent calls on one engine stay isolated.
        """
        call = self._call(deadline_seconds, retry)
        plan = query if isinstance(query, QueryPlan) else self.prepare(query)
        start = time.perf_counter()
        data, frontier_rows, interval_seconds = self._execute(
            plan.chain, plan.variables, plan.mode, call
        )
        if plan.mode == "families":
            table = IntervalBindingTable(plan.variables, data)
        elif isinstance(data, BindingTable):
            table = data  # the columnar kernel's lazy PointTable
        else:
            table = BindingTable.build(plan.variables, data)
        if expand_output:
            _ = table.rows
        total_seconds = time.perf_counter() - start
        return MatchResult(
            table=table,
            interval_seconds=interval_seconds,
            total_seconds=total_seconds,
            output_size=len(table),
            frontier_rows=frontier_rows,
            rows_merged=call.rows_merged,
            degradation=None if call.degradation is None else call.degradation.to_dict(),
        )

    def match_intervals(
        self, query: TypingUnion[str, MatchQuery, CompiledMatch, QueryPlan]
    ) -> list[IntervalFamily]:
        """Coalesced (interval) output: one entry per binding tuple.

        This is the engine's primary output path: each
        entry pairs the variable bindings with the coalesced family of
        times at which they all hold (:meth:`match` derives the point
        table from the same per-row families).  Defined whenever every
        variable is bound within a single temporal group — all of
        Q1–Q5, and temporal-navigation queries such as Q9–Q12 whose
        output variables precede the navigation.  Raises
        :class:`EvaluationError` when variables span temporal groups
        (their binding times are linked, not shared, as discussed in
        Section VI).
        """
        plan = query if isinstance(query, QueryPlan) else self.prepare(query)
        spread = bind_group_indices(plan.chain)
        if spread is not None and len(spread) > 1:
            raise EvaluationError(
                "interval (coalesced) output is only defined when every "
                "variable is bound within a single temporal group"
            )
        families, _rows, _seconds = self._execute(
            plan.chain, plan.variables, "families", self._call()
        )
        return families

    def explain(self, query: TypingUnion[str, MatchQuery, CompiledMatch]) -> dict:
        """The execution plan a :meth:`match` call would use, without running it.

        Returns a dictionary with the effective backend, the kernel
        (always ``"columnar"``), the output mode (``families`` =
        interval-native, ``points``), and the degree-weighted chunk plan
        the partitioner would produce.
        Backend and chunks come from the same :meth:`_route` decision a
        match call makes — ``"sequential"`` when the process pool does
        not engage — and the chunks are the very seed-object chunks a
        process dispatch ships.  ``repro query … --explain`` prints this.
        """
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        chain = self._compile(compiled)
        backend, _seeds = self._route(chain)
        seeds, rest = self._seed_objects(chain)
        chunks = [seeds] if backend == "serial" else self._chunks(seeds)
        return {
            "effective_backend": "sequential" if backend == "serial" else backend,
            "workers": self._workers,
            "start_method": self._start_method,
            "effective_kernel": "columnar",
            "seed_rows": len(seeds),
            "chain_steps": len(rest),
            "output_mode": self._output_mode(chain),
            "chunks": [
                {"seeds": len(chunk), "weight": chunk_weight(chunk, self._index.seed_weight)}
                for chunk in chunks
            ],
            "deadline_seconds": self._deadline_seconds,
            "retry": None if self._retry is None else self._retry.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # Chain compilation
    # ------------------------------------------------------------------ #
    def _compile(self, compiled: CompiledMatch) -> tuple[ChainStep, ...]:
        steps: list[ChainStep] = []
        for segment in compiled.segments:
            steps.extend(compile_chain(segment.path))
            if segment.variable:
                steps.append(BindStep(segment.variable))
        # Set-at-a-time traversal core: structural hops run through the
        # index's memoized (source → target → times) tables instead of
        # materializing one frontier row per traversed edge.
        return fuse_hops(tuple(steps), self._index.is_static)

    @staticmethod
    def _output_mode(chain: tuple[ChainStep, ...]) -> str:
        """``"families"`` when the output can stay interval-native, else ``"points"``.

        Interval-native exactly when the chain statically binds every
        variable within one temporal group (``bind_group_indices``):
        the output is then one coalesced family per binding tuple, and
        the merge across worker chunks keeps that invariant.  All other
        shapes (group-spanning or branch-dependent binds) produce point
        rows.
        """
        spread = bind_group_indices(chain)
        if spread is not None and len(spread) <= 1:
            return "families"
        return "points"

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _call(
        self, deadline_seconds: float | None = None, retry: RetryPolicy | None = None
    ) -> _Call:
        """Fresh per-call state: the call's overrides, else the engine defaults."""
        return _Call(
            self._deadline_seconds if deadline_seconds is None else deadline_seconds,
            self._retry if retry is None else retry,
        )

    def _seed_objects(
        self, chain: tuple[ChainStep, ...]
    ) -> tuple[Sequence[ObjectId], tuple[ChainStep, ...]]:
        """The objects the kernel seeds (in its order) and the chain after
        any absorbed leading test."""
        if chain and isinstance(chain[0], TestStep):
            return list(self._index.condition_table(chain[0].condition)), chain[1:]
        return self._index.objects, chain

    def _chunks(self, seeds: Sequence[ObjectId]) -> list[list[ObjectId]]:
        """The pool's degree-weighted seed chunks (what ``explain()`` reports)."""
        return weighted_chunks(seeds, self._workers, self._index.seed_weight)

    def _route(
        self, chain: tuple[ChainStep, ...]
    ) -> tuple[str, Sequence[ObjectId] | None]:
        """The one dispatch decision: ``("process", seeds)`` or ``("serial", None)``.

        The process pool engages for ``workers > 1`` and frontiers of at
        least two seed objects per worker (below that, per-chunk overhead
        dominates); its workers run the columnar kernel per chunk of
        those seeds.  Serially, the chain runs as a single columnar pass
        seeded straight from the array image.
        """
        if self._workers > 1:
            seeds = self._seed_objects(chain)[0]
            if len(seeds) >= 2 * self._workers:
                return "process", seeds
        return "serial", None

    def _execute(
        self,
        chain: tuple[ChainStep, ...],
        variables: tuple[str, ...],
        mode: str,
        call: _Call,
    ) -> tuple[object, int, float]:
        """Run one compiled chain as routed: ``(data, frontier_rows, seconds)``.

        ``data`` is a family list (``mode="families"``), or point tuples
        — a lazy :class:`~repro.perf.columnar.PointTable` from the
        single columnar pass.
        """
        backend, seeds = self._route(chain)
        if backend == "serial":
            return self._run_on("serial", chain, seeds, variables, mode, call)
        return self._run_resilient(chain, seeds, variables, mode, call)

    def _run_resilient(
        self,
        chain: tuple[ChainStep, ...],
        seeds: Sequence[ObjectId],
        variables: tuple[str, ...],
        mode: str,
        call: _Call,
    ) -> tuple[list, int, float]:
        """The process dispatch under the call's retry policy.

        Each rung of the demotion ladder gets the policy's full retry
        budget; crash-shaped failures (see
        :data:`~repro.resilience.RETRYABLE_EXCEPTIONS`) are retried with
        capped exponential backoff + jitter, then the backend demotes
        ``process → serial``.  The escalation is recorded as a
        :class:`DegradationReport` on the call (and so on
        :attr:`MatchResult.degradation`).  Only a retryable failure *on
        the serial rung* (or ``degrade=False``) exhausts the query: that
        raises :class:`~repro.errors.RetryBudgetExceeded`.
        """
        policy = call.retry
        if policy is None:
            return self._run_on("process", chain, seeds, variables, mode, call)
        failures: list[AttemptRecord] = []
        ladder = BACKEND_LADDER if policy.degrade else BACKEND_LADDER[:1]
        for backend in ladder:
            delays = policy.delays()
            slept = 0.0
            attempt = 0
            while True:
                try:
                    result = self._run_on(backend, chain, seeds, variables, mode, call)
                    if failures:
                        call.degradation = DegradationReport(
                            configured_backend="process",
                            final_backend=backend,
                            failures=tuple(failures),
                        )
                    return result
                except Exception as exc:
                    if not is_retryable(exc):
                        raise
                    failures.append(
                        AttemptRecord(
                            backend=backend,
                            attempt=attempt,
                            error_type=type(exc).__name__,
                            error=str(exc),
                            delay=slept,
                        )
                    )
                attempt += 1
                delay = next(delays, None)
                if delay is None:
                    break  # budget spent on this rung: demote
                if call.deadline is not None:
                    # Never sleep past the deadline: better to attempt
                    # (and let the attempt notice expiry) than to burn
                    # the whole budget waiting.
                    delay = min(delay, call.deadline.remaining())
                time.sleep(delay)
                slept = delay
        report = DegradationReport(
            configured_backend="process",
            final_backend=ladder[-1],
            failures=tuple(failures),
        )
        raise RetryBudgetExceeded(
            f"query failed on every backend rung after {len(failures)} "
            f"attempt(s) ({report.summary()}); last error: "
            f"{failures[-1].error_type}: {failures[-1].error}",
            attempts=tuple(record.to_dict() for record in failures),
        )

    def _run_on(
        self,
        backend: str,
        chain: tuple[ChainStep, ...],
        seeds: Sequence[ObjectId] | None,
        variables: tuple[str, ...],
        mode: str,
        call: _Call,
    ) -> tuple[object, int, float]:
        """One attempt on one backend: ``(data, frontier_rows, seconds)``.

        Both backends run the columnar kernel's ``run_query`` on the full
        chain — on every seed (``"serial"``, wall time) or per
        degree-weighted chunk of ``seeds`` in worker processes
        (``"process"``, see :meth:`_process_run`).
        """
        if backend == "process":
            return self._process_run(chain, seeds, variables, mode, call)
        start = time.perf_counter()
        data, frontier_rows, merged = columnar_kernel.run_query(
            self._index.columnar_context(),
            columnar_kernel.plan_query(chain),
            variables,
            mode,
            call.deadline,
        )
        call.rows_merged += merged
        return data, frontier_rows, time.perf_counter() - start

    def _process_run(
        self,
        chain: tuple[ChainStep, ...],
        seeds: Sequence[ObjectId],
        variables: tuple[str, ...],
        mode: str,
        call: _Call,
    ) -> tuple[list, int, float]:
        """Chunked Steps 1–3 in worker processes, one merge here.

        The third element is the longest per-worker kernel time (the
        parallel critical path).
        """
        from repro.parallel.plan import plan_for
        from repro.parallel.pool import shared_pool

        pool = shared_pool(self._workers, self._start_method)
        results = pool.run_chunks(
            plan_for(self._graph),
            chain,
            self._chunks(seeds),
            mode,
            variables,
            deadline=call.deadline,
        )
        call.rows_merged += sum(result["rows_merged"] for result in results)
        data = [result["data"] for result in results]
        if mode == "families":
            merged = merge_family_chunks(unpack_families(chunk) for chunk in data)
        else:
            merged = merge_point_chunks(data)
        return (
            merged,
            sum(result["frontier_rows"] for result in results),
            max(result["chain_seconds"] for result in results),
        )
