"""The dataflow engine: chain execution over interval-timestamped TPGs.

:class:`DataflowEngine` compiles a MATCH clause into a chain of dataflow
steps (:mod:`repro.dataflow.steps`) and pushes a frontier of partial
matches through it:

* **Step 1 / Step 2** (interval-based): structural moves, static tests
  and temporal moves are all processed on the interval representation;
  this phase is timed separately and reported as ``interval_seconds``
  (the "interval-based time" column of Table II).
* **Step 3** (point-based): the surviving frontier rows are expanded into
  point-wise temporal bindings, enforcing the recorded temporal links;
  the combined time is ``total_seconds`` ("total time" in Table II).

There is one evaluation path with two kernels.  By default
(``kernel="columnar"``) a covered chain runs as vectorized sweeps
(:mod:`repro.perf.columnar`) over the index-owned, delta-maintained
array image of the graph; everything else — temporal alternations, no NumPy,
``kernel="interpreted"`` — takes the per-row walk below, the oracle the
columnar kernel is fuzzed against.  Every step reads the per-graph compiled
:class:`~repro.perf.graph_index.GraphIndex` (memoized condition tables,
adjacency, fused-hop entries); the frontier is the *coalescing*,
set-at-a-time :class:`~repro.dataflow.frontier.Frontier` — after every
step, rows that agree on their binding signature are merged by unioning
their validity interval families — and Step 3 runs on the
interval-native :class:`~repro.dataflow.frontier.IntervalMaterializer`.

The engine can partition the initial frontier across workers
(``workers > 1``), mirroring the paper's Rayon-based parallelism sweep.
Two backends share one degree-weighted chunking policy
(:mod:`repro.parallel.partition`):

* ``parallel_backend="thread"`` (default) — a thread pool; output-
  invariant but GIL-bound, so it measures ~1× on CPU-bound queries.
  It stays the cheap fallback for small frontiers.
* ``parallel_backend="process"`` — the :mod:`repro.parallel` subsystem:
  seed chunks run Steps 1–3 in a persistent worker-process pool (the
  graph ships to each worker once and is cached per ``(graph, pid)``),
  workers return compact interval families, and the parent performs a
  single coalescing merge.  This is the path that actually scales with
  cores, like the paper's Fig. 3.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, Union as TypingUnion

from repro.dataflow.frontier import (
    Frontier,
    Group,
    IntervalFamily,
    IntervalMaterializer,
    Row,
    RowFrontier,
    TemporalLink,
    initial_row,
)
from repro.dataflow.steps import (
    AltStep,
    BindStep,
    ChainStep,
    HopStep,
    StructStep,
    TemporalStep,
    TestStep,
    bind_group_indices,
    compile_chain,
    fuse_hops,
)
from repro.errors import EvaluationError, RetryBudgetExceeded
from repro.eval.bindings import BindingTable, IntervalBindingTable
from repro.lang.ast import Test
from repro.lang.parser import MatchQuery
from repro.lang.translate import CompiledMatch, compile_match
from repro.model.itpg import IntervalTPG
from repro.model.tpg import TemporalPropertyGraph
from repro.parallel.partition import chunk_weight, weighted_chunks
from repro.perf import columnar as columnar_kernel
from repro.perf.graph_index import GraphIndex, graph_index_for
from repro.resilience import failpoints
from repro.resilience.deadline import Deadline
from repro.resilience.retry import (
    AttemptRecord,
    DegradationReport,
    RetryPolicy,
    is_retryable,
)
from repro.temporal.alignment import reachable_window
from repro.temporal.intervalset import IntervalSet, IntervalSetAccumulator

ObjectId = Hashable
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
    #: Steps 1–2 wall time.  Under the process backend this is the
    #: parallel critical path: the longest per-worker chain time, which
    #: is what the paper's per-core Fig.-3 sweep measures.
    interval_seconds: float
    total_seconds: float
    output_size: int
    #: Surviving frontier rows.  Under the process backend this sums the
    #: per-chunk frontiers, so signature-equal rows split across chunks
    #: may be counted once per chunk (the output merge still coalesces
    #: them exactly).
    frontier_rows: int
    #: How many frontier rows the coalescing frontier absorbed into
    #: signature-equal survivors across all steps.
    rows_merged: int = 0
    #: Set when a retry policy had to re-attempt or demote the backend
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


class _ChainStats:
    """Mutable per-call counters threaded through the chain run."""

    __slots__ = ("rows_merged",)

    def __init__(self) -> None:
        self.rows_merged = 0


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
    """Interval-based dataflow evaluation of MATCH queries (Section VI)."""

    #: Valid values of ``parallel_backend``.
    BACKENDS = ("thread", "process")
    #: Valid values of ``kernel``.  ``"columnar"`` — the default —
    #: compiles supported chains into vectorized sweeps
    #: (:mod:`repro.perf.columnar`) and runs interpreted — with the
    #: reason recorded in :meth:`explain` — when NumPy is missing or the
    #: chain shape is not covered.  ``"interpreted"`` forces the per-row
    #: Python chain walk below: the differential-fuzz oracle / override.
    KERNELS = ("interpreted", "columnar")

    def __init__(
        self,
        graph: TemporalGraph,
        workers: int = 1,
        parallel_backend: str = "thread",
        start_method: str | None = None,
        incremental: bool = False,
        deadline_seconds: float | None = None,
        retry: RetryPolicy | None = None,
        kernel: str = "columnar",
    ) -> None:
        if parallel_backend not in self.BACKENDS:
            raise ValueError(
                f"unknown parallel backend {parallel_backend!r}: "
                f"expected one of {', '.join(repr(b) for b in self.BACKENDS)}"
            )
        if (
            start_method is not None
            and start_method not in multiprocessing.get_all_start_methods()
        ):
            raise ValueError(
                f"unknown start method {start_method!r}: this platform supports "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        if kernel not in self.KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}: expected one of "
                f"{', '.join(repr(k) for k in self.KERNELS)}"
            )
        # The compiled index is shared per graph across engines and queries
        # (index first, so a point-based graph is converted exactly once and
        # the conversion is reused too).
        self._index: GraphIndex = graph_index_for(graph)
        graph = self._graph = self._index.graph
        workers = int(workers)
        if workers == 0:
            # ``workers=0`` means "use every core" (mirrors the CLI).
            workers = os.cpu_count() or 1
        self._workers = max(1, workers)
        self._backend = parallel_backend
        self._start_method = start_method
        self._domain_times = IntervalSet((graph.domain,))
        self._materializer = IntervalMaterializer(self._index)
        self._incremental = bool(incremental)
        #: Lazily created streaming session (``incremental=True`` only).
        self._session = None
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {deadline_seconds!r}"
            )
        #: Per-query wall-clock budget; each match call arms a fresh
        #: :class:`~repro.resilience.Deadline` from it.
        self._deadline_seconds = deadline_seconds
        self._deadline: Deadline | None = None
        #: ``None`` keeps the seed fail-fast behaviour; a
        #: :class:`~repro.resilience.RetryPolicy` turns crash-shaped
        #: process-backend failures into retries + backend demotion.
        self._retry = retry
        #: How the most recent resilient run actually executed.
        self._last_degradation: DegradationReport | None = None
        self._kernel = kernel
        #: Configuration-level reason the columnar kernel can never run
        #: on this engine (``None`` when it can; per-query step-shape
        #: fallbacks are decided later, in :meth:`_columnar_plan`).
        self._kernel_unavailable: str | None = None
        if kernel == "columnar" and not columnar_kernel.available():
            self._kernel_unavailable = "numpy is not installed"

    @property
    def graph(self) -> IntervalTPG:
        return self._graph

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def parallel_backend(self) -> str:
        return self._backend

    @property
    def index(self) -> GraphIndex:
        return self._index

    @property
    def kernel(self) -> str:
        return self._kernel

    @property
    def incremental(self) -> bool:
        return self._incremental

    # ------------------------------------------------------------------ #
    # Streaming session (incremental=True)
    # ------------------------------------------------------------------ #
    def streaming_session(self):
        """The engine's :class:`~repro.streaming.engine.StreamingEngine`.

        Only available on an ``incremental=True`` engine.  The session
        caches the last materialized families per registered query;
        :meth:`match` / :meth:`match_intervals` read from that cache, and
        :meth:`apply_delta` refreshes it by re-deriving only the seeds a
        delta's dirty set can reach.
        """
        if not self._incremental:
            raise EvaluationError(
                "streaming requires DataflowEngine(..., incremental=True)"
            )
        if self._session is None:
            from repro.streaming.engine import StreamingEngine

            self._session = StreamingEngine(engine=self)
        return self._session

    def apply_delta(self, batch):
        """Apply a :class:`~repro.streaming.delta.DeltaBatch` incrementally.

        Returns the session's
        :class:`~repro.streaming.engine.ApplyResult`; raises
        :class:`EvaluationError` on a non-incremental engine or an
        out-of-order batch, leaving the graph untouched.
        """
        return self.streaming_session().apply(batch)

    def _refresh_domain(self) -> None:
        """Re-derive domain-dependent engine state after a horizon advance."""
        self._domain_times = IntervalSet((self._graph.domain,))
        self._materializer = IntervalMaterializer(self._index)

    # ------------------------------------------------------------------ #
    # Resilience: deadlines, retry, degradation
    # ------------------------------------------------------------------ #
    @property
    def deadline_seconds(self) -> float | None:
        return self._deadline_seconds

    @property
    def retry(self) -> RetryPolicy | None:
        return self._retry

    @property
    def last_degradation(self) -> DegradationReport | None:
        """How the most recent query actually executed (``None`` = clean
        first-attempt run or no resilient run yet)."""
        return self._last_degradation

    def _arm_deadline(self) -> Deadline | None:
        """Start this query's wall-clock budget (``None`` when unbounded)."""
        if self._deadline_seconds is None:
            return None
        deadline = Deadline(self._deadline_seconds)
        self._deadline = deadline
        self._materializer.deadline = deadline
        return deadline

    def _disarm_deadline(self) -> None:
        self._deadline = None
        self._materializer.deadline = None

    def _run_resilient(
        self,
        chain: tuple[ChainStep, ...],
        seeds: list[Row],
        variables: tuple[str, ...],
        mode: str,
        stats: _ChainStats,
    ) -> tuple[list, int, float]:
        """The process dispatch under the retry policy.

        Each rung of the demotion ladder gets the policy's full retry
        budget; crash-shaped failures (see
        :data:`~repro.resilience.RETRYABLE_EXCEPTIONS`) are retried with
        capped exponential backoff + jitter, then the backend demotes
        ``process → thread → serial``.  The escalation is recorded as a
        :class:`DegradationReport` on :attr:`last_degradation`.  Only a
        retryable failure *on the serial rung* (or ``degrade=False``)
        exhausts the query: that raises
        :class:`~repro.errors.RetryBudgetExceeded`.
        """
        policy = self._retry
        self._last_degradation = None
        if policy is None:
            return self._process_run(chain, seeds, variables, mode, stats)
        failures: list[AttemptRecord] = []
        ladder = ("process", "thread", "serial") if policy.degrade else ("process",)
        deadline = self._deadline
        for backend in ladder:
            delays = policy.delays()
            slept = 0.0
            attempt = 0
            while True:
                try:
                    result = self._run_on_backend(
                        backend, chain, seeds, variables, mode, stats
                    )
                    if failures:
                        self._last_degradation = DegradationReport(
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
                if deadline is not None:
                    # Never sleep past the deadline: better to attempt
                    # (and let the attempt notice expiry) than to burn
                    # the whole budget waiting.
                    delay = min(delay, deadline.remaining())
                time.sleep(delay)
                slept = delay
        report = DegradationReport(
            configured_backend="process",
            final_backend=ladder[-1],
            failures=tuple(failures),
        )
        self._last_degradation = report
        raise RetryBudgetExceeded(
            f"query failed on every backend rung after {len(failures)} "
            f"attempt(s) ({report.summary()}); last error: "
            f"{failures[-1].error_type}: {failures[-1].error}",
            attempts=tuple(record.to_dict() for record in failures),
        )

    def _run_on_backend(
        self,
        backend: str,
        chain: tuple[ChainStep, ...],
        seeds: list[Row],
        variables: tuple[str, ...],
        mode: str,
        stats: _ChainStats,
    ) -> tuple[list, int, float]:
        """One attempt on one rung, normalized to the process-run shape."""
        if backend == "process":
            return self._process_run(chain, seeds, variables, mode, stats)
        start = time.perf_counter()
        # Columnar kernel over the already-built seed rows (no-op unless
        # kernel="columnar" and the chain shape is covered).
        attempt = self._columnar_rows_attempt(chain, seeds, variables, mode, stats)
        if attempt is not None:
            return (*attempt, time.perf_counter() - start)
        if backend == "thread":
            frontier = self._run_chain_chunks(seeds, chain, stats)
        else:
            frontier = self._run_chain_on(seeds, chain, stats)
        chain_seconds = time.perf_counter() - start
        if mode == "families":
            data: list = self._materializer.families(frontier, variables)
        else:
            data = self._materializer.points(frontier, variables)
        return data, len(frontier), chain_seconds

    # ------------------------------------------------------------------ #
    # Columnar kernel dispatch (kernel="columnar")
    # ------------------------------------------------------------------ #
    def _columnar_fallback_reason(self, chain: tuple[ChainStep, ...]) -> str | None:
        """Why this chain would run interpreted despite ``kernel="columnar"``.

        ``None`` means the columnar kernel covers the full query.  The
        reasons surface verbatim in :meth:`explain` under
        ``kernel_fallback``.
        """
        if self._kernel_unavailable is not None:
            return self._kernel_unavailable
        _plan, reason = columnar_kernel.plan_query(chain)
        return reason

    def kernel_for(self, chain: tuple[ChainStep, ...]) -> dict:
        """``effective_kernel`` and ``kernel_fallback`` (why a columnar
        engine would run it interpreted; ``None`` = no fallback, or
        interpreted was asked for) of one chain, as in :meth:`explain`."""
        columnar = self._kernel == "columnar"
        fallback = self._columnar_fallback_reason(chain) if columnar else None
        effective = "columnar" if columnar and fallback is None else "interpreted"
        return {"effective_kernel": effective, "kernel_fallback": fallback}

    def _columnar_plan(self, chain: tuple[ChainStep, ...]):
        """The full-query columnar plan, or ``None`` on any fallback."""
        if self._kernel != "columnar" or self._columnar_fallback_reason(chain):
            return None
        plan, _reason = columnar_kernel.plan_query(chain)
        return plan

    def _columnar_process_engages(self, plan) -> bool:
        """Process-pool engagement for a columnar plan, decided from the
        context's seed count without materializing Row seeds — the same
        predicate :meth:`_process_engages` applies to built frontiers."""
        return (
            self._backend == "process"
            and self._workers > 1
            and self._index.columnar_context().seed_count(plan) >= 2 * self._workers
        )

    def _columnar_rows_attempt(
        self,
        chain: Sequence[ChainStep],
        seeds: list[Row],
        variables: tuple[str, ...],
        mode: str,
        stats: _ChainStats,
    ) -> tuple[list, int] | None:
        """Columnar evaluation over pre-built seed rows.

        The rows-in twin of the full-query path (families or point
        tuples out, per ``mode``), used by the thread/serial backend
        rungs and the worker-pool chunks.  ``None`` means the chain or
        the rows don't fit the kernel; the caller falls back to the
        interpreted chain walk.
        """
        if self._kernel != "columnar" or self._kernel_unavailable is not None:
            return None
        ops, _reason = columnar_kernel.ops_for(tuple(chain))
        if ops is None:
            return None
        result = columnar_kernel.run_rows(
            self._index.columnar_context(), ops, seeds, variables, mode, self._deadline
        )
        if result is None:
            return None
        data, frontier_rows, merged = result
        stats.rows_merged += merged
        return data, frontier_rows

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
        them.  The override is scoped to the call (restored on exit) and
        assumes calls on one engine are serialized, which the server's
        per-graph lock guarantees.
        """
        if deadline_seconds is not None or retry is not None:
            if deadline_seconds is not None and deadline_seconds <= 0:
                raise ValueError(
                    f"deadline_seconds must be positive, got {deadline_seconds!r}"
                )
            saved = (self._deadline_seconds, self._retry)
            if deadline_seconds is not None:
                self._deadline_seconds = deadline_seconds
            if retry is not None:
                self._retry = retry
            try:
                return self.match_with_stats(query, expand_output)
            finally:
                self._deadline_seconds, self._retry = saved
        if self._incremental:
            # Streaming mode: the session's per-seed cache answers reads;
            # the timing below measures the cache read (the evaluation
            # cost was paid at registration / by apply_delta).
            session = self.streaming_session()
            start = time.perf_counter()
            name = session.register(
                query.compiled if isinstance(query, QueryPlan) else query
            )
            table = session.table(name)
            if expand_output:
                _ = table.rows
            elapsed = time.perf_counter() - start
            return MatchResult(
                table=table,
                interval_seconds=elapsed,
                total_seconds=elapsed,
                output_size=len(table),
                frontier_rows=len(session._state(name).contributions),
            )
        if isinstance(query, QueryPlan):
            compiled, chain = query.compiled, query.chain
        else:
            compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
            chain = self._compile(compiled)
        stats = _ChainStats()
        degradation: dict | None = None
        mode = self._output_mode(chain)

        self._arm_deadline()
        try:
            start = time.perf_counter()
            cplan = self._columnar_plan(chain)
            if cplan is not None and not self._columnar_process_engages(cplan):
                # Full-query columnar run: seeds come straight from the
                # context's condition CSR, never materializing Row
                # objects (the win on cheap full-scan queries).  When
                # the process pool engages, Row seeds are built below
                # and the workers run the columnar ops per chunk.
                data, frontier_rows, merged = columnar_kernel.run_query(
                    self._index.columnar_context(),
                    cplan,
                    compiled.variables,
                    mode,
                    self._deadline,
                )
                stats.rows_merged += merged
                table = data  # points: already a (lazy) table
                if mode == "families":
                    table = IntervalBindingTable(compiled.variables, data)
                interval_seconds = time.perf_counter() - start
            else:
                seeds, rest = self._initial_frontier(chain)
                if self._process_engages(seeds):
                    data, frontier_rows, chain_seconds = self._run_resilient(
                        rest, seeds, compiled.variables, mode, stats
                    )
                    if self._last_degradation is not None:
                        degradation = self._last_degradation.to_dict()
                    if mode == "families":
                        table = IntervalBindingTable(compiled.variables, data)
                    else:
                        table = BindingTable.build(compiled.variables, data)
                    interval_seconds = chain_seconds
                else:
                    frontier = self._run_chain_chunks(seeds, rest, stats)
                    interval_seconds = time.perf_counter() - start
                    table = self._build_table(chain, frontier, compiled.variables)
                    frontier_rows = len(frontier)
            if expand_output:
                _ = table.rows
            total_seconds = time.perf_counter() - start
        finally:
            self._disarm_deadline()
        return MatchResult(
            table=table,
            interval_seconds=interval_seconds,
            total_seconds=total_seconds,
            output_size=len(table),
            frontier_rows=frontier_rows,
            rows_merged=stats.rows_merged,
            degradation=degradation,
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
        if self._incremental:
            session = self.streaming_session()
            return session.results(
                session.register(
                    query.compiled if isinstance(query, QueryPlan) else query
                )
            )
        if isinstance(query, QueryPlan):
            compiled, chain = query.compiled, query.chain
        else:
            compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
            chain = self._compile(compiled)
        stats = _ChainStats()
        spread = bind_group_indices(chain)
        if spread is not None and len(spread) > 1:
            raise EvaluationError(
                "interval (coalesced) output is only defined when every "
                "variable is bound within a single temporal group"
            )
        self._arm_deadline()
        try:
            cplan = self._columnar_plan(chain)
            if cplan is not None and not self._columnar_process_engages(cplan):
                families, _rows, merged = columnar_kernel.run_query(
                    self._index.columnar_context(),
                    cplan,
                    compiled.variables,
                    "families",
                    self._deadline,
                )
                stats.rows_merged += merged
                return families
            seeds, rest = self._initial_frontier(chain)
            if self._process_engages(seeds):
                families, _rows, _seconds = self._run_resilient(
                    rest, seeds, compiled.variables, "families", stats
                )
                return families
            frontier = self._run_chain_chunks(seeds, rest, stats)
            return self._materializer.families(frontier, compiled.variables)
        finally:
            self._disarm_deadline()

    def explain(self, query: TypingUnion[str, MatchQuery, CompiledMatch]) -> dict:
        """The execution plan a :meth:`match` call would use, without running it.

        Returns a dictionary with the configured and effective backend
        (``"sequential"`` when the frontier is too small to engage any
        worker pool), the output mode (``families`` = interval-native,
        ``points``), and the degree-weighted chunk plan the partitioner
        would produce.  ``repro query … --explain`` prints this.
        """
        compiled = query if isinstance(query, CompiledMatch) else compile_match(query)
        chain = self._compile(compiled)
        seeds, rest = self._initial_frontier(chain)
        engages = self._engages(seeds)
        if engages:
            chunks = weighted_chunks(seeds, self._workers, self._seed_weight)
        else:
            chunks = [seeds]
        return {
            "backend": self._backend,
            "effective_backend": self._backend if engages else "sequential",
            "workers": self._workers,
            "start_method": self._start_method,
            "kernel": self._kernel,
            **self.kernel_for(chain),
            "seed_rows": len(seeds),
            "chain_steps": len(rest),
            "output_mode": self._output_mode(chain),
            "chunks": [
                {
                    "seeds": len(chunk),
                    "weight": chunk_weight(chunk, self._seed_weight),
                }
                for chunk in chunks
            ],
            "deadline_seconds": self._deadline_seconds,
            "retry": None if self._retry is None else self._retry.to_dict(),
            # How the engine's most recent resilient run actually went —
            # retries and backend demotion leave their audit trail here.
            "last_degradation": (
                None
                if self._last_degradation is None
                else self._last_degradation.to_dict()
            ),
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

    # ------------------------------------------------------------------ #
    # Steps 1 & 2: interval-based frontier processing
    # ------------------------------------------------------------------ #
    def _collector_for(self, step: ChainStep) -> TypingUnion[Frontier, RowFrontier]:
        """The cheapest collector that preserves the frontier invariant.

        Test, Bind and Temporal steps are injective on binding
        signatures — applied to a signature-unique frontier they cannot
        produce two signature-equal rows (a Test only narrows the last
        validity family, which the signature excludes; a Bind extends
        the bindings deterministically; a Temporal step folds the last
        family into the signature, which distinguished the inputs).
        Those steps skip the signature bookkeeping entirely; only
        structural moves, fused hops and alternatives — where distinct
        rows can converge on the same signature — pay for the
        coalescing collector.
        """
        if isinstance(step, (StructStep, HopStep, AltStep)):
            return Frontier(self._index.object_id)
        return RowFrontier()

    def _run_chain(self, chain: tuple[ChainStep, ...], stats: _ChainStats) -> list[Row]:
        seeds, chain = self._initial_frontier(chain)
        return self._run_chain_chunks(seeds, chain, stats)

    def _run_chain_chunks(
        self, seeds: list[Row], chain: tuple[ChainStep, ...], stats: _ChainStats
    ) -> list[Row]:
        if not self._engages(seeds):
            return self._run_chain_on(seeds, chain, stats)
        # Degree-weighted chunks (shared with the process backend): a
        # count-based split lets one hub-heavy chunk straggle.
        chunks = weighted_chunks(seeds, self._workers, self._seed_weight)
        chunk_stats = [_ChainStats() for _ in chunks]
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                pool.submit(self._run_chain_on, chunk, chain, chunk_stat)
                for chunk, chunk_stat in zip(chunks, chunk_stats)
            ]
            partials = [future.result() for future in futures]
        for chunk_stat in chunk_stats:
            stats.rows_merged += chunk_stat.rows_merged
        # Signature-equal rows may have landed in different chunks; one
        # final merge restores the frontier invariant.
        combined = Frontier(self._index.object_id)
        for partial in partials:
            for row in partial:
                combined.add(row)
        stats.rows_merged += combined.rows_merged
        return combined.rows()

    def _engages(self, seeds: list[Row]) -> bool:
        """Whether any worker pool engages for this seed frontier.

        The single engagement predicate shared by the thread path, the
        process dispatch and :meth:`explain` — small frontiers always
        run sequentially, where per-chunk overhead would dominate.
        """
        return self._workers > 1 and len(seeds) >= 2 * self._workers

    # ------------------------------------------------------------------ #
    # Process backend (repro.parallel)
    # ------------------------------------------------------------------ #
    def _process_engages(self, seeds: list[Row]) -> bool:
        """Whether this query dispatches to the worker-process pool.

        Small frontiers fall back to the sequential/thread path: the
        per-task pickling cost would dominate any win, which is exactly
        the regime where the GIL-bound backends are already fine.
        """
        return self._backend == "process" and self._engages(seeds)

    def _process_run(
        self,
        chain: tuple[ChainStep, ...],
        seeds: list[Row],
        variables: tuple[str, ...],
        mode: str,
        stats: _ChainStats,
    ) -> tuple[list, int, float]:
        """Chunked Steps 1–3 in worker processes, one coalescing merge here.

        Returns ``(data, frontier_rows, chain_seconds)`` where ``data``
        is a merged family list (``mode="families"``) or point tuples
        (``mode="points"``) and ``chain_seconds`` is the longest
        per-worker Steps-1–2 time (the parallel critical path).
        """
        from repro.parallel.merge import merge_family_chunks, merge_point_chunks
        from repro.parallel.plan import pack_seeds, plan_for
        from repro.parallel.pool import shared_pool

        # Workers replicate the effective kernel: columnar only when the
        # parent's configuration can actually run it (per-chain shape
        # fallbacks are re-decided worker-side from the same ops).
        effective_kernel = (
            "columnar"
            if self._kernel == "columnar" and self._kernel_unavailable is None
            else "interpreted"
        )
        plan = plan_for(self._graph, effective_kernel)
        pool = shared_pool(self._workers, self._start_method)
        chunks = weighted_chunks(seeds, self._workers, self._seed_weight)
        packed = [pack_seeds(chunk) for chunk in chunks]
        results = pool.run_chunks(
            plan, chain, packed, mode, variables, deadline=self._deadline
        )
        stats.rows_merged += sum(result["rows_merged"] for result in results)
        frontier_rows = sum(result["frontier_rows"] for result in results)
        chain_seconds = max(result["chain_seconds"] for result in results)
        if mode == "families":
            data: list = merge_family_chunks([result["data"] for result in results])
        else:
            data = merge_point_chunks([result["data"] for result in results])
        return data, frontier_rows, chain_seconds

    def _seed_weight(self, row: Row) -> int:
        """Chunking weight of one seed row (its indexed out-degree)."""
        return self._index.seed_weight(row.last.current)

    @staticmethod
    def _row_cost(row: Row) -> int:
        """Chunking weight of one surviving row during materialization."""
        return 1 + sum(group.times.total_points() for group in row.groups)

    def _initial_frontier(
        self, chain: tuple[ChainStep, ...]
    ) -> tuple[list[Row], tuple[ChainStep, ...]]:
        """Seed rows plus the chain remaining after any absorbed leading test.

        A leading :class:`TestStep` is answered from the index's
        memoized condition table, so the frontier starts with only the
        objects that can match (and their satisfaction times) instead of
        every object of the graph.
        """
        if chain and isinstance(chain[0], TestStep):
            table = self._index.condition_table(chain[0].condition)
            seeds = [
                Row((Group((), obj, times),), ()) for obj, times in table.items()
            ]
            return seeds, chain[1:]
        domain_times = self._domain_times
        return [initial_row(obj, domain_times) for obj in self._graph.objects()], chain

    def _seed_rows_for(
        self, chain: tuple[ChainStep, ...], objects: Iterable[ObjectId]
    ) -> dict[ObjectId, Row]:
        """Fresh seed rows for just ``objects`` — the per-object form of
        :meth:`_initial_frontier`, used by streaming sessions so an
        incremental update never pays for the full seed table.

        The returned rows belong to the same frontier `_initial_frontier`
        would produce (same absorbed-test times); objects that would not
        seed this chain are simply absent.
        """
        if chain and isinstance(chain[0], TestStep):
            table = self._index.condition_table(chain[0].condition)
            rows: dict[ObjectId, Row] = {}
            for obj in objects:
                times = table.get(obj)
                if times is not None:
                    rows[obj] = Row((Group((), obj, times),), ())
            return rows
        graph = self._graph
        return {
            obj: initial_row(obj, self._domain_times)
            for obj in objects
            if graph.has_object(obj)
        }

    def _run_chain_on(
        self, frontier: list[Row], chain: Sequence[ChainStep], stats: _ChainStats
    ) -> list[Row]:
        current = frontier
        deadline = self._deadline
        for completed, step in enumerate(chain):
            if not current:
                break
            # Chaos hook: "sleep" models a pathologically slow step,
            # "raise" a mid-chain fault (both serial and thread rungs).
            failpoints.fire("engine.step")
            if deadline is not None:
                deadline.progress["steps_completed"] = completed
                deadline.progress["frontier_rows"] = len(current)
                deadline.check()
            collector = self._collector_for(step)
            self._apply_step(current, step, collector, stats)
            stats.rows_merged += collector.rows_merged
            current = collector.rows()
        return current

    def _apply_step(
        self,
        frontier: list[Row],
        step: ChainStep,
        out: TypingUnion[Frontier, RowFrontier],
        stats: _ChainStats,
    ) -> None:
        if isinstance(step, TestStep):
            self._apply_test(frontier, step.condition, out)
        elif isinstance(step, StructStep):
            self._apply_struct(frontier, step.forward, out)
        elif isinstance(step, HopStep):
            self._apply_hop(frontier, step, out)
        elif isinstance(step, TemporalStep):
            self._apply_temporal(frontier, step, out)
        elif isinstance(step, BindStep):
            for row in frontier:
                out.add(row.replace_last(row.last.bind(step.variable)))
        elif isinstance(step, AltStep):
            for alternative in step.alternatives:
                for row in self._run_chain_on(list(frontier), alternative, stats):
                    out.add(row)
        else:
            raise TypeError(f"unknown chain step {step!r}")

    def _apply_test(
        self,
        frontier: list[Row],
        condition: Test,
        out: TypingUnion[Frontier, RowFrontier],
    ) -> None:
        deadline = self._deadline
        # One memoized condition table shared by every row (and every
        # later query on the same graph) replaces a per-row AST walk.
        table = self._index.condition_table(condition)
        for row in frontier:
            if deadline is not None:
                deadline.tick()
            group = row.last
            satisfied = table.get(group.current)
            if satisfied is None:
                continue
            times = group.times.intersect(satisfied)
            if times.is_empty():
                continue
            out.add(row.replace_last(group.with_times(times)))

    def _apply_struct(
        self,
        frontier: list[Row],
        forward: bool,
        out: TypingUnion[Frontier, RowFrontier],
    ) -> None:
        deadline = self._deadline
        index = self._index
        adjacency = index.out_adjacency if forward else index.in_adjacency
        endpoint = index.edge_target if forward else index.edge_source
        for row in frontier:
            if deadline is not None:
                deadline.tick()
            group = row.last
            current = group.current
            edges = adjacency.get(current)
            if edges is not None:
                for edge in edges:
                    out.add(row.replace_last(group.with_current(edge, group.times)))
            else:
                out.add(
                    row.replace_last(
                        group.with_current(endpoint[current], group.times)
                    )
                )

    def _apply_hop(
        self,
        frontier: list[Row],
        step: HopStep,
        out: TypingUnion[Frontier, RowFrontier],
    ) -> None:
        """Fused structural hop through the index's memoized entries."""
        deadline = self._deadline
        index = self._index
        for row in frontier:
            if deadline is not None:
                deadline.tick()
            group = row.last
            entries = index.hop_entries(
                group.current,
                step.forward_in,
                step.mid_conditions,
                step.forward_out,
                step.target_conditions,
            )
            times = group.times
            for target, hop_times in entries:
                joined = times.intersect(hop_times)
                if joined.is_empty():
                    continue
                out.add(row.replace_last(group.with_current(target, joined)))

    def _apply_temporal(
        self,
        frontier: list[Row],
        step: TemporalStep,
        out: TypingUnion[Frontier, RowFrontier],
    ) -> None:
        index = self._index
        domain = self._graph.domain
        # Conditions fused into the step: rows whose object cannot
        # satisfy them never reach the window arithmetic below.
        condition_tables = tuple(
            index.condition_table(c) for c in step.target_conditions
        )
        deadline = self._deadline
        for row in frontier:
            if deadline is not None:
                deadline.tick()
            group = row.last
            satisfied: IntervalSet | None = None
            if condition_tables:
                for table in condition_tables:
                    found = table.get(group.current)
                    if found is None:
                        satisfied = IntervalSet.empty()
                        break
                    satisfied = (
                        found if satisfied is None else satisfied.intersect(found)
                    )
                if satisfied is not None and satisfied.is_empty():
                    continue
            existence = index.existence[group.current]
            accumulator = IntervalSetAccumulator()
            for anchor in group.times:
                for _anchor_piece, window in reachable_window(
                    anchor,
                    existence,
                    step.lower,
                    step.upper,
                    step.forward,
                    step.require_existence,
                    domain,
                ):
                    accumulator.add_interval(window)
            if not accumulator:
                continue
            reached = accumulator.build()
            if satisfied is not None:
                reached = reached.intersect(satisfied)
                if reached.is_empty():
                    continue
            link = TemporalLink(
                obj=group.current,
                forward=step.forward,
                lower=step.lower,
                upper=step.upper,
                contiguous=step.require_existence,
            )
            new_group = Group((), group.current, reached)
            out.add(row.append_group(new_group, link))

    # ------------------------------------------------------------------ #
    # Step 3: materialization
    # ------------------------------------------------------------------ #
    def _build_table(
        self,
        chain: tuple[ChainStep, ...],
        frontier: list[Row],
        variables: tuple[str, ...],
    ) -> TypingUnion[BindingTable, IntervalBindingTable]:
        """The output table, staying interval-native whenever possible.

        When the chain statically binds every variable within one
        temporal group (``bind_group_indices``), the engine
        returns an :class:`IntervalBindingTable` built directly from the
        materializer's families — no point expansion, no row sort;
        the family merge is global, so the table's one-entry-per-binding
        invariant holds and is never split across worker chunks.  All
        other shapes (group-spanning or branch-dependent binds) take the
        point-row path.
        """
        if self._output_mode(chain) == "families":
            families = self._materializer.families(frontier, variables)
            return IntervalBindingTable(variables, families)
        rows = self._materialize(frontier, variables)
        return BindingTable.build(variables, rows)

    def _output_mode(self, chain: tuple[ChainStep, ...]) -> str:
        """``"families"`` when the output can stay interval-native, else ``"points"``."""
        spread = bind_group_indices(chain)
        if spread is not None and len(spread) <= 1:
            return "families"
        return "points"

    def _materialize(self, frontier: list[Row], variables: tuple[str, ...]) -> list[tuple]:
        if not self._engages(frontier):
            return self._materializer.points(frontier, variables)
        # Same weighted partitioner as the chain run; here the cost
        # proxy is the rows' covered time points (expansion work).
        chunks = weighted_chunks(frontier, self._workers, self._row_cost)
        out: list[tuple] = []
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                pool.submit(self._materializer.points, chunk, variables)
                for chunk in chunks
            ]
            for future in futures:
                out.extend(future.result())
        return out
