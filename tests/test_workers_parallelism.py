"""Worker partitioning must be invisible in every output representation.

The dataflow engine can split the seed frontier across a worker-process
pool (``workers > 1``) and, under the coalesced frontier,
signature-equal rows may land in different chunks.  The chunked run must
re-merge them into a canonically coalesced result — no duplicate binding
signatures, every interval family coalesced — and every public output
(``match``, ``match_with_stats``, ``match_intervals``) must be identical
to the ``workers=1`` run.  These are the invariants this module pins —
for the ``repro.parallel`` process pool (output identity across start
methods and against the reference engine), the degree-weighted
partitioner, and worker-crash error propagation.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.datagen import (
    ContactTracingConfig,
    TrajectoryConfig,
    generate_contact_tracing_graph,
)
from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import EvaluationError, ReproError, RetryBudgetExceeded
from repro.eval import ReferenceEngine
from repro.parallel import plan_for, weighted_chunks
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, shared_pool, shutdown_pools
from repro.resilience import RetryPolicy, failpoints
from repro.temporal.coalesce import is_coalesced


@pytest.fixture(scope="module")
def contact_graph():
    """Large enough that the per-worker chunking actually engages."""
    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=30, num_locations=10, num_rooms=5, num_windows=16, seed=7
        ),
        positivity_rate=0.2,
        seed=7,
    )
    return generate_contact_tracing_graph(config)


def canonical_families(engine, query):
    try:
        families = engine.match_intervals(query)
    except EvaluationError:
        return None
    return sorted(
        ((bindings, tuple(times.intervals)) for bindings, times in families),
        key=repr,
    )


class TestChunkedFrontierInvariants:
    @pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q9", "Q11", "Q12"])
    def test_merged_frontier_has_unique_coalesced_signatures(
        self, contact_graph, query_name
    ):
        engine = DataflowEngine(contact_graph, workers=4)
        query = PAPER_QUERIES[query_name].text
        if query_name in ("Q1", "Q5"):
            # Full scans must actually engage the pool, otherwise the
            # re-merge below is vacuous (selective queries like Q9
            # legitimately seed fewer rows than 2 x workers and run
            # sequentially).
            assert engine.explain(query)["effective_backend"] == "process"
        families = engine.match_intervals(query)
        bindings = [binding for binding, _times in families]
        assert len(bindings) == len(set(bindings)), (
            f"{query_name}: chunked merge left duplicate bindings"
        )
        for _binding, times in families:
            assert is_coalesced(list(times.intervals))
        assert canonical_families(engine, query) == canonical_families(
            DataflowEngine(contact_graph), query
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_any_output(self, contact_graph, workers):
        sequential = DataflowEngine(contact_graph)
        parallel = DataflowEngine(contact_graph, workers=workers)
        for name, query in PAPER_QUERIES.items():
            seq_result = sequential.match_with_stats(query.text)
            par_result = parallel.match_with_stats(query.text)
            assert seq_result.output_size == par_result.output_size, name
            assert seq_result.table.as_set() == par_result.table.as_set(), name
            assert canonical_families(sequential, query.text) == canonical_families(
                parallel, query.text
            ), name

    def test_workers_agree_on_random_graphs(self):
        for seed in range(12):
            graph = random_itpg(seed, num_nodes=14, num_edges=24, num_windows=10)
            query = random_match_query(seed * 31 + 7)
            sequential = DataflowEngine(graph)
            parallel = DataflowEngine(graph, workers=4)
            assert (
                sequential.match(query).as_set() == parallel.match(query).as_set()
            ), f"workers diverged on random seed {seed}"
            assert canonical_families(sequential, query) == canonical_families(
                parallel, query
            ), f"workers family output diverged on random seed {seed}"


class TestExplainMatchesDispatch:
    """``explain()`` reports the backend a match call really runs, and the
    very chunks of seed objects the pool receives."""

    @pytest.mark.parametrize("query_name", ["Q1", "Q5"])
    def test_process_backend_plan_matches_the_run(
        self, contact_graph, query_name, monkeypatch
    ):
        from repro.parallel import chunk_weight

        query = PAPER_QUERIES[query_name].text
        dispatched = []
        real_run_chunks = WorkerPool.run_chunks

        def recording_run_chunks(self, plan, chain, chunks, *args, **kwargs):
            dispatched.append([list(chunk) for chunk in chunks])
            return real_run_chunks(self, plan, chain, chunks, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_chunks", recording_run_chunks)
        for workers in (1, 2):
            engine = DataflowEngine(contact_graph, workers=workers)
            plan = engine.explain(query)
            dispatched.clear()
            engine.match_with_stats(query)
            assert sum(chunk["seeds"] for chunk in plan["chunks"]) == plan["seed_rows"]
            if workers == 1:
                # One serial pass: the pool never runs.
                assert plan["effective_backend"] == "sequential"
                assert len(plan["chunks"]) == 1
                assert dispatched == []
            else:  # the planned chunks really go to the worker processes
                assert plan["effective_backend"] == "process"
                assert len(dispatched) == 1
                received = dispatched[0]
                assert len(received) == engine.workers
                weight = engine.index.seed_weight
                assert plan["chunks"] == [
                    {"seeds": len(chunk), "weight": chunk_weight(chunk, weight)}
                    for chunk in received
                ]
                # Each seed object goes to exactly one chunk.
                shipped = [obj for chunk in received for obj in chunk]
                assert len(shipped) == len(set(shipped)) == plan["seed_rows"]


class TestWeightedChunks:
    """The degree-weighted partitioner the pool and ``explain()`` share."""

    def test_covers_all_items_within_bounds(self):
        items = list(range(11))
        chunks = weighted_chunks(items, 4, weight=lambda x: 1 + x)
        assert sorted(x for chunk in chunks for x in chunk) == items
        assert len(chunks) <= 4
        assert all(chunks)

    def test_single_part_is_identity(self):
        items = list(range(5))
        assert weighted_chunks(items, 1, weight=lambda x: x + 1) == [items]

    def test_unit_weights_balance_counts(self):
        chunks = weighted_chunks(list(range(10)), 3)
        assert sorted(len(chunk) for chunk in chunks) == [3, 3, 4]

    def test_hub_heavy_weights_balance_load(self):
        # One hub of weight 100 among 15 unit items: a count-based split
        # into 4 chunks puts the hub plus 3 units in one chunk (load
        # 103 vs 4); LPT isolates the hub and spreads the rest.
        weights = {0: 100}
        items = list(range(16))
        chunks = weighted_chunks(items, 4, weight=lambda x: weights.get(x, 1))
        loads = sorted(
            sum(weights.get(x, 1) for x in chunk) for chunk in chunks
        )
        assert loads == [5, 5, 5, 100]

    def test_deterministic_and_order_preserving(self):
        items = list(range(20))
        first = weighted_chunks(items, 3, weight=lambda x: (x * 7) % 5 + 1)
        second = weighted_chunks(items, 3, weight=lambda x: (x * 7) % 5 + 1)
        assert first == second
        for chunk in first:
            assert chunk == sorted(chunk)


@pytest.fixture
def fresh_pools():
    """Isolate tests that poison the shared pool registry (fault injection)."""
    shutdown_pools()
    yield
    shutdown_pools()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class TestProcessBackend:
    """`repro.parallel`: process partitioning must be invisible too."""

    def test_process_backend_output_identity_all_queries(self, contact_graph):
        sequential = DataflowEngine(contact_graph)
        process = DataflowEngine(contact_graph, workers=2)
        for name, query in PAPER_QUERIES.items():
            seq_result = sequential.match_with_stats(query.text)
            par_result = process.match_with_stats(query.text)
            assert seq_result.output_size == par_result.output_size, name
            assert seq_result.table.as_set() == par_result.table.as_set(), name
            assert canonical_families(sequential, query.text) == canonical_families(
                process, query.text
            ), name

    def test_process_backend_agrees_with_fuzz_oracle_engines(self, fresh_pools):
        """The process backend vs the oracle ground truth."""
        start_method = "fork" if _fork_available() else None
        for seed in (0, 3, 7):
            graph = random_itpg(seed, num_nodes=14, num_edges=24, num_windows=10)
            query = random_match_query(seed * 31 + 7)
            reference = ReferenceEngine(graph).match(query).as_set()
            sequential = DataflowEngine(graph)
            process = DataflowEngine(graph, workers=2, start_method=start_method)
            assert process.match(query).as_set() == reference, seed
            assert canonical_families(sequential, query) == canonical_families(
                process, query
            ), seed

    @pytest.mark.parametrize(
        "start_method",
        [
            pytest.param(
                "fork",
                marks=pytest.mark.skipif(
                    not _fork_available(), reason="fork not available"
                ),
            ),
            "spawn",
        ],
    )
    def test_process_backend_start_methods(self, contact_graph, start_method):
        sequential = DataflowEngine(contact_graph)
        process = DataflowEngine(
            contact_graph, workers=2, start_method=start_method
        )
        for name in ("Q1", "Q5", "Q11"):
            query = PAPER_QUERIES[name].text
            assert (
                sequential.match(query).as_set() == process.match(query).as_set()
            ), (start_method, name)
            assert canonical_families(sequential, query) == canonical_families(
                process, query
            ), (start_method, name)

    def test_plan_payload_is_shared_and_cached(self, contact_graph):
        engine = DataflowEngine(contact_graph, workers=2)
        other = DataflowEngine(contact_graph, workers=2)
        plan = plan_for(engine.graph)
        assert plan_for(other.graph) is plan
        payload = plan.payload
        assert plan.payload is payload  # serialized once, then reused
        engine.match(PAPER_QUERIES["Q1"].text)
        pool = shared_pool(2)
        assert plan.token in pool._warm and pool._warm[plan.token]

    def test_small_frontier_falls_back_to_sequential(self, contact_graph):
        engine = DataflowEngine(contact_graph, workers=64)
        plan = engine.explain(PAPER_QUERIES["Q9"].text)
        assert plan["effective_backend"] == "sequential"
        assert len(plan["chunks"]) == 1

    def test_explain_reports_weighted_chunk_plan(self, contact_graph):
        engine = DataflowEngine(contact_graph, workers=2)
        plan = engine.explain(PAPER_QUERIES["Q1"].text)
        assert plan["effective_backend"] == "process"
        assert plan["output_mode"] == "families"
        assert sum(chunk["seeds"] for chunk in plan["chunks"]) == plan["seed_rows"]
        weights = [chunk["weight"] for chunk in plan["chunks"]]
        assert len(weights) > 1
        # Balance with teeth: no chunk may hold the whole load, and the
        # heaviest chunk can exceed the lightest by at most one seed's
        # weight (the LPT guarantee when no single seed dominates).
        assert max(weights) < sum(weights)
        seeds, _rest = engine._seed_objects(engine.prepare(PAPER_QUERIES["Q1"].text).chain)
        heaviest_seed = max(engine.index.seed_weight(obj) for obj in seeds)
        assert max(weights) - min(weights) <= heaviest_seed
        assert all(chunk["seeds"] > 0 for chunk in plan["chunks"])

    def test_workers_zero_means_cpu_count(self, contact_graph):
        engine = DataflowEngine(contact_graph, workers=0)
        assert engine.workers == (os.cpu_count() or 1)

    def test_unknown_backend_rejected(self, contact_graph):
        # ``workers > 1`` is the process pool; there is no backend option.
        with pytest.raises(TypeError, match="parallel_backend"):
            DataflowEngine(contact_graph, workers=2, parallel_backend="thread")

    def test_unknown_start_method_rejected(self, contact_graph):
        with pytest.raises(ValueError, match="unknown start method"):
            DataflowEngine(contact_graph, workers=2, start_method="warp")

    def test_uncovered_chain_runs_in_the_process_pool(self, contact_graph):
        """``workers > 1`` means worker processes for every chain shape: a
        temporal alternation runs as distributed leaves in each chunk and
        answers like the reference engine."""
        from repro.lang import ast
        from repro.lang.parser import MatchQuery, NodePattern, PathPattern

        # x meets y, and y is bound one step before or after the meeting.
        path = ast.concat(
            ast.F, ast.test(ast.label("meets")), ast.F, ast.union(ast.N, ast.P)
        )
        query = MatchQuery(
            elements=(NodePattern(variable="x"), NodePattern(variable="y")),
            connectors=(PathPattern(path=path, source_text="<meets-(n+p)>"),),
            graph_name="g",
            text="<meets-(n+p)>",
        )
        engine = DataflowEngine(contact_graph, workers=2)
        plan = engine.explain(query)
        assert (plan["effective_backend"], plan["effective_kernel"]) == (
            "process",
            "columnar",
        )
        expected = ReferenceEngine(contact_graph).match(query).as_set()
        assert expected
        assert engine.match(query).as_set() == expected


class TestDeltaPlanInvalidation:
    """Regression: an in-place delta must rotate the cached execution plan.

    ``plan_for`` memoizes the pickled graph payload and a stable token
    on the graph object, and warm worker processes key their resident
    graphs by that token.  Before the fix, ``apply_delta`` mutated the
    graph without touching either, so every later process-backend query
    was answered from the *pre-delta* graph held by the warm workers —
    batch-new endpoints were simply invisible (or crashed the worker
    with a ``KeyError`` on a new object id).  ``apply_delta`` now drops
    the memoized plans and rotates the token at commit time; these tests
    fail on the pre-fix code.
    """

    QUERY = PAPER_QUERIES["Q5"].text

    def _mutable_contact_graph(self):
        """A private copy of the contact graph (these tests mutate it)."""
        config = ContactTracingConfig(
            trajectory=TrajectoryConfig(
                num_persons=30, num_locations=10, num_rooms=5, num_windows=16, seed=7
            ),
            positivity_rate=0.2,
            seed=7,
        )
        return generate_contact_tracing_graph(config)

    def _divergence_batch(self, graph):
        """A delta adding a new Q5 match: low-risk person meets a new node."""
        from repro.streaming import DeltaBatch

        source = interval = None
        for node in graph.nodes():
            if graph.label(node) != "Person":
                continue
            for entry in graph.property_family(node, "risk"):
                if entry.value == "low" and len(entry.interval) >= 2:
                    source, interval = node, entry.interval
                    break
            if source is not None:
                break
        assert source is not None, "contact graph lost its low-risk persons"
        span = [(interval.start, interval.end)]
        batch = DeltaBatch(sequence=1)
        batch.add_node("zz_new", "Person", span)
        batch.set_property("zz_new", "risk", "high", interval.start, interval.end)
        batch.add_edge("zz_edge", "meets", source, "zz_new", span)
        return batch

    def test_invalidate_plans_rotates_the_token(self):
        from repro.parallel.plan import graph_token, invalidate_plans

        graph = self._mutable_contact_graph()
        token = graph_token(graph)
        plan = plan_for(graph)
        assert plan.token == token
        assert invalidate_plans(graph) is True
        assert graph_token(graph) != token
        assert plan_for(graph) is not plan
        # A graph with nothing cached reports no-op.
        assert invalidate_plans(self._mutable_contact_graph()) is False

    def test_process_backend_sees_in_place_delta(self):
        from repro.model.io import from_json_dict, to_json_dict
        from repro.parallel.plan import graph_token
        from repro.streaming import apply_delta

        graph = self._mutable_contact_graph()
        engine = DataflowEngine(graph, workers=2)
        stale = canonical_families(engine, self.QUERY)  # warms plan + workers
        token_before = graph_token(graph)
        batch = self._divergence_batch(graph)
        effects = apply_delta(graph, batch)
        engine.index.apply_delta(effects)
        assert graph_token(graph) != token_before
        # Ground truth: a cold engine over a fresh copy of the mutated graph.
        cold = DataflowEngine(from_json_dict(to_json_dict(graph)))
        fresh = canonical_families(cold, self.QUERY)
        assert fresh != stale, "the delta must change the Q5 answer"
        assert canonical_families(engine, self.QUERY) == fresh
        # The serial view over the maintained shared index agrees too.
        assert canonical_families(DataflowEngine(graph), self.QUERY) == fresh


@pytest.mark.skipif(not _fork_available(), reason="fault injection relies on fork")
class TestProcessBackendFaults:
    """Worker failures must surface, and the next query must recover."""

    def _engine(self, graph):
        return DataflowEngine(graph, workers=2, start_method="fork")

    def test_worker_exception_propagates(self, contact_graph, fresh_pools, monkeypatch):
        def boom(*args):
            raise RuntimeError("injected worker failure")

        # ``_execute_chunk`` resolves the runner through a module global,
        # so fork-started workers inherit the patched function.
        monkeypatch.setattr(pool_module, "_chunk_runner", boom)
        engine = self._engine(contact_graph)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            engine.match(PAPER_QUERIES["Q1"].text)

    def test_worker_crash_raises_evaluation_error_and_recovers(
        self, contact_graph, fresh_pools, monkeypatch
    ):
        def crash(*args):
            os._exit(17)

        monkeypatch.setattr(pool_module, "_chunk_runner", crash)
        engine = self._engine(contact_graph)
        with pytest.raises(EvaluationError, match="worker crashed"):
            engine.match(PAPER_QUERIES["Q1"].text)
        # The broken pool was retired from the registry; with the fault
        # removed, the same engine works again on a fresh pool.
        monkeypatch.setattr(pool_module, "_chunk_runner", pool_module._run_chunk)
        shutdown_pools()
        sequential = DataflowEngine(contact_graph)
        assert (
            engine.match(PAPER_QUERIES["Q1"].text).as_set()
            == sequential.match(PAPER_QUERIES["Q1"].text).as_set()
        )

    def test_crash_error_is_a_repro_error(self, contact_graph, fresh_pools, monkeypatch):
        monkeypatch.setattr(
            pool_module, "_chunk_runner", lambda *args: os._exit(3)
        )
        engine = self._engine(contact_graph)
        with pytest.raises(ReproError):
            engine.match(PAPER_QUERIES["Q1"].text)


#: The start-method matrix the crash-recovery tests must survive.
START_METHODS = [
    pytest.param(
        "fork",
        marks=pytest.mark.skipif(not _fork_available(), reason="fork not available"),
    ),
    "spawn",
]


class TestFailpointCrashRecovery:
    """PR 6: a SIGKILLed worker must not change the answer.

    The ``worker.chunk`` / ``worker.install`` failpoints (armed through
    the cross-process registry, so spawn-started workers see them too)
    kill or fault real pool workers mid-query.  With a
    :class:`RetryPolicy` the engine must either recover in place within
    the retry budget or demote the backend — and in every case produce
    output identical to the serial run.
    """

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self, fresh_pools):
        failpoints.disarm_all()
        yield
        failpoints.disarm_all()

    @staticmethod
    def _policy(**overrides):
        defaults = dict(retries=2, base_delay=0.01, max_delay=0.05, seed=11)
        defaults.update(overrides)
        return RetryPolicy(**defaults)

    def _resilient_engine(self, graph, start_method, **overrides):
        return DataflowEngine(
            graph,
            workers=2,
            start_method=start_method,
            retry=self._policy(**overrides),
        )

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_sigkill_recovers_within_retry_budget(self, contact_graph, start_method):
        query = PAPER_QUERIES["Q1"].text
        serial = DataflowEngine(contact_graph).match(query).as_set()
        engine = self._resilient_engine(contact_graph, start_method)
        failpoints.arm("worker.chunk", "kill", times=1, exit_code=9)
        result = engine.match_with_stats(query)
        assert failpoints.hits("worker.chunk") >= 1, "failpoint never fired"
        assert result.table.as_set() == serial
        report = result.degradation
        assert report is not None
        assert report["final_backend"] == "process"  # recovered in place
        assert not report["degraded"]
        assert any(
            record["error_type"] == "WorkerCrashError" for record in report["failures"]
        )

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_persistent_kills_degrade_with_identical_output(
        self, contact_graph, start_method
    ):
        query = PAPER_QUERIES["Q5"].text
        serial = DataflowEngine(contact_graph).match(query).as_set()
        engine = self._resilient_engine(contact_graph, start_method, retries=1)
        failpoints.arm("worker.chunk", "kill", times=0)  # every worker, forever
        result = engine.match_with_stats(query)
        assert result.table.as_set() == serial
        report = result.degradation
        assert report is not None and report["degraded"]
        # The serial rung never enters a worker process, so the armed
        # kill cannot touch it.
        assert report["final_backend"] == "serial"
        assert len(report["failures"]) == 2  # initial attempt + 1 retry

    @pytest.mark.skipif(not _fork_available(), reason="fork keeps this test fast")
    def test_exhausted_budget_without_degradation_raises(self, contact_graph):
        engine = DataflowEngine(
            contact_graph,
            workers=2,
            start_method="fork",
            retry=self._policy(retries=1, degrade=False),
        )
        failpoints.arm("worker.chunk", "kill", times=0)
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            engine.match(PAPER_QUERIES["Q1"].text)
        attempts = excinfo.value.attempts
        assert len(attempts) == 2
        assert all(record["error_type"] == "WorkerCrashError" for record in attempts)

    @pytest.mark.skipif(not _fork_available(), reason="fork keeps this test fast")
    def test_plan_install_fault_is_retried(self, contact_graph):
        query = PAPER_QUERIES["Q11"].text
        serial = DataflowEngine(contact_graph).match(query).as_set()
        engine = self._resilient_engine(contact_graph, "fork")
        failpoints.arm("worker.install", "raise", times=1, message="install blew up")
        assert engine.match(query).as_set() == serial
        assert failpoints.hits("worker.install") >= 1

    @pytest.mark.skipif(not _fork_available(), reason="fork keeps this test fast")
    def test_without_retry_policy_crash_still_fails_fast(self, contact_graph):
        """``retry=None`` (the default) keeps the PR-4 fail-fast contract."""
        engine = DataflowEngine(contact_graph, workers=2, start_method="fork")
        failpoints.arm("worker.chunk", "kill", times=0)
        with pytest.raises(EvaluationError, match="worker crashed"):
            engine.match(PAPER_QUERIES["Q1"].text)
