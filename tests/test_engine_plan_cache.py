"""The engine's plan cache: a query text is parsed and planned once per engine.

``DataflowEngine.plans`` maps query text to a compiled ``QueryPlan``;
``match``, ``match_with_stats``, ``match_intervals`` and ``explain`` look
a ``str`` up there, while a ``QueryPlan``, an AST or a ``CompiledMatch``
bypasses it and ``prepare`` always compiles afresh.  The server looks its
normalized text up in the same cache (``GraphHost.engine.plans``), so a
request counts exactly one hit or one miss.
"""

import sys
import threading

import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.dataflow.plans import PlanCache
from repro.errors import QuerySyntaxError
from repro.eval import ReferenceEngine
from repro.lang.translate import compile_match
from repro.model.examples import contact_tracing_example
from repro.server import GraphHost, ServerState
from repro.server import PlanCache as ServerPlanCache
from repro.streaming.delta import DeltaBatch, apply_delta
from repro.streaming.engine import StreamingEngine

Q5 = PAPER_QUERIES["Q5"].text


def _counts(engine) -> tuple[int, int, int]:
    stats = engine.plans.stats()
    return stats["hits"], stats["misses"], stats["evictions"]


def _batch() -> DeltaBatch:
    """A delta over the Figure-1 example that changes Q5's answer."""
    batch = DeltaBatch(sequence=1)
    batch.add_node("n_new", "Person", [(2, 8)])
    batch.set_property("n_new", "risk", "high", 2, 8)
    batch.add_edge("e_new", "meets", "n1", "n_new", [(3, 6)])
    return batch


class TestEnginePlanCache:
    def test_repeated_text_is_one_miss_then_hits(self):
        engine = DataflowEngine(contact_tracing_example())
        first = engine.match(Q5)
        again = engine.match(Q5)
        assert _counts(engine) == (1, 1, 0)
        assert again.as_set() == first.as_set()
        plan = dict(engine.plans.entries())[Q5]
        # Every text entry point shares the one entry.
        engine.match_with_stats(Q5)
        engine.match_intervals(Q5)
        engine.explain(Q5)
        assert _counts(engine) == (4, 1, 0)
        assert dict(engine.plans.entries()) == {Q5: plan}

    def test_prepare_and_plans_bypass_the_cache(self):
        engine = DataflowEngine(contact_tracing_example())
        plan = engine.prepare(Q5)
        assert engine.prepare(Q5) is not plan  # prepare compiles afresh
        engine.match(plan)
        assert _counts(engine) == (0, 0, 0) and len(engine.plans) == 0

    def test_parse_error_raises_every_call_and_caches_nothing(self):
        engine = DataflowEngine(contact_tracing_example())
        for _ in range(2):
            with pytest.raises(QuerySyntaxError):
                engine.match("MATCH (x:Person ON contact_tracing")
        assert len(engine.plans) == 0
        assert _counts(engine) == (0, 2, 0)

    def test_capacity_two_evicts_the_least_recent_of_three(self):
        engine = DataflowEngine(contact_tracing_example(), plans=PlanCache(2))
        texts = [PAPER_QUERIES[name].text for name in ("Q1", "Q2", "Q5")]
        for text in texts:
            engine.match(text)
        assert _counts(engine) == (0, 3, 1)
        assert [text for text, _plan in engine.plans.entries()] == texts[1:]

    def test_asts_and_compiled_queries_bypass_the_cache(self):
        graph = random_itpg(3)
        engine, reference = DataflowEngine(graph), ReferenceEngine(graph)
        first, second = random_match_query(1), random_match_query(2)
        # Placeholder texts: an AST's ``text`` is no key.
        assert first.text.startswith("<") and second.text.startswith("<")
        assert first != second
        for query in (first, second, compile_match(first)):
            assert engine.match(query).as_set() == reference.match(query).as_set()
        assert len(engine.plans) == 0 and _counts(engine) == (0, 0, 0)

    def test_cached_plan_reads_the_graph_after_a_streamed_delta(self):
        engine = DataflowEngine(contact_tracing_example())
        before = engine.match(Q5).as_set()
        StreamingEngine(engine=engine).apply(_batch())
        after = engine.match(Q5).as_set()
        assert _counts(engine) == (1, 1, 0)
        patched = contact_tracing_example()
        apply_delta(patched, _batch())
        assert after == DataflowEngine(patched).match(Q5).as_set()
        assert after != before

    def test_four_threads_share_one_entry(self):
        engine = DataflowEngine(contact_tracing_example())
        expected = DataflowEngine(contact_tracing_example()).match(Q5).as_set()
        start = threading.Barrier(4)
        answers, errors = [], []

        def worker() -> None:
            try:
                start.wait()
                for _ in range(25):
                    answers.append(engine.match(Q5).as_set())
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over inside the cache's lock too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(answers) == 100 and all(answer == expected for answer in answers)
        assert len(engine.plans) == 1
        # A lost counter update would break the sum; racing first
        # lookups may each miss.
        hits, misses, _evictions = _counts(engine)
        assert hits + misses == 100 and 1 <= misses <= 4


class TestServedLookups:
    def test_the_host_looks_up_its_engine_cache_once_per_request(self):
        state = ServerState(plan_capacity=3)
        state.add_graph("default")
        host = state.host("default")
        assert host.engine.plans.capacity == 3
        assert not hasattr(host, "plans")
        outcomes = [host.query(text)["server"]["plan"] for text in ("Q1", "Q5", "Q1", " Q5 ")]
        assert outcomes == ["miss", "miss", "hit", "hit"]
        assert _counts(host.engine) == (2, 2, 0)
        with pytest.raises(QuerySyntaxError):
            host.query("MATCH (x ON g")
        assert _counts(host.engine) == (2, 3, 0)
        assert host.stats()["plan_cache"]["size"] == 2

    def test_a_host_given_a_cache_hands_it_to_its_engine(self):
        plans = PlanCache(5)
        host = GraphHost("g", contact_tracing_example(), plans=plans)
        assert host.engine.plans is plans
        assert ServerPlanCache is PlanCache
