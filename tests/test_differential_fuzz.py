"""Differential fuzzing: every engine must agree on randomized inputs.

The coalescing frontier rewrote the hottest correctness-critical loop of
the repository, so this suite cross-checks all evaluation engines on
randomized graphs and queries:

* **MATCH level** — :func:`repro.datagen.random_graphs.random_itpg`
  graphs and :func:`~repro.datagen.random_graphs.random_match_query`
  queries (restricted to the dataflow fragment) evaluated by the
  dataflow engine (the columnar kernel) and by the point-based
  reference engine (the ground truth).  The
  oracle only protects the shapes it actually reaches, so a seed window
  fails unless the kernel ran mid-chain temporal navigation, two-group
  point output and distributed temporal alternations in it
  (:func:`kernel_shapes`).
* **Interval-vs-point output oracle** — for *every* engine that defines
  ``match_intervals`` on the case, the coalesced families must (a) be
  canonical — one entry per distinct binding tuple, each with nonempty
  coalesced times — and (b) expand exactly to the point rows of the
  ground-truth ``match`` table.  This is the Table-II-style
  cross-validation of the interval-native output path: both engines now
  produce output *from* interval families, so the expansion equality is
  what guards the representation change.

* **Path level** — random NavL[PC,NOI] expressions (including path
  conditions) evaluated by the bottom-up algorithm with its memo cache
  shared across expressions and with a fresh evaluator per expression,
  and, inside the PC fragment, tuple by tuple by the interval-native PC
  checker.  ``test_tuple_checkers.py`` cross-checks all three appendix
  checkers against the bottom-up algorithm.

Every failure message contains the seeds needed to reproduce the case in
isolation (`run_match_case(seed)` / the named generator calls), so a
fuzz counterexample can be replayed without re-running the sweep.  The
sweep sizes (≥200 MATCH cases plus the path-level cases) keep the whole
module in tier-1 time budgets; CI additionally runs a dedicated
fixed-seed matrix (see ``.github/workflows/ci.yml``) that re-runs all of
the above — including the interval-vs-point oracle — over three more
disjoint seed windows.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.datagen.random_graphs import (
    random_itpg,
    random_match_query,
    random_path_expression,
)
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.dataflow.steps import TemporalStep
from repro.eval import ReferenceEngine
from repro.eval.bindings import expand_match_families
from repro.eval.bottom_up import BottomUpEvaluator
from repro.eval.tuple_pc import PCChecker
from repro.errors import EvaluationError
from repro.lang.fragments import Fragment, in_fragment
from repro.perf import columnar

#: MATCH-level sweep: ``BATCHES × BATCH_SIZE`` generated cases.
BATCH_SIZE = 25
BATCHES = 9  # 225 cases ≥ the 200 required by the suite's charter
#: CI shifts the whole seed window per matrix entry; 0 keeps local runs
#: deterministic and identical to the committed baseline.
SEED_OFFSET = int(os.environ.get("REPRO_FUZZ_SEED_OFFSET", "0"))


def check_interval_point_oracle(
    name: str,
    engine,
    query,
    variables: tuple[str, ...],
    reference_rows: frozenset,
    context: str,
) -> bool:
    """Interval-vs-point output equality for one engine configuration.

    Engines whose fragment excludes coalesced output for this query
    raise :class:`EvaluationError` — that is part of the contract and
    ends the check with ``False`` (the dataflow engine decides
    statically from the chain shape, the reference engine exactly per
    output row, so their definedness may legitimately differ on queries
    whose temporal moves cancel out; callers assert the containment
    relations between configurations so a spurious blanket rejection
    cannot silently disable the oracle).  Where defined, the families
    must be canonical and expand exactly to the ground-truth point
    rows; returns ``True``.
    """
    try:
        families = engine.match_intervals(query)
    except EvaluationError:
        return False
    check_families(name, families, variables, reference_rows, context)
    return True


def check_families(name, families, variables, reference_rows, context) -> None:
    """Canonical families that expand exactly to ``reference_rows``."""
    seen_bindings = set()
    for bindings, times in families:
        assert bindings not in seen_bindings, (
            f"{name} produced duplicate family bindings {bindings!r} ({context})"
        )
        seen_bindings.add(bindings)
        assert not times.is_empty(), (
            f"{name} produced an empty-times family for {bindings!r} ({context})"
        )
    expanded = expand_match_families(families, variables)
    assert expanded == reference_rows, (
        f"{name} match_intervals expansion diverged from the point table "
        f"({context}): expanded {len(expanded)} rows vs {len(reference_rows)}; "
        f"extra={sorted(expanded - reference_rows, key=repr)[:5]}, "
        f"missing={sorted(reference_rows - expanded, key=repr)[:5]}"
    )


def kernel_shapes(engine: DataflowEngine, query) -> frozenset[str]:
    """Which of the kernel's harder shapes ``query`` runs.

    ``"mid-chain"`` when a temporal step is followed by further steps,
    ``"points"`` when the output spans temporal groups, and
    ``"distributed"`` when the chain holds an alternation that navigates
    through time, so the kernel runs it as several leaf chains.
    """
    plan = engine.explain(query)
    assert plan["effective_kernel"] == "columnar"
    chain = engine.prepare(query).chain
    shapes = set()
    if any(isinstance(step, TemporalStep) for step in chain[:-1]):
        shapes.add("mid-chain")
    if plan["output_mode"] == "points":
        shapes.add("points")
    if columnar.plan_query(chain).leaves.count > 1:
        shapes.add("distributed")
    return frozenset(shapes)


def run_match_case(seed: int) -> frozenset[str]:
    """One differential MATCH case; raises AssertionError on divergence.

    Returns the :func:`kernel_shapes` of the case.  Reproduce a failure
    with::

        graph = random_itpg(<seed>)
        query = random_match_query(<seed> * 31 + 7)
    """
    graph = random_itpg(seed)
    query = random_match_query(seed * 31 + 7)
    engine = DataflowEngine(graph)
    reference = ReferenceEngine(graph)
    tables = {
        "dataflow": engine.match(query),
        "reference-point": reference.match(query),
    }
    results = {name: table.as_set() for name, table in tables.items()}
    reference_rows = results["reference-point"]
    for name, rows in results.items():
        assert rows == reference_rows, (
            f"{name} diverged from reference-point on fuzz seed {seed}: "
            f"sizes {({n: len(r) for n, r in results.items()})}; "
            f"reproduce with random_itpg({seed}) and "
            f"random_match_query({seed * 31 + 7}); "
            f"only-in-{name}={sorted(rows - reference_rows, key=repr)[:5]}, "
            f"missing={sorted(reference_rows - rows, key=repr)[:5]}"
        )

    # Interval-vs-point output oracle: every engine that defines
    # coalesced output on this case must produce canonical families
    # expanding exactly to the ground-truth point table.
    variables = tables["reference-point"].variables
    context = (
        f"fuzz seed {seed}: reproduce with random_itpg({seed}) and "
        f"random_match_query({seed * 31 + 7})"
    )
    defined = {
        name: check_interval_point_oracle(
            name, engine, query, variables, reference_rows, context
        )
        for name, engine in (("dataflow", engine), ("reference-point", reference))
    }
    # Definedness containment: a blanket spurious rejection would
    # otherwise disable the oracle silently.  The reference engine's
    # exact per-row check accepts everything the dataflow engine's
    # static chain-shape check accepts.
    if defined["dataflow"]:
        assert defined["reference-point"], (
            f"the reference engine rejected coalesced output the dataflow "
            f"engine defines ({context})"
        )
    return kernel_shapes(engine, query)


class TestMatchLevelDifferential:
    """The dataflow engine and the reference engine agree on random
    MATCH queries."""

    @pytest.mark.parametrize("batch", range(BATCHES))
    def test_random_graphs_random_queries(self, batch):
        ran = Counter(
            shape
            for offset in range(BATCH_SIZE)
            for shape in run_match_case(SEED_OFFSET + batch * BATCH_SIZE + offset)
        )
        print(
            f"fuzz batch {batch}: {ran['mid-chain']} mid-chain navigation, "
            f"{ran['points']} point output, {ran['distributed']} distributed "
            f"alternations in {BATCH_SIZE} cases"
        )

    def test_seed_window_reaches_navigation_and_point_shapes(self):
        # The batches above evaluate every case of the window; this
        # proves the window holds the shapes the kernel learned last
        # (planning only — no evaluation).
        ran = Counter()
        for seed in range(SEED_OFFSET, SEED_OFFSET + BATCHES * BATCH_SIZE):
            engine = DataflowEngine(random_itpg(seed))
            ran.update(kernel_shapes(engine, random_match_query(seed * 31 + 7)))
        assert (
            ran["mid-chain"] >= BATCHES
            and ran["points"] >= BATCHES
            and ran["distributed"] >= 9
        ), (
            f"seed window {SEED_OFFSET}: the kernel ran mid-chain navigation "
            f"{ran['mid-chain']}×, point output {ran['points']}× and distributed "
            f"alternations {ran['distributed']}× in {BATCHES * BATCH_SIZE} cases "
            "— too few for the oracle to protect those shapes"
        )

    def test_paper_queries_on_random_contact_graphs(self):
        from repro.datagen import (
            ContactTracingConfig,
            TrajectoryConfig,
            generate_contact_tracing_graph,
        )

        for seed in (1, 2):
            config = ContactTracingConfig(
                trajectory=TrajectoryConfig(
                    num_persons=10, num_locations=6, num_rooms=3, seed=seed
                ),
                positivity_rate=0.25,
                seed=seed,
            )
            graph = generate_contact_tracing_graph(config)
            engines = {
                "dataflow": DataflowEngine(graph),
                "reference": ReferenceEngine(graph),
            }
            for name, query in PAPER_QUERIES.items():
                tables = {
                    ename: engine.match(query.text)
                    for ename, engine in engines.items()
                }
                reference_rows = tables["reference"].as_set()
                sizes = {ename: len(t) for ename, t in tables.items()}
                for ename, table in tables.items():
                    assert table.as_set() == reference_rows, (
                        f"{name} diverged on contact-tracing fuzz seed {seed} "
                        f"({sizes})"
                    )
                defined = {
                    ename: check_interval_point_oracle(
                        f"{ename}",
                        engine,
                        query.text,
                        tables["reference"].variables,
                        reference_rows,
                        f"{name} on contact-tracing fuzz seed {seed}",
                    )
                    for ename, engine in engines.items()
                }
                # Known single-temporal-group queries must keep their
                # coalesced output defined, so the oracle above cannot
                # be silently disabled by a spurious blanket rejection.
                if name not in ("Q6", "Q7", "Q8"):
                    assert defined["dataflow"] and defined["reference"], (
                        f"{name} lost coalesced-output definedness"
                    )


class TestRegressionCounterexamples:
    """Minimized divergences found by fuzzing and review, pinned forever."""

    def test_multi_move_exists_merge_crosses_gaps(self):
        # Fuzz seed 112: P[0,_]/∃ tests existence only at the end, so
        # navigation may cross existence gaps (the seed engine wrongly
        # required every intermediate point to exist).
        run_match_case(112)

    def test_zero_move_exists_merge_still_tests_existence(self):
        # Review counterexample: in N · N[0,1]/∃ · N the trailing ∃ also
        # applies to the zero-move branch, so a non-existing anchor must
        # not survive (merging ∃ into a lower=0 step would admit it).
        from repro.lang import ast
        from repro.lang.parser import MatchQuery, NodePattern, PathPattern
        from repro.model.itpg import IntervalTPG
        from repro.temporal.interval import Interval
        from repro.temporal.intervalset import IntervalSet

        graph = IntervalTPG(Interval(0, 6))
        graph.add_node("a", "Person", IntervalSet([(2, 3), (5, 5)]))
        graph.validate()
        path = ast.concat(
            ast.N, ast.repeat(ast.N, 0, 1), ast.test(ast.exists()), ast.N
        )
        query = MatchQuery(
            elements=(NodePattern(variable="x"), NodePattern(variable="y")),
            connectors=(PathPattern(path=path, source_text="<review-repro>"),),
            graph_name="g",
            text="<review-repro>",
        )
        reference = ReferenceEngine(graph).match(query).as_set()
        assert DataflowEngine(graph).match(query).as_set() == reference

    def test_parallel_edges_match_intervals_is_canonical(self):
        # Hardened seam (PR 3): a binding reached through several
        # traversal paths must still produce one coalesced family per
        # binding tuple — the invariant the interval-vs-point oracle
        # asserts.
        from repro.model.itpg import IntervalTPG
        from repro.temporal.interval import Interval
        from repro.temporal.intervalset import IntervalSet

        graph = IntervalTPG(Interval(0, 4))
        graph.add_node("a", "Person", IntervalSet([(0, 4)]))
        graph.add_node("b", "Person", IntervalSet([(0, 4)]))
        # Two parallel edges: b is reached twice.
        graph.add_edge("e1", "meets", "a", "b", IntervalSet([(0, 1)]))
        graph.add_edge("e2", "meets", "a", "b", IntervalSet([(3, 4)]))
        graph.validate()
        query = "MATCH (x:Person)-[:meets]->(y:Person) ON g"
        engine = DataflowEngine(graph)
        for families in (
            engine.match_intervals(query),
            ReferenceEngine(graph).match_intervals(query),
        ):
            bindings = [b for b, _times in families]
            assert len(bindings) == len(set(bindings))
            times = dict(zip(bindings, (t for _b, t in families)))
            key = (("x", "a"), ("y", "b"))
            assert times[key] == IntervalSet([(0, 1), (3, 4)])

    def test_reference_coalesces_cancelling_temporal_moves(self):
        # Definedness seam (PR 3): the reference engine decides
        # coalescibility exactly — N·P between two bindings nets to a
        # shared binding time, so its interval output is defined and
        # must expand to the match table; the dataflow engine rejects
        # the same query statically from its chain shape (two temporal
        # steps).  Both behaviours are contractual.
        from repro.lang import ast
        from repro.lang.parser import MatchQuery, NodePattern, PathPattern

        graph = random_itpg(3)
        path = ast.concat(ast.N, ast.P)
        query = MatchQuery(
            elements=(NodePattern(variable="x"), NodePattern(variable="y")),
            connectors=(PathPattern(path=path, source_text="<n-p>"),),
            graph_name="g",
            text="<n-p>",
        )
        reference = ReferenceEngine(graph)
        table = reference.match(query)
        check_interval_point_oracle(
            "reference",
            reference,
            query,
            table.variables,
            table.as_set(),
            "cancelling N·P moves",
        )
        assert reference.match_intervals(query)  # defined and nonempty
        with pytest.raises(EvaluationError):
            DataflowEngine(graph).match_intervals(query)


class TestPathLevelDifferential:
    """Bottom-up with a shared memo cache, with a fresh one, and the PC checker agree."""

    @pytest.mark.parametrize("graph_seed", range(5))
    def test_random_paths_all_bottom_up_modes(self, graph_seed):
        graph = random_itpg(graph_seed)
        shared = BottomUpEvaluator(graph)
        checker = PCChecker(graph)
        objects, times = list(graph.objects()), list(graph.time_points())
        checked = 0
        for offset in range(12):
            seed = 1000 + graph_seed * 100 + offset
            path = random_path_expression(seed, allow_path_conditions=True)
            case = (
                f"random_itpg({graph_seed}), "
                f"random_path_expression({seed}, allow_path_conditions=True)"
            )
            expected = shared.evaluate(path)
            assert BottomUpEvaluator(graph).evaluate(path) == expected, (
                f"memoized evaluation diverged: {case}"
            )
            if not in_fragment(path, Fragment.PC):
                continue
            checked += 1
            for o in objects[::2]:
                for t in times[::2]:
                    for o2 in objects[::2]:
                        for t2 in times[::2]:
                            assert checker.check(path, (o, t), (o2, t2)) == (
                                (o, t, o2, t2) in expected
                            ), f"PC checker diverged on {(o, t, o2, t2)}: {case}"
        assert checked, "no sampled expression fell in the PC fragment"


try:  # pragma: no cover - exercised only where hypothesis is installed
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAS_HYPOTHESIS = False


if HAS_HYPOTHESIS:

    class TestHypothesisDifferential:
        """Property-based wrapper: any seed pair must agree (shrinks to one case)."""

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(seed=st.integers(min_value=0, max_value=50_000))
        def test_any_seed_agrees(self, seed):
            run_match_case(seed)
