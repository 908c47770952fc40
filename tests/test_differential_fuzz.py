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
  point output, distributed temporal alternations, structs and temporal
  moves with fused landing tests, absorbed tests, unmerged node → edge
  moves and runs seeded from the chain's far end in it
  (:func:`kernel_shapes`), and every planned leaf of the window has each
  test folded into the move before it.  Every case also runs the plan
  as written and its converse, each forced, against the ground truth.
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
    """Which of the kernel's harder shapes ``query`` runs, read off its
    planned leaves.

    ``"mid-chain"`` when a temporal op is followed by another op in its
    leaf, ``"points"`` when the output spans temporal groups, and
    ``"distributed"`` when the chain holds an alternation that navigates
    through time, so the kernel runs it as several leaf chains, and
    ``"converse"`` when the run seeds from the chain's far end.  Of the
    moves: ``"fused"`` when a struct carries the tests on the object it
    lands on, ``"temporal-fused"`` when a temporal op does,
    ``"absorbed"`` when planning dropped a test another one implies, and
    ``"unmerged"`` when a node → edge move skipped the merge (this one
    runs the leaves, without projecting them).  Every planned leaf, of
    either direction, must have each test folded into the move before it
    (:func:`assert_folded`).
    """
    prepared = engine.prepare(query)
    plan = engine.explain(prepared)
    assert plan["effective_kernel"] == "columnar"
    shapes = set()
    if plan["output_mode"] == "points":
        shapes.add("points")
    if plan["direction"] == "converse":
        shapes.add("converse")
    kernel_plan = prepared.kernel_plan
    for ops in kernel_plan.converse.leaves if kernel_plan.converse else ():
        assert_folded(ops, query)
    leaves = kernel_plan.leaves
    if leaves.count > 1:
        shapes.add("distributed")
    for raw, planned in zip(columnar._expand(leaves._parts), leaves):
        assert_folded(planned, query)
        if any(op[0] == "temporal" for op in planned[:-1]):
            shapes.add("mid-chain")
        fused = {"struct": [], "temporal": []}
        for op in _flat_ops(planned):
            if op[0] in fused:
                fused[op[0]].append(len(op[2]))
        if any(fused["struct"]):
            shapes.add("fused")
        if any(fused["temporal"]):
            shapes.add("temporal-fused")
        kept = sum(map(sum, fused.values()))
        kept += sum(op[0] == "test" for op in _flat_ops(planned))
        if kept < sum(op[0] == "test" for op in _flat_ops(raw)):
            shapes.add("absorbed")
    ctx = engine.index.columnar_context()
    kernel = columnar._Kernel(ctx)
    state = columnar.seed_state(ctx, kernel_plan)
    for ops in leaves:
        kernel.run(state, ops)
    if kernel.merges_skipped:
        shapes.add("unmerged")
    return frozenset(shapes)


def assert_folded(ops, context) -> None:
    """The planner invariant: no test op of a planned leaf (alternation
    branches included) directly follows a struct or temporal op — the
    planner folded it into that move."""
    for previous, op in zip((None, *ops), ops):
        assert op[0] != "test" or previous is None or previous[0] not in (
            "struct",
            "temporal",
        ), (context, ops)
        if op[0] == "alt":
            for branch in op[1]:
                assert_folded(branch, context)


def _flat_ops(ops):
    """Every op of a leaf, alternation branches included."""
    for op in ops:
        yield op
        if op[0] == "alt":
            for branch in op[1]:
                yield from _flat_ops(branch)


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
    check_both_directions(engine, query, reference_rows, context)
    return kernel_shapes(engine, query)


def check_both_directions(engine, query, reference_rows, context) -> None:
    """The plan as written and its converse, each run on its own, answer
    like the ground truth: ``run_query`` picks one per run by seed size."""
    prepared = engine.prepare(query)
    ctx = engine.index.columnar_context()
    written = prepared.kernel_plan
    for direction, planned in (
        ("forward", columnar.ColumnarPlan(written.seed_condition, written.leaves)),
        ("converse", written.converse),
    ):
        if planned is None:
            continue
        output, _rows, _merged = columnar._run(
            ctx, planned, prepared.variables, prepared.mode, None
        )
        name = f"dataflow ({direction})"
        if prepared.mode == "families":
            check_families(
                name, output.families, prepared.variables, reference_rows, context
            )
        else:
            rows = output.as_set()
            assert rows == reference_rows, (
                f"{name} diverged from reference-point ({context}): "
                f"only-in-{direction}={sorted(rows - reference_rows, key=repr)[:5]}, "
                f"missing={sorted(reference_rows - rows, key=repr)[:5]}"
            )


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
            f"alternations, {ran['fused']} fused, {ran['temporal-fused']} "
            f"temporal-fused, {ran['absorbed']} absorbed, "
            f"{ran['unmerged']} unmerged, {ran['converse']} converse "
            f"in {BATCH_SIZE} cases"
        )

    def test_seed_window_reaches_navigation_and_point_shapes(self):
        # The batches above evaluate every case of the window; this
        # proves the window holds the shapes the kernel learned last
        # (planning, plus one unprojected kernel run for the merge skip).
        ran = Counter()
        for seed in range(SEED_OFFSET, SEED_OFFSET + BATCHES * BATCH_SIZE):
            engine = DataflowEngine(random_itpg(seed))
            ran.update(kernel_shapes(engine, random_match_query(seed * 31 + 7)))
        assert (
            ran["mid-chain"] >= BATCHES
            and ran["points"] >= BATCHES
            and ran["distributed"] >= 9
            and ran["fused"] >= BATCHES
            and ran["temporal-fused"] >= BATCHES
            and ran["absorbed"] >= BATCHES
            and ran["unmerged"] >= BATCHES
            and ran["converse"] >= BATCHES
        ), (
            f"seed window {SEED_OFFSET}: the kernel ran mid-chain navigation "
            f"{ran['mid-chain']}×, point output {ran['points']}×, distributed "
            f"alternations {ran['distributed']}×, structs with fused tests "
            f"{ran['fused']}×, temporal moves with fused tests "
            f"{ran['temporal-fused']}×, absorbed tests {ran['absorbed']}×, unmerged "
            f"node → edge moves {ran['unmerged']}× and converse runs "
            f"{ran['converse']}× in {BATCHES * BATCH_SIZE} "
            "cases — too few for the oracle to protect those shapes"
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
