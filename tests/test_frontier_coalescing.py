"""Unit tests for the kernel's coalescing frontier and interval-native Step 3.

Invariants under test (see ``repro/perf/columnar.py``), on the kernel's
struct-of-arrays frontier:

* no two live frontier rows share a binding signature (bound objects,
  current object, frozen source row), after every op type
  (test/struct/bind/temporal/alt);
* every row's interval family stays coalesced (the FC invariant) after
  every op, and every live row owns at least one interval;
* the coalescing merge unions the families of signature-equal rows only,
  and a Q11-style chain actually merges rows (``rows_merged > 0``) while
  keeping both invariants and the reference answer;
* the interval-native Step 3 (``_Kernel.project``) agrees with the
  point-wise semantics of the reference engine, its families expand to
  exactly its point rows, and planned room joins — structs carrying
  their landing tests — agree with the reference engine.
"""

import numpy as np
import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.errors import EvaluationError
from repro.eval import ReferenceEngine
from repro.eval.bindings import expand_match_families
from repro.perf import columnar
from repro.temporal import IntervalSet
from repro.temporal.coalesce import is_coalesced


def _signatures(state) -> list[tuple]:
    """Per live row: bound objects, current object and frozen source row."""
    keys = [*state.cols, state.cur]
    if state.src is not None:
        keys.append(state.src)
    return list(zip(*(key.tolist() for key in keys)))


def _assert_fc_invariant(state) -> None:
    owner, start, end = state.family
    assert (np.diff(owner) >= 0).all(), "owners out of order"
    assert set(owner.tolist()) == set(range(state.rows)), "a row owns no interval"
    same = owner[1:] == owner[:-1]
    assert (start[1:][same] > end[:-1][same] + 1).all(), "family not coalesced"


def _state(engine, cur, cols, family, src=None):
    """A hand-built frontier over ``engine``'s objects: ``cur``/``cols``
    name objects, ``family`` lists ``(row, start, end)`` intervals and
    ``src`` the rows' frozen source rows (the merge reads no more of the
    frozen group than that, so none is built)."""
    ids = engine.index.object_id

    def column(objects):
        return np.array([ids[obj] for obj in objects], dtype=np.int64)

    owner, start, end = (np.array(part, dtype=np.int64) for part in zip(*family))
    return columnar._State(
        column(cur),
        tuple(name for name, _objects in cols),
        [column(objects) for _name, objects in cols],
        owner,
        start,
        end,
        src=None if src is None else np.array(src, dtype=np.int64),
    )


def _merge(engine, state):
    kernel = columnar._Kernel(engine.index.columnar_context())
    merged = kernel._merge(state)
    return merged, kernel.rows_merged


def _times(state, row) -> IntervalSet:
    owner, start, end = state.family
    mine = owner == row
    return IntervalSet(list(zip(start[mine].tolist(), end[mine].tolist())))


class TestFrontierInvariants:
    #: Queries whose chains exercise every op type: tests, structural
    #: moves, fused hops, temporal navigation, alternatives and binds.
    STEP_QUERIES = (
        "MATCH (x:Person {risk = 'high'}) ON g",  # Test + Bind
        PAPER_QUERIES["Q5"].text,  # Struct/Hop
        PAPER_QUERIES["Q8"].text,  # Temporal (unbounded)
        PAPER_QUERIES["Q11"].text,  # Hop + bounded Temporal
        PAPER_QUERIES["Q12"].text,  # Alt
    )

    @pytest.mark.parametrize("query", STEP_QUERIES)
    def test_signatures_unique_after_every_step(self, figure1, kernel_steps, query):
        engine = DataflowEngine(figure1)
        for op, state in kernel_steps(engine, query):
            signatures = _signatures(state)
            assert len(signatures) == len(set(signatures)), (
                f"duplicate signatures after {op[0]} in {query!r}"
            )

    @pytest.mark.parametrize("query", STEP_QUERIES)
    def test_families_coalesced_after_every_step(self, figure1, kernel_steps, query):
        engine = DataflowEngine(figure1)
        for _op, state in kernel_steps(engine, query):
            _assert_fc_invariant(state)

    def test_signatures_unique_on_random_graphs(self, kernel_steps):
        for graph_seed in range(4):
            engine = DataflowEngine(random_itpg(graph_seed))
            query = random_match_query(graph_seed * 17 + 3)
            for _op, state in kernel_steps(engine, query):
                signatures = _signatures(state)
                assert len(signatures) == len(set(signatures))

    def test_frontier_merges_signature_equal_rows(self, figure1):
        engine = DataflowEngine(figure1)
        state = _state(engine, ["n2", "n2"], [("x", ["n1", "n1"])], [(0, 1, 2), (1, 4, 6)])
        merged, rows_merged = _merge(engine, state)
        assert merged.rows == 1
        assert rows_merged == 1
        assert _times(merged, 0) == IntervalSet([(1, 2), (4, 6)])
        _assert_fc_invariant(merged)

    def test_frontier_merges_adjacent_families_into_one_interval(self, figure1):
        engine = DataflowEngine(figure1)
        state = _state(engine, ["n1", "n1"], [], [(0, 1, 3), (1, 4, 8)])
        merged, _rows_merged = _merge(engine, state)
        assert merged.rows == 1
        assert _times(merged, 0) == IntervalSet([(1, 8)])

    def test_rows_with_different_bindings_stay_separate(self, figure1):
        engine = DataflowEngine(figure1)
        state = _state(engine, ["n3", "n3"], [("x", ["n1", "n2"])], [(0, 1, 2), (1, 1, 2)])
        merged, rows_merged = _merge(engine, state)
        assert merged.rows == 2
        assert rows_merged == 0

    def test_multi_group_signature_includes_head_times(self, figure1):
        # Rows that navigated from different rows of the frozen group keep
        # different earlier times, linked to their current times, so they
        # must NOT merge.
        engine = DataflowEngine(figure1)
        state = _state(
            engine, ["n1", "n1"], [("x", ["n1", "n1"])], [(0, 4, 5), (1, 4, 5)], src=[0, 1]
        )
        merged, rows_merged = _merge(engine, state)
        assert merged.rows == 2
        assert rows_merged == 0


class TestRowMerging:
    @pytest.mark.parametrize("name", ["Q11", "Q12"])
    def test_q11_style_chain_merges_rows(self, kernel_steps, name):
        graph = _midsize_contact_graph()
        text = PAPER_QUERIES[name].text
        engine = DataflowEngine(graph)
        for op, state in kernel_steps(engine, text):
            signatures = _signatures(state)
            assert len(signatures) == len(set(signatures)), op[0]
            _assert_fc_invariant(state)
        result = engine.match_with_stats(text)
        assert result.rows_merged > 0
        reference = ReferenceEngine(graph).match(text)
        assert result.table.as_set() == reference.as_set()


def _midsize_contact_graph():
    from repro.datagen import (
        ContactTracingConfig,
        TrajectoryConfig,
        generate_contact_tracing_graph,
    )

    config = ContactTracingConfig(
        trajectory=TrajectoryConfig(
            num_persons=25, num_locations=10, num_rooms=4, seed=7
        ),
        positivity_rate=0.2,
        seed=7,
    )
    return generate_contact_tracing_graph(config)


def _canonical(families) -> list:
    return sorted(
        ((bindings, tuple(times.intervals)) for bindings, times in families),
        key=repr,
    )


class TestOutputFamilies:
    """The engine's interval output for every single-group paper query
    (Q6–Q8 bind across temporal groups and answer as points) on a
    generated contact graph: one family per binding tuple, each nonempty
    and coalesced, equal to the reference engine's families."""

    @pytest.fixture(scope="class")
    def contact_graph(self):
        from repro.datagen import (
            ContactTracingConfig,
            TrajectoryConfig,
            generate_contact_tracing_graph,
        )

        # 24 windows: long enough for Q9/Q10's temporal legs to answer.
        config = ContactTracingConfig(
            trajectory=TrajectoryConfig(
                num_persons=25, num_locations=10, num_rooms=4, num_windows=24, seed=7
            ),
            positivity_rate=0.2,
            seed=7,
        )
        return generate_contact_tracing_graph(config)

    @pytest.mark.parametrize(
        "name", [name for name in PAPER_QUERIES if name not in ("Q6", "Q7", "Q8")]
    )
    def test_merged_frontier_has_unique_coalesced_signatures(self, contact_graph, name):
        text = PAPER_QUERIES[name].text
        families = DataflowEngine(contact_graph).match_intervals(text)
        assert families, f"{name}: the contact graph answers nothing"
        bindings = [binding for binding, _times in families]
        assert len(bindings) == len(set(bindings)), f"{name}: duplicate bindings"
        for _binding, times in families:
            assert not times.is_empty()
            assert is_coalesced(list(times.intervals))
        assert _canonical(families) == _canonical(
            ReferenceEngine(contact_graph).match_intervals(text)
        )


def _run(engine, query, mode, variables=None):
    """The leaf chains run from the seed frontier in ``mode``, so that even
    a condition-only chain runs through ``_Kernel.project``."""
    prepared = engine.prepare(query)
    ctx = engine.index.columnar_context()
    plan = prepared.kernel_plan
    data, _rows, _merged = columnar._run_leaves(
        ctx,
        plan.leaves,
        columnar.seed_state(ctx, plan),
        prepared.variables if variables is None else variables,
        mode,
        None,
    )
    return data


class TestIntervalMaterializer:
    """The kernel's Step 3, ``_Kernel.project``."""

    def test_row_points_matches_pointwise_enumeration(self):
        """Group-spanning point output equals the reference engine's
        point-wise semantics."""
        from repro.lang import ast
        from repro.lang.parser import MatchQuery, NodePattern, PathPattern

        paths = {
            "n": ast.N,
            "p-n": ast.concat(ast.P, ast.N),
            "n[1,3]": ast.repeat(ast.N, 1, 3),
            "f-n-b": ast.concat(ast.F, ast.N, ast.B),
            "(n/exists)[0,2]": ast.repeat(ast.concat(ast.N, ast.test(ast.exists())), 0, 2),
        }
        checked = 0
        for seed in range(4):
            graph = random_itpg(seed)
            engine = DataflowEngine(graph)
            for name, path in paths.items():
                query = MatchQuery(
                    elements=(NodePattern(variable="x"), NodePattern(variable="y")),
                    connectors=(PathPattern(path=path, source_text=name),),
                    graph_name="g",
                    text=f"<{name}>",
                )
                assert engine.prepare(query).mode == "points", name
                expected = ReferenceEngine(graph).match(query).as_set()
                assert set(_run(engine, query, "points").rows) == expected, (seed, name)
                checked += bool(expected)
        assert checked >= 10

    def test_row_family_matches_row_points(self, figure1):
        """Families expand to exactly the point output on single-group chains."""
        engine = DataflowEngine(figure1)
        checked = 0
        for name, query in PAPER_QUERIES.items():
            prepared = engine.prepare(query.text)
            if prepared.mode != "families":
                continue
            families = _run(engine, query.text, "families").families
            points = _run(engine, query.text, "points")
            assert expand_match_families(families, prepared.variables) == set(
                points.rows
            ), name
            checked += bool(families)
        assert checked >= 5

    def test_row_family_rejects_variables_across_groups(self, figure1):
        engine = DataflowEngine(figure1)
        with pytest.raises(EvaluationError, match="single temporal group"):
            _run(engine, PAPER_QUERIES["Q6"].text, "families")

    def test_unbound_variable_raises(self, figure1):
        engine = DataflowEngine(figure1)
        with pytest.raises(EvaluationError, match="never bound"):
            _run(engine, PAPER_QUERIES["Q5"].text, "families", variables=("nope",))


def _folds_landing_tests(ops) -> bool:
    """True when some struct op of a planned leaf, alternation branches
    included, carries the tests on the object it lands on."""
    return any(
        (op[0] == "struct" and op[2])
        or (op[0] == "alt" and any(map(_folds_landing_tests, op[1])))
        for op in ops
    )


class TestPlannedHops:
    def test_room_joins_fold_landing_tests_and_agree_with_reference(self, figure1):
        """Q7, Q11 and Q12 plan structs carrying their landing tests, and
        answer like the reference engine."""
        engine = DataflowEngine(figure1)
        reference = ReferenceEngine(figure1)
        for name in ("Q7", "Q11", "Q12"):
            text = PAPER_QUERIES[name].text
            plan = engine.prepare(text)
            assert all(map(_folds_landing_tests, plan.kernel_plan.leaves)), name
            assert engine.match(plan).as_set() == reference.match(text).as_set(), name
