"""A hop leg is one kernel op.

When a leaf is planned, the tests that directly follow a struct or
temporal move go into that move's op, and a test another one in the run
implies is dropped (``columnar._fold``, the one place where tests fuse
into moves).  The kernel meets the landing conditions before it merges,
and skips the merge of a node → edge move.  Three layers pin it:

* **Plan shape** — on every paper query no test op follows a move and
  no move carries an implied condition; the planned ops of Q1–Q12, and
  of the converses of Q5 and Q9–Q12, describe as the strings pinned
  below, ``explain()`` describes the direction that runs, and ``repro
  query --explain`` shows the fused ops.
* **Fused op = old sequence** — on random graphs and random
  signature-unique frontiers, ``_op_struct`` with landing tests equals
  the bare move followed by one ``_op_test`` per condition.
* **Signature-unique frontier** — after every op of a random chain no
  two rows share a merge signature (bindings, current object, frozen
  source row), the invariant the merge skip relies on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datagen.random_graphs import random_itpg
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.dataflow.steps import TemporalStep
from repro.lang import ast
from repro.model import contact_tracing_example
from repro.perf import columnar


def _conjuncts(condition) -> frozenset:
    if isinstance(condition, ast.AndTest):
        return frozenset(condition.parts)
    return frozenset((condition,))


def _check_leaf(ops, name) -> None:
    """No test op directly after a move; no implied condition in a move."""
    for previous, op in zip((None, *ops), ops):
        if op[0] == "test":
            assert previous is None or previous[0] not in ("struct", "temporal"), (
                name,
                ops,
            )
        elif op[0] in ("struct", "temporal"):
            parts = [_conjuncts(condition) for condition in op[2]]
            for i, mine in enumerate(parts):
                for j, other in enumerate(parts):
                    assert i == j or not mine <= other, (name, op)
        elif op[0] == "alt":
            for branch in op[1]:
                _check_leaf(branch, name)


#: ``explain()``'s ``(leaves, ops)`` for each paper query.
PINNED_PLANS = {
    **{name: (1, ["bind x"]) for name in ("Q1", "Q2", "Q3", "Q4")},
    "Q5": (
        1,
        [
            "bind x",
            "struct F [(Edge AND :meets AND EXISTS)]",
            "bind z",
            "struct F [(Node AND :Person AND risk->'high' AND EXISTS)]",
            "bind y",
        ],
    ),
    "Q6": (1, ["bind x", "temporal P[1,1] [(Node AND :Person AND EXISTS)]", "bind y"]),
    "Q7": (
        1,
        [
            "bind x",
            "temporal P[1,1]",
            "struct F [(:visits AND EXISTS)]",
            "struct F [(Node AND :Room AND EXISTS)]",
            "bind z",
        ],
    ),
    "Q8": (
        1,
        [
            "bind x",
            "temporal P[0,_]",
            "struct F [(:visits AND EXISTS)]",
            "struct F [(Node AND :Room AND EXISTS)]",
            "bind z",
        ],
    ),
    "Q9": (
        1,
        [
            "bind x",
            "struct F [(:meets AND EXISTS)]",
            "struct F [EXISTS]",
            "temporal N[0,_] [(Node AND test->'pos' AND EXISTS)]",
        ],
    ),
    "Q10": (
        1,
        [
            "bind x",
            "struct F [(:meets AND EXISTS)]",
            "struct F [EXISTS]",
            "temporal P[0,12] [(Node AND test->'pos' AND EXISTS)]",
        ],
    ),
    "Q11": (
        1,
        [
            "bind x",
            "struct F [(:visits AND EXISTS)]",
            "struct F [(:Room AND EXISTS)]",
            "struct B [(:visits AND EXISTS)]",
            "struct B [EXISTS]",
            "temporal N[0,12] [(Node AND test->'pos' AND EXISTS)]",
        ],
    ),
    "Q12": (
        1,
        [
            "bind x",
            "alt (struct F [(:meets AND EXISTS)] · struct F [EXISTS] | "
            "struct F [(:visits AND EXISTS)] · struct F [(:Room AND EXISTS)] · "
            "struct B [(:visits AND EXISTS)] · struct B [EXISTS])",
            "temporal N[0,12] [(Node AND test->'pos' AND EXISTS)]",
        ],
    ),
}


#: The seed condition and ops of the converse the planner builds for
#: the paper queries that run it on the benchmark graphs.
_HIGH = "(Node AND :Person AND risk->'high' AND EXISTS)"
_POS = "(Node AND test->'pos' AND EXISTS)"
PINNED_CONVERSES = {
    "Q5": (
        _HIGH,
        [
            "bind y",
            "struct B [(Edge AND :meets AND EXISTS)]",
            "bind z",
            "struct B [(Node AND :Person AND risk->'low' AND EXISTS)]",
            "bind x",
        ],
    ),
    "Q9": (
        _POS,
        [
            "temporal N[0,_] converse [EXISTS]",
            "struct B [(:meets AND EXISTS)]",
            f"struct B [{_HIGH}]",
            "bind x",
        ],
    ),
    "Q10": (
        _POS,
        [
            "temporal P[0,12] converse [EXISTS]",
            "struct B [(:meets AND EXISTS)]",
            f"struct B [{_HIGH}]",
            "bind x",
        ],
    ),
    "Q11": (
        _POS,
        [
            "temporal N[0,12] converse [EXISTS]",
            "struct F [(:visits AND EXISTS)]",
            "struct F [(:Room AND EXISTS)]",
            "struct B [(:visits AND EXISTS)]",
            f"struct B [{_HIGH}]",
            "bind x",
        ],
    ),
    "Q12": (
        _POS,
        [
            "temporal N[0,12] converse",
            "alt (test EXISTS · struct B [(:meets AND EXISTS)] · struct B | "
            "test EXISTS · struct F [(:visits AND EXISTS)] · struct F [(:Room AND EXISTS)] · "
            "struct B [(:visits AND EXISTS)] · struct B)",
            f"test {_HIGH}",
            "bind x",
        ],
    ),
}


class TestPlanShape:
    def test_paper_queries_fold_their_landing_tests(self):
        engine = DataflowEngine(contact_tracing_example())
        for name, query in PAPER_QUERIES.items():
            kernel_plan = engine.prepare(query.text).kernel_plan
            for direction in (kernel_plan, kernel_plan.converse):
                for ops in direction.leaves if direction is not None else ():
                    _check_leaf(ops, name)

    def test_explain_reports_every_leaf(self):
        # A temporal alternation is distributed into two leaf chains;
        # ``ops`` shows the first, whose temporal op ends its branch and
        # takes the node test that follows the alternation.
        query = (
            "MATCH (x:Person)-/FWD/:visits/FWD/:Room/(NEXT[0,2] + PREV[0,2])/-(y) "
            "ON contact_tracing"
        )
        plan = DataflowEngine(contact_tracing_example()).explain(query)
        assert plan["leaves"] == 2
        assert "temporal N[0,2] [(Node AND EXISTS)]" in plan["ops"]
        assert plan["ops"][-1] == "bind y"

    def test_paper_query_plans_are_pinned(self):
        engine = DataflowEngine(contact_tracing_example())
        for name, (leaves, ops) in PINNED_PLANS.items():
            planned = engine.prepare(PAPER_QUERIES[name].text).kernel_plan.leaves
            described = columnar.describe_ops(next(iter(planned)))
            assert (planned.count, described) == (leaves, ops), name

    def test_paper_query_converses_are_pinned(self):
        # Q1–Q4 have no move to reverse; Q6–Q8 have a converse that the
        # benchmark graphs never pick (their forward seed is rarer).
        engine = DataflowEngine(contact_tracing_example())
        for name, query in PAPER_QUERIES.items():
            converse = engine.prepare(query.text).kernel_plan.converse
            if name in ("Q1", "Q2", "Q3", "Q4"):
                assert converse is None, name
                continue
            assert converse is not None, name
            if name in PINNED_CONVERSES:
                described = columnar.describe_ops(next(iter(converse.leaves)))
                assert (repr(converse.seed_condition), described) == (
                    PINNED_CONVERSES[name]
                ), name

    def test_explain_describes_the_direction_that_runs(self):
        engine = DataflowEngine(contact_tracing_example())
        for name in ("Q5", "Q6", "Q11"):
            query = PAPER_QUERIES[name].text
            plan = engine.explain(query)
            kernel_plan = engine.prepare(query).kernel_plan
            points = plan["seed_points"]
            converse = points["converse"] < points["forward"]
            assert plan["direction"] == ("converse" if converse else "forward")
            ran = kernel_plan.converse if converse else kernel_plan
            assert plan["ops"] == columnar.describe_ops(next(iter(ran.leaves))), name

    def test_cli_prints_one_line_per_op(self, capsys):
        from repro.cli import main

        assert main(["query", "Q11", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "# plan: op struct B [(:visits AND EXISTS)]\n" in out
        # One test-positive point on the Figure-1 graph against 20
        # high-risk ones: Q11 seeds from its far end.
        assert "# plan: direction=converse, seed points 1 (forward 20)\n" in out
        assert "1 leaf chain(s)" in out

    def test_absorb_keeps_the_strongest_of_a_run(self):
        exists, visits = ast.exists(), ast.label("visits")
        both = ast.and_(visits, exists)
        assert columnar._absorb((exists, both)) == (both,)
        assert columnar._absorb((both, exists, both)) == (both,)
        assert columnar._absorb((visits, ast.label("Room"))) == (visits, ast.label("Room"))
        folded = columnar._fold(
            (("test", exists), ("struct", True), ("test", exists), ("test", both), ("bind", "x"))
        )
        assert folded == (("test", exists), ("struct", True, (both,)), ("bind", "x"))


# --------------------------------------------------------------------- #
# Random graphs, frontiers and conditions
# --------------------------------------------------------------------- #
_CONDITIONS = (
    ast.exists(),
    ast.is_node(),
    ast.is_edge(),
    ast.label("Person"),
    ast.label("Room"),
    ast.label("visits"),
    ast.label("meets"),
    ast.and_(ast.label("Person"), ast.exists()),
    ast.and_(ast.label("visits"), ast.exists()),
    ast.and_(ast.is_edge(), ast.label("meets"), ast.exists()),
    ast.prop_eq("risk", "high"),
    ast.time_lt(4),
)

conditions = st.lists(st.sampled_from(_CONDITIONS), max_size=3).map(tuple)


@st.composite
def frontiers(draw):
    """A random graph and a signature-unique frontier over it."""
    graph = random_itpg(draw(st.integers(0, 10_000)), num_nodes=6, num_edges=12)
    ctx = DataflowEngine(graph).index.columnar_context()
    n, d0, d1 = ctx.num_objects, ctx.domain_start, ctx.domain_end
    names = ("x", "y")[: draw(st.integers(0, 2))]
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.tuples(*[st.integers(0, n - 1)] * len(names)),
                st.lists(st.tuples(st.integers(d0, d1), st.integers(0, 3)), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda row: (row[0], row[1]),
        )
    )
    cur, cols, owner, start, end = [], [[] for _ in names], [], [], []
    for row, (obj, values, spans) in enumerate(rows):
        cur.append(obj)
        for column, value in zip(cols, values):
            column.append(value)
        family = columnar._coalesce(
            ctx.stride,
            d0,
            np.zeros(len(spans), dtype=np.int64),
            np.array([s for s, _ in spans], dtype=np.int64),
            np.array([min(s + w, d1) for s, w in spans], dtype=np.int64),
        )
        owner.extend([row] * family[0].size)
        start.extend(family[1].tolist())
        end.extend(family[2].tolist())
    array = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    state = columnar._State(
        array(cur), names, [array(c) for c in cols], array(owner), array(start), array(end)
    )
    return ctx, state


def _rows(state) -> list:
    """A state as a sorted list of (signature, family) rows."""
    indptr = columnar._indptr(state.owner, state.rows)
    src = [None] * state.rows if state.src is None else state.src.tolist()
    out = []
    for row in range(state.rows):
        family = tuple(
            zip(
                state.start[indptr[row] : indptr[row + 1]].tolist(),
                state.end[indptr[row] : indptr[row + 1]].tolist(),
            )
        )
        signature = (tuple(int(c[row]) for c in state.cols), int(state.cur[row]), src[row])
        out.append((signature, family))
    return sorted(out)


def _unique(state) -> bool:
    if state.rows == 0:
        return True
    keys = [*state.cols, state.cur] + ([] if state.src is None else [state.src])
    _group, reps = columnar._group_rows(keys, state.rows)
    return reps.size == state.rows


class TestFusedStruct:
    @settings(max_examples=200, deadline=None)
    @given(frontiers(), st.booleans(), conditions)
    def test_fused_op_equals_move_then_tests(self, case, forward, tests):
        ctx, state = case
        assert _unique(state)
        fused_tests = columnar._absorb(tests)
        bounds = tuple((condition, 0, 0) for condition in fused_tests)
        fused = columnar._Kernel(ctx)._op_struct(state, forward, fused_tests, bounds)
        kernel = columnar._Kernel(ctx)
        # The old sequence: move, merge, then one test pass per condition.
        old = kernel._merge(kernel._op_struct(state, forward, (), ()))
        for condition in tests:
            if old.rows:
                old = kernel._op_test(old, condition)
        assert fused.names == old.names
        assert _rows(fused) == _rows(old)
        assert _unique(fused)


_STEPS = (
    TemporalStep(forward=True, lower=0, upper=2),
    TemporalStep(forward=False, lower=1, upper=None),
    TemporalStep(forward=True, lower=1, upper=1, require_existence=False),
)


def _moves(draw) -> list:
    """A run of raw struct/test ops (an alternation branch)."""
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        ops.append(("struct", draw(st.booleans())))
        ops.extend(("test", condition) for condition in draw(conditions))
    return ops


@st.composite
def chains(draw):
    """A random raw op sequence: moves, tests, binds, temporal steps and
    temporal-free alternations."""
    ops = []
    for position in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("moves", "test", "bind", "temporal", "alt")))
        if kind == "moves":
            ops.extend(_moves(draw))
        elif kind == "test":
            ops.append(("test", draw(st.sampled_from(_CONDITIONS))))
        elif kind == "bind":
            ops.append(("bind", f"v{position}"))
        elif kind == "temporal":
            ops.append(("temporal", draw(st.sampled_from(_STEPS))))
        else:
            ops.append(("alt", (tuple(_moves(draw)), tuple(_moves(draw)))))
    return tuple(ops)


class TestSignatureUnique:
    @settings(max_examples=200, deadline=None)
    @given(frontiers(), chains())
    def test_every_op_boundary_is_signature_unique(self, case, ops):
        ctx, state = case
        kernel = columnar._Kernel(ctx)
        assert _unique(state)
        for op in columnar._leaf(ops):
            state = kernel.run(state, (op,))
            assert _unique(state), op
