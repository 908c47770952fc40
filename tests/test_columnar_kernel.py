"""Tests for the columnar evaluation kernel.

Four layers:

* **Dispatch contract** — the engine has no kernel option and one
  kernel; ``explain()`` reports ``effective_kernel == "columnar"`` from
  every entry point.
* **Fallback identity** — the shapes added last (mid-chain temporal
  navigation, point-mode output, temporal alternations distributed into
  leaf chains) answer identically to the reference engine, through the
  engine and through ``run_query``.
* **Kernel seam** — ``columnar.run_query`` on the full chain returns
  the reference engine's answer on every paper query (canonical
  families, or point rows), and so do the leaf chains run from the seed
  frontier when the degenerate-chain shortcut answers instead.
* **Array primitives + store parity** — the sweep building blocks
  against hand-computed expectations, and attached-artifact parity.
"""

from __future__ import annotations

import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import PAPER_QUERIES, DataflowEngine
from repro.errors import EvaluationError
from repro.eval import ReferenceEngine
from repro.eval.bindings import expand_match_families
from repro.model import contact_tracing_example
from repro.perf import columnar


@pytest.fixture(scope="module")
def contact_graph():
    from repro.datagen import (
        ContactTracingConfig,
        TrajectoryConfig,
        generate_contact_tracing_graph,
    )

    return generate_contact_tracing_graph(
        ContactTracingConfig(
            trajectory=TrajectoryConfig(
                num_persons=12, num_locations=6, num_rooms=3, seed=5
            ),
            positivity_rate=0.3,
            seed=5,
        )
    )


def _example_engines():
    """The default engine and its reference oracle on the example graph."""
    graph = contact_tracing_example()
    return DataflowEngine(graph), ReferenceEngine(graph)


def _run(engine, prepared):
    """``run_query`` on a prepared plan; point answers as row tuples,
    families answers as their family tuple."""
    data, _frontier_rows, _merged = columnar.run_query(
        engine.index.columnar_context(),
        prepared.kernel_plan,
        prepared.variables,
        prepared.mode,
    )
    return list(data.rows) if prepared.mode == "points" else data.families


def _run_leaves(engine, prepared):
    """The leaf chains run from the seed frontier, past the shortcut that
    answers a condition-only chain from its condition table."""
    ctx = engine.index.columnar_context()
    plan = prepared.kernel_plan
    data, _frontier_rows, _merged = columnar._run_leaves(
        ctx,
        plan.leaves,
        columnar.seed_state(ctx, plan),
        prepared.variables,
        prepared.mode,
        None,
    )
    return list(data.rows) if prepared.mode == "points" else data.families


def _canonical(families) -> list:
    """A family list in a comparable form: sorted, times as intervals."""
    return sorted(
        ((tuple(bindings), tuple(times.intervals)) for bindings, times in families),
        key=repr,
    )


def _reference_families(graph, query) -> list:
    """The reference engine's canonical coalesced families for ``query``:
    comparing them exactly with the kernel's also catches duplicate
    bindings or uncoalesced times that expand to the right points."""
    return _canonical(ReferenceEngine(graph).match_intervals(query))


class TestKernelSelection:
    def test_unknown_kernel_rejected(self):
        # There is no kernel option at all: the engine picks its kernel.
        with pytest.raises(TypeError, match="kernel"):
            DataflowEngine(contact_tracing_example(), kernel="simd")

    def test_kernel_property_and_default(self):
        engine = DataflowEngine(contact_tracing_example())
        assert not hasattr(engine, "kernel")
        assert engine.explain(PAPER_QUERIES["Q1"].text)["effective_kernel"] == "columnar"

    def test_engine_takes_no_mode_option(self):
        import inspect

        # ``plans`` is the engine's plan cache (a server host passes one
        # sized by ``--plan-cache``), not a mode: it changes no answer.
        assert list(inspect.signature(DataflowEngine).parameters) == [
            "graph",
            "deadline_seconds",
            "plans",
        ]


class TestExplainReporting:
    def test_covered_query_reports_columnar(self):
        engine, _ = _example_engines()
        plan = engine.explain(PAPER_QUERIES["Q1"].text)
        assert plan["effective_kernel"] == "columnar"

    def test_point_mode_query_reports_columnar(self):
        # Q6 binds variables across temporal groups: point-mode output
        # is a property of the kernel's projection, not a decline.
        engine, _ = _example_engines()
        plan = engine.explain(PAPER_QUERIES["Q6"].text)
        assert plan["output_mode"] == "points"
        assert plan["effective_kernel"] == "columnar"
        table = engine.match(PAPER_QUERIES["Q6"].text)
        assert isinstance(table, columnar.PointTable)

    def test_every_paper_query_runs_columnar(self):
        engine, _ = _example_engines()
        for name, query in PAPER_QUERIES.items():
            assert engine.explain(query.text)["effective_kernel"] == "columnar", name

    def test_default_entry_points_run_columnar(self):
        # Every entry point that builds an engine runs the one kernel.
        from repro.server.state import GraphHost
        from repro.streaming import StreamingEngine

        graph = contact_tracing_example()
        engines = {
            "engine": DataflowEngine(graph),
            "host": GraphHost("g", graph).engine,
            "session": StreamingEngine(graph).engine,
        }
        for label, engine in engines.items():
            for name, query in PAPER_QUERIES.items():
                plan = engine.explain(query.text)
                assert plan["effective_kernel"] == "columnar", (label, name)


def _path_query(path, *, bind_target: bool, name: str):
    """``MATCH (x)-/path/-(y)`` (``y`` anonymous unless ``bind_target``)."""
    from repro.lang.parser import MatchQuery, NodePattern, PathPattern

    return MatchQuery(
        elements=(
            NodePattern(variable="x"),
            NodePattern(variable="y" if bind_target else None),
        ),
        connectors=(PathPattern(path=path, source_text=name),),
        graph_name="g",
        text=name,
    )


def _navigation_shapes():
    """Mid-chain temporal navigation, with and without existence."""
    from repro.lang import ast

    exists = ast.test(ast.exists())
    prev = ast.concat(ast.P, exists)  # PREV
    nxt = ast.concat(ast.N, exists)  # NEXT
    hop = (ast.F, ast.test(ast.label("visits")), ast.F)
    return {
        "PREV/hop": ast.concat(prev, *hop),
        "P/hop (no existence)": ast.concat(ast.P, *hop),
        "PREV*/hop": ast.concat(ast.repeat(prev, 0, None), *hop),
        "NEXT[1,3]/hop": ast.concat(ast.repeat(nxt, 1, 3), *hop),
        "N[0,2]/hop (no existence)": ast.concat(ast.repeat(ast.N, 0, 2), *hop),
        "hop/PREV*/back-hop": ast.concat(
            *hop, ast.repeat(prev, 0, None), ast.B, ast.test(ast.label("visits")), ast.B
        ),
        "NEXT[0,2]/hop/PREV (three groups)": ast.concat(
            ast.repeat(nxt, 0, 2), *hop, prev
        ),
    }


class TestFallbackIdentity:
    """Shapes the kernel once declined (point-mode output, mid-chain
    navigation, temporal alternations) run on it and answer like the
    reference engine."""

    @pytest.mark.parametrize("name", ["Q6", "Q7", "Q8"])
    def test_point_mode_queries_identical(self, name):
        engine, oracle = _example_engines()
        query = PAPER_QUERIES[name].text
        assert engine.match(query).as_set() == oracle.match(query).as_set()
        # Variables span temporal groups: no coalesced output.
        with pytest.raises(EvaluationError):
            engine.match_intervals(query)

    def test_mid_chain_temporal_step_runs_columnar(self):
        # N·P: a temporal step before the end of the chain freezes the
        # group it leaves; the answer equals the reference engine's.
        from repro.lang import ast

        graph = random_itpg(3)
        # Anonymous target: every binding stays in temporal group 0, so
        # the output is family-mode and needs the backward pass through
        # both frozen groups.
        query = _path_query(ast.concat(ast.P, ast.N), bind_target=False, name="<p-n>")
        engine = DataflowEngine(graph)
        assert engine.explain(query)["effective_kernel"] == "columnar"
        expected = ReferenceEngine(graph).match(query)
        assert engine.match(query).as_set() == expected.as_set()
        families = engine.match_intervals(query)
        assert expand_match_families(families, expected.variables) == expected.as_set()
        assert _canonical(families) == _reference_families(graph, query)

    def test_temporal_alternation_runs_distributed(self):
        from repro.lang import ast

        graph = random_itpg(3)
        # N+P after the hop, then F: the alternation sits mid-chain, and
        # the bound target lies past it (point output).
        path = ast.concat(ast.F, ast.union(ast.N, ast.P), ast.F)
        query = _path_query(path, bind_target=True, name="<f-(n+p)-f>")
        engine = DataflowEngine(graph)
        plan = engine.explain(query)
        assert (plan["effective_kernel"], plan["output_mode"]) == ("columnar", "points")
        assert engine.prepare(query).kernel_plan.leaves.count == 2
        expected = ReferenceEngine(graph).match(query).as_set()
        assert expected
        assert engine.match(query).as_set() == expected
        # Families mode unions the leaves per binding tuple.
        anonymous = _path_query(path, bind_target=False, name="<f-(n+p)-f>/x")
        families = engine.match_intervals(anonymous)
        assert expand_match_families(families, ("x",)) == (
            ReferenceEngine(graph).match(anonymous).as_set()
        )

    def test_temporal_alternation_without_variables_matches_once(self):
        # No variables: the answer is one empty row when any leaf matches.
        # No bind is split by the alternation, so the output stays
        # interval-native.
        graph = contact_tracing_example()
        query = "MATCH (:Person)-/NEXT + PREV/-() ON g"
        engine = DataflowEngine(graph)
        assert engine.explain(query)["output_mode"] == "families"
        table = engine.match(query)
        assert len(table) == 1 and table.rows == ((),)
        assert table.as_set() == ReferenceEngine(graph).match(query).as_set()

    def test_deadline_bounds_exponentially_many_leaves(self):
        # 22 temporal alternations in sequence are 2**22 leaves: the plan
        # keeps only the branch structure, and the call's deadline stops
        # the leaf runs within twice its budget.
        import time

        from repro.errors import DeadlineExceeded

        factors = "/".join(["(NEXT + PREV)"] * 22)
        query = f"MATCH (x)-/{factors}/-(y) ON g"
        engine = DataflowEngine(contact_tracing_example())
        start = time.monotonic()
        leaves = engine.prepare(query).kernel_plan.leaves
        assert leaves.count == 2**22
        with pytest.raises(DeadlineExceeded):
            engine.match_with_stats(query, deadline_seconds=0.5)
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_random_fuzz_cases_identical(self, seed):
        graph = random_itpg(seed)
        query = random_match_query(seed * 31 + 7)
        engine = DataflowEngine(graph)
        oracle = ReferenceEngine(graph)
        assert engine.match(query).as_set() == oracle.match(query).as_set()


class TestPaperQueryParity:
    def test_all_paper_queries_identical(self):
        engine, oracle = _example_engines()
        for name, query in PAPER_QUERIES.items():
            assert engine.match(query.text).as_set() == (
                oracle.match(query.text).as_set()
            ), f"{name} diverged on the built-in example"

    def test_interval_families_identical(self):
        engine, oracle = _example_engines()
        for name, query in PAPER_QUERIES.items():
            expected = oracle.match(query.text)
            if name in ("Q6", "Q7", "Q8"):  # variables span temporal groups
                with pytest.raises(EvaluationError):
                    engine.match_intervals(query.text)
                continue
            got = engine.match_intervals(query.text)
            assert expand_match_families(got, expected.variables) == (
                expected.as_set()
            ), f"{name} interval families diverged"
            assert _canonical(got) == _reference_families(engine.graph, query.text), (
                f"{name} interval families are not the reference's canonical list"
            )

    @pytest.mark.parametrize("bind_target", [False, True], ids=["families", "points"])
    @pytest.mark.parametrize("shape", sorted(_navigation_shapes()))
    def test_mid_chain_navigation_and_point_output_run_columnar(
        self, contact_graph, shape, bind_target
    ):
        """Every navigation shape, in both output modes, answers like the
        reference engine through the engine and through ``run_query``."""
        query = _path_query(
            _navigation_shapes()[shape], bind_target=bind_target, name=shape
        )
        engine = DataflowEngine(contact_graph)
        oracle = ReferenceEngine(contact_graph)
        plan = engine.explain(query)
        assert plan["output_mode"] == ("points" if bind_target else "families")
        expected = oracle.match(query).as_set()
        assert expected, "the shape must produce output on the contact graph"
        table = engine.match(query)
        assert isinstance(table, columnar.PointTable) == bind_target
        assert len(table) == len(expected)
        assert table.as_set() == expected
        prepared = engine.prepare(query)
        data = _run(engine, prepared)
        if not bind_target:
            data = expand_match_families(data, prepared.variables)
        assert sorted(data) == sorted(expected)

    def test_streaming_delta_invalidates_columnar_context(self):
        # A delta patches the index-owned context in place; ad-hoc reads
        # after it must see the new object, not stale arrays.
        from repro.model.io import from_json_dict, to_json_dict
        from repro.streaming import DeltaBatch, StreamingEngine

        graph = from_json_dict(to_json_dict(contact_tracing_example()))
        session = StreamingEngine(graph)
        engine = session.engine
        query = PAPER_QUERIES["Q1"].text
        name = session.register(query)
        assert engine.match(query).as_set() == session.table(name).as_set()
        batch = DeltaBatch()
        batch.add_node("zz1", "Person", [(1, 5)])
        session.apply(batch)
        assert engine.explain(query)["effective_kernel"] == "columnar"
        rows = engine.match(query).as_set()
        assert rows == session.table(name).as_set()
        assert rows == ReferenceEngine(engine.graph).match(query).as_set()
        assert rows == DataflowEngine(
            from_json_dict(to_json_dict(engine.graph))
        ).match(query).as_set()


class TestKernelSeam:
    """The kernel is pinned to the reference engine: ``run_query`` on the
    full chain returns the reference answer (canonical families, or
    point rows), and so do the leaf chains run from the seed frontier —
    which is how ``run_query`` answers every chain but a condition-only
    one (Q1–Q4), whose condition table is the answer."""

    @pytest.fixture(scope="class")
    def dense_graph(self):
        """A contact graph on which every paper query has output."""
        from repro.datagen import (
            ContactTracingConfig,
            TrajectoryConfig,
            generate_contact_tracing_graph,
        )

        return generate_contact_tracing_graph(
            ContactTracingConfig(
                trajectory=TrajectoryConfig(
                    num_persons=12, num_locations=6, num_rooms=3, seed=2
                ),
                positivity_rate=0.5,
                seed=2,
            )
        )

    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_run_rows_agree_on_paper_query(self, dense_graph, name):
        engine = DataflowEngine(dense_graph)
        text = PAPER_QUERIES[name].text
        prepared = engine.prepare(text)
        got = _run(engine, prepared)
        assert got, f"{name} is empty on the contact graph"
        if prepared.mode == "points":
            reference = sorted(ReferenceEngine(dense_graph).match(text).as_set())
            assert sorted(got) == reference, name
        else:
            reference = _reference_families(dense_graph, text)
            assert _canonical(got) == reference, name
        leaves = _run_leaves(engine, prepared)
        if prepared.mode == "points":
            assert sorted(leaves) == reference, name
        else:
            assert _canonical(leaves) == reference, name


class TestPrimitives:
    def test_ranges_concatenates_aranges(self):
        import numpy as np

        starts = np.array([5, 10, 3], dtype=np.int64)
        counts = np.array([3, 0, 2], dtype=np.int64)
        assert columnar._ranges(starts, counts).tolist() == [5, 6, 7, 3, 4]
        empty = columnar._ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert empty.size == 0

    def test_coalesce_merges_adjacent_and_overlapping(self):
        import numpy as np

        stride = 100
        owner = np.array([0, 0, 0, 1], dtype=np.int64)
        start = np.array([5, 1, 9, 1], dtype=np.int64)
        end = np.array([7, 4, 9, 2], dtype=np.int64)
        o, s, e = columnar._coalesce(stride, 0, owner, start, end)
        # [1,4] and [5,7] are adjacent (gap 1) so they merge; [9,9] stays.
        assert o.tolist() == [0, 0, 1]
        assert s.tolist() == [1, 9, 1]
        assert e.tolist() == [7, 9, 2]

    def test_coalesce_guard_gap_keeps_owners_apart(self):
        import numpy as np

        # Owner 0 ends at the domain edge, owner 1 starts at the domain
        # start: on a gapless axis these would wrongly merge.
        domain_start, domain_end = 0, 9
        stride = domain_end - domain_start + 2
        owner = np.array([0, 1], dtype=np.int64)
        start = np.array([8, 0], dtype=np.int64)
        end = np.array([9, 1], dtype=np.int64)
        o, s, e = columnar._coalesce(stride, domain_start, owner, start, end)
        assert o.tolist() == [0, 1]
        assert s.tolist() == [8, 0] and e.tolist() == [9, 1]

    def test_intersect_global_reports_source_indices(self):
        import numpy as np

        a_gs = np.array([0, 10], dtype=np.int64)
        a_ge = np.array([5, 20], dtype=np.int64)
        b_gs = np.array([3, 12, 30], dtype=np.int64)
        b_ge = np.array([4, 40, 50], dtype=np.int64)
        gs, ge, a_idx = columnar._intersect_global(a_gs, a_ge, b_gs, b_ge)
        assert gs.tolist() == [3, 12]
        assert ge.tolist() == [4, 20]
        assert a_idx.tolist() == [0, 1]

    def test_group_rows_first_occurrence_order(self):
        import numpy as np

        keys = [np.array([2, 1, 2, 1, 3], dtype=np.int64)]
        group_of, reps = columnar._group_rows(keys, 5)
        assert group_of.tolist() == [0, 1, 0, 1, 2]
        assert reps.tolist() == [0, 1, 4]

    def test_group_rows_no_keys(self):
        group_of, reps = columnar._group_rows([], 3)
        assert group_of.tolist() == [0, 0, 0]
        assert reps.tolist() == [0]


class TestStoreFastPath:
    def test_attached_store_matches_in_memory(self, tmp_path):
        from repro.store import attach, compile_graph

        graph = contact_tracing_example()
        path = str(tmp_path / "graph.rix")
        compile_graph(graph, path)
        attachment = attach(path)
        try:
            engine = DataflowEngine(attachment.graph)
            oracle = DataflowEngine(graph)
            for name, query in PAPER_QUERIES.items():
                assert engine.match(query.text).as_set() == (
                    oracle.match(query.text).as_set()
                ), f"{name} diverged on the attached store"
        finally:
            # close() raises BufferError if any view still pins the mmap.
            attachment.close()


class TestCliKernelFlag:
    def test_query_accepts_columnar(self, capsys):
        from repro.cli import main

        # The default engine prints the reference engine's rows, byte for byte.
        assert main(["query", "Q9"]) == 0
        default_out = capsys.readouterr().out
        assert "n3" in default_out
        assert main(["query", "Q9", "--engine", "reference"]) == 0
        assert capsys.readouterr().out == default_out

    def test_explain_prints_kernel_line(self, capsys):
        from repro.cli import main

        assert main(["query", "Q1", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "# plan: kernel=columnar\n" in out
        assert "fallback" not in out

    def test_unknown_kernel_rejected_by_argparse(self, capsys):
        from repro.cli import build_parser

        # The kernel is the engine's choice: there is no flag to pass.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "Q1", "--kernel", "interpreted"])
        assert "unrecognized arguments" in capsys.readouterr().err
