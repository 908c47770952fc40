"""Unit tests for the coalescing frontier and interval-native Step 3.

Invariants under test (see ``repro/dataflow/frontier.py``):

* no two live frontier rows share a binding signature, after every step
  type (Test/Struct/Hop/Temporal/Alt/Bind);
* every interval family stored in a frontier row stays coalesced (the
  FC invariant) after every step;
* a Q11-style chain actually merges rows (``rows_merged > 0``) while
  keeping both invariants and the reference answer;
* the interval-native materializer agrees with the point-wise
  definition of Step 3 (``Row.enumerate_times`` +
  ``TemporalLink.admits``) on randomized rows, and fused hops agree
  with the reference engine.
"""

import random

import pytest

from repro.datagen.random_graphs import random_itpg, random_match_query
from repro.dataflow import DataflowEngine, PAPER_QUERIES
from repro.dataflow.frontier import (
    Frontier,
    Group,
    IntervalMaterializer,
    Row,
    TemporalLink,
    row_signature,
)
from repro.dataflow.interpreted import ChainWalk, seed_rows
from repro.dataflow.steps import AltStep, HopStep
from repro.errors import EvaluationError
from repro.eval import ReferenceEngine
from repro.perf import graph_index_for
from repro.temporal import IntervalSet, IntervalSetAccumulator


def _stepwise_frontiers(engine: DataflowEngine, query):
    """Yield (step, rows) after every chain step, mirroring the kernel.

    Uses the interpreted kernel's own ``collector_for`` routing so the
    invariant checks cover the production fast path: Test/Bind/Temporal
    steps run on a plain ``RowFrontier`` under an injectivity argument,
    and the uniqueness assertions below are what validate that argument.
    """
    rows, chain = seed_rows(engine.index, engine.prepare(query).chain)
    walk = ChainWalk(engine.index)
    for step in chain:
        if not rows:
            break
        collector = walk.collector_for(step)
        walk.apply_step(rows, step, collector)
        rows = collector.rows()
        yield step, rows


def _assert_fc_invariant(family: IntervalSet) -> None:
    intervals = family.intervals
    for left, right in zip(intervals, intervals[1:]):
        assert left.end + 1 < right.start, f"family not coalesced: {family}"


class TestFrontierInvariants:
    #: Queries whose chains exercise every step type: tests, structural
    #: moves, fused hops, temporal navigation, alternatives and binds.
    STEP_QUERIES = (
        "MATCH (x:Person {risk = 'high'}) ON g",  # Test + Bind
        PAPER_QUERIES["Q5"].text,  # Struct/Hop
        PAPER_QUERIES["Q8"].text,  # Temporal (unbounded)
        PAPER_QUERIES["Q11"].text,  # Hop + bounded Temporal
        PAPER_QUERIES["Q12"].text,  # Alt
    )

    @pytest.mark.parametrize("query", STEP_QUERIES)
    def test_signatures_unique_after_every_step(self, figure1, query):
        engine = DataflowEngine(figure1)
        object_id = engine.index.object_id
        for step, rows in _stepwise_frontiers(engine, query):
            signatures = [row_signature(row, object_id) for row in rows]
            assert len(signatures) == len(set(signatures)), (
                f"duplicate signatures after {type(step).__name__} in {query!r}"
            )

    @pytest.mark.parametrize("query", STEP_QUERIES)
    def test_families_coalesced_after_every_step(self, figure1, query):
        engine = DataflowEngine(figure1)
        for _step, rows in _stepwise_frontiers(engine, query):
            for row in rows:
                for group in row.groups:
                    _assert_fc_invariant(group.times)

    def test_signatures_unique_on_random_graphs(self):
        for graph_seed in range(4):
            graph = random_itpg(graph_seed)
            engine = DataflowEngine(graph)
            object_id = engine.index.object_id
            query = random_match_query(graph_seed * 17 + 3)
            for _step, rows in _stepwise_frontiers(engine, query):
                signatures = [row_signature(row, object_id) for row in rows]
                assert len(signatures) == len(set(signatures))

    def test_frontier_merges_signature_equal_rows(self):
        times_a = IntervalSet([(0, 2)])
        times_b = IntervalSet([(4, 6)])
        row_a = Row((Group((("x", "n1"),), "n2", times_a),), ())
        row_b = Row((Group((("x", "n1"),), "n2", times_b),), ())
        frontier = Frontier()
        frontier.add(row_a)
        frontier.add(row_b)
        assert len(frontier) == 1
        assert frontier.rows_merged == 1
        (merged,) = frontier.rows()
        assert merged.last.times == IntervalSet([(0, 2), (4, 6)])
        _assert_fc_invariant(merged.last.times)

    def test_frontier_merges_adjacent_families_into_one_interval(self):
        row_a = Row((Group((), "n1", IntervalSet([(0, 3)])),), ())
        row_b = Row((Group((), "n1", IntervalSet([(4, 8)])),), ())
        frontier = Frontier()
        frontier.add(row_a)
        frontier.add(row_b)
        (merged,) = frontier.rows()
        assert merged.last.times == IntervalSet([(0, 8)])

    def test_rows_with_different_bindings_stay_separate(self):
        times = IntervalSet([(0, 2)])
        frontier = Frontier()
        frontier.add(Row((Group((("x", "n1"),), "n3", times),), ()))
        frontier.add(Row((Group((("x", "n2"),), "n3", times),), ()))
        assert len(frontier) == 2
        assert frontier.rows_merged == 0

    def test_multi_group_signature_includes_head_times(self):
        link = TemporalLink("n1", forward=True, lower=0, upper=3, contiguous=False)
        head_a = Group((("x", "n1"),), "n1", IntervalSet([(0, 1)]))
        head_b = Group((("x", "n1"),), "n1", IntervalSet([(2, 3)]))
        tail = Group((), "n1", IntervalSet([(4, 5)]))
        frontier = Frontier()
        frontier.add(Row((head_a, tail), (link,)))
        frontier.add(Row((head_b, tail), (link,)))
        # Earlier groups' times are linked to the last group's times, so
        # rows differing there must NOT merge.
        assert len(frontier) == 2


class TestRowMerging:
    @pytest.mark.parametrize("name", ["Q11", "Q12"])
    def test_q11_style_chain_merges_rows(self, name):
        graph = _midsize_contact_graph()
        text = PAPER_QUERIES[name].text
        engine = DataflowEngine(graph)
        object_id = engine.index.object_id
        for step, rows in _stepwise_frontiers(engine, text):
            signatures = [row_signature(row, object_id) for row in rows]
            assert len(signatures) == len(set(signatures)), type(step).__name__
            for row in rows:
                _assert_fc_invariant(row.last.times)
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


class TestIntervalMaterializer:
    def _random_row(self, rng: random.Random, graph) -> Row:
        """A multi-group row over real graph objects with random times/links."""
        domain = graph.domain
        objects = sorted(graph.objects(), key=repr)
        num_groups = rng.randint(2, 3)
        groups = []
        links = []
        obj = rng.choice(objects)
        for g in range(num_groups):
            pieces = []
            for _ in range(rng.randint(1, 2)):
                start = rng.randint(domain.start, domain.end)
                end = min(domain.end, start + rng.randint(0, 4))
                pieces.append((start, end))
            bindings = ()
            if rng.random() < 0.7:
                bindings = ((f"g{g}", obj),)
            groups.append(Group(bindings, obj, IntervalSet(pieces)))
            if g < num_groups - 1:
                lower = rng.randint(0, 2)
                upper = None if rng.random() < 0.3 else lower + rng.randint(0, 4)
                links.append(
                    TemporalLink(
                        obj,
                        forward=rng.random() < 0.5,
                        lower=lower,
                        upper=upper,
                        contiguous=rng.random() < 0.5,
                    )
                )
        return Row(tuple(groups), tuple(links))

    def test_row_points_matches_pointwise_enumeration(self, figure1):
        """The alive/reach passes agree with enumerate_times + admits."""
        materializer = IntervalMaterializer(graph_index_for(figure1))
        rng = random.Random(20240615)
        checked = 0
        for _ in range(120):
            row = self._random_row(rng, figure1)
            variables = tuple(name for g in row.groups for name, _obj in g.bindings)
            if not variables:
                continue
            positions = row.variable_positions()
            pointwise = {
                tuple((positions[v][1], times[positions[v][0]]) for v in variables)
                for times in row.enumerate_times(figure1)
            }
            interval_native = set(materializer.row_points(row, variables))
            assert interval_native == pointwise, f"row={row}"
            checked += 1
        assert checked >= 60

    def test_row_family_matches_row_points(self, figure1):
        """Families expand to exactly the point output on single-bound rows."""
        materializer = IntervalMaterializer(graph_index_for(figure1))
        rng = random.Random(77)
        checked = 0
        for _ in range(200):
            row = self._random_row(rng, figure1)
            bound = [
                (g_index, name)
                for g_index, g in enumerate(row.groups)
                for name, _obj in g.bindings
            ]
            if len({g_index for g_index, _ in bound}) != 1:
                continue
            variables = tuple(name for _g, name in bound)
            family = materializer.row_family(row, variables)
            points = set(materializer.row_points(row, variables))
            if family is None:
                assert points == set()
                continue
            bindings, times = family
            objects = tuple(obj for _name, obj in bindings)
            expanded = {
                tuple((obj, t) for obj in objects) for t in times.points()
            }
            assert expanded == points
            checked += 1
        assert checked >= 20

    def test_row_family_rejects_variables_across_groups(self, figure1):
        materializer = IntervalMaterializer(graph_index_for(figure1))
        link = TemporalLink("n2", forward=True, lower=0, upper=2, contiguous=False)
        row = Row(
            (
                Group((("x", "n2"),), "n2", IntervalSet([(1, 4)])),
                Group((("y", "n2"),), "n2", IntervalSet([(2, 6)])),
            ),
            (link,),
        )
        with pytest.raises(EvaluationError):
            materializer.row_family(row, ("x", "y"))

    def test_unbound_variable_raises(self, figure1):
        materializer = IntervalMaterializer(graph_index_for(figure1))
        row = Row((Group((), "n1", IntervalSet([(0, 2)])),), ())
        with pytest.raises(EvaluationError):
            list(materializer.row_points(row, ("x",)))


def _has_hop(chain) -> bool:
    return any(
        isinstance(step, HopStep)
        or (isinstance(step, AltStep) and any(map(_has_hop, step.alternatives)))
        for step in chain
    )


class TestHopFusion:
    def test_fused_hops_agree_with_reference(self, figure1):
        """Chains compiled to HopSteps answer like the reference engine."""
        engine = DataflowEngine(figure1)
        reference = ReferenceEngine(figure1)
        for name in ("Q7", "Q11", "Q12"):
            text = PAPER_QUERIES[name].text
            assert _has_hop(engine.prepare(text).chain), name
            assert engine.match(text).as_set() == reference.match(text).as_set(), name

    def test_hop_entries_memoized_per_graph(self, figure1):
        engine_a = DataflowEngine(figure1)
        engine_b = DataflowEngine(figure1)
        assert engine_a.index is engine_b.index
        engine_a.match(PAPER_QUERIES["Q11"].text)
        cache_size = len(engine_a.index._hop_cache)
        assert cache_size > 0
        engine_b.match(PAPER_QUERIES["Q11"].text)
        assert len(engine_b.index._hop_cache) == cache_size


class TestIntervalSetPrimitives:
    def test_union_many_matches_pairwise_union(self):
        rng = random.Random(5)
        for _ in range(50):
            families = []
            for _ in range(rng.randint(0, 5)):
                pieces = [
                    (s, s + rng.randint(0, 3))
                    for s in (rng.randint(0, 30) for _ in range(rng.randint(1, 3)))
                ]
                families.append(IntervalSet(pieces))
            expected = IntervalSet.empty()
            for family in families:
                expected = expected.union(family)
            assert IntervalSet.union_many(families) == expected

    def test_accumulator_matches_union(self):
        accumulator = IntervalSetAccumulator()
        assert not accumulator
        assert accumulator.build() == IntervalSet.empty()
        accumulator.add(IntervalSet([(0, 2)]))
        accumulator.add_interval(IntervalSet([(3, 5)]).intervals[0])
        accumulator.add(IntervalSet([(10, 12)]))
        assert accumulator
        assert accumulator.build() == IntervalSet([(0, 5), (10, 12)])
