"""Tests for dataflow chain compilation and interval-based static tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.random_graphs import _random_dataflow_path
from repro.dataflow.steps import (
    AltStep,
    BindStep,
    StructStep,
    TemporalStep,
    TestStep,
    chain_has_temporal_step,
    compile_chain,
    converse_chain,
)
from repro.dataflow import condition_times
from repro.errors import UnsupportedFragmentError
from repro.lang import ast, parse_path
from repro.perf import columnar
from repro.temporal import IntervalSet


class TestChainCompilation:
    def test_single_test(self):
        chain = compile_chain(ast.test(ast.label("Person")))
        assert chain == (TestStep(ast.label("Person")),)

    def test_structural_axes(self):
        assert compile_chain(ast.F) == (StructStep(forward=True),)
        assert compile_chain(ast.B) == (StructStep(forward=False),)

    def test_bare_temporal_axis(self):
        (step,) = compile_chain(ast.N)
        assert step == TemporalStep(forward=True, lower=1, upper=1, require_existence=False)

    def test_temporal_axis_with_existence_merges(self):
        chain = compile_chain(ast.concat(ast.P, ast.test(ast.exists())))
        assert chain == (
            TemporalStep(forward=False, lower=1, upper=1, require_existence=True),
        )

    def test_concat_flattens(self):
        expr = parse_path("FWD/:meets/FWD", implicit_existence=False)
        chain = compile_chain(expr)
        assert [type(s) for s in chain] == [StructStep, TestStep, StructStep]

    def test_temporal_star_from_practical_syntax(self):
        expr = parse_path("NEXT*")
        (step,) = compile_chain(expr)
        assert step == TemporalStep(forward=True, lower=0, upper=None, require_existence=True)

    def test_bounded_temporal_repetition(self):
        expr = parse_path("PREV[0,12]")
        (step,) = compile_chain(expr)
        assert step == TemporalStep(forward=False, lower=0, upper=12, require_existence=True)

    def test_union_becomes_alt_step(self):
        expr = parse_path("FWD/:meets/FWD + BWD/:meets/BWD", implicit_existence=False)
        (step,) = compile_chain(expr)
        assert isinstance(step, AltStep)
        assert len(step.alternatives) == 2

    def test_q12_chain_shape(self):
        expr = parse_path(
            "(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]"
        )
        chain = compile_chain(expr)
        assert isinstance(chain[0], AltStep)
        assert isinstance(chain[-1], TemporalStep)

    def test_structural_repetition_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            compile_chain(ast.star(ast.F))

    def test_mixed_repetition_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            compile_chain(ast.repeat(ast.concat(ast.F, ast.N), 0, 2))

    def test_path_condition_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            compile_chain(ast.test(ast.path_test(ast.F)))

    def test_path_condition_nested_in_boolean_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            compile_chain(ast.test(ast.and_(ast.is_node(), ast.path_test(ast.F))))

    def test_chain_has_temporal_step(self):
        structural = compile_chain(parse_path("FWD/:meets/FWD"))
        temporal = compile_chain(parse_path("FWD/:meets/FWD/NEXT*"))
        assert not chain_has_temporal_step(structural)
        assert chain_has_temporal_step(temporal)

    def test_chain_has_temporal_step_inside_alternative(self):
        expr = parse_path("(FWD + NEXT)/BWD", implicit_existence=False)
        assert chain_has_temporal_step(compile_chain(expr))


class TestConverseChain:
    def test_slots_reverse_and_moves_flip(self):
        person, meets = TestStep(ast.label("Person")), TestStep(ast.label("meets"))
        exists = TestStep(ast.exists())
        chain = (
            person,
            BindStep("x"),
            StructStep(forward=True),
            exists,
            meets,
            BindStep("z"),
            TemporalStep(forward=True, lower=0, upper=12),
            exists,
        )
        assert converse_chain(chain) == (
            exists,
            TemporalStep(forward=True, lower=0, upper=12, converse=True),
            exists,
            meets,
            BindStep("z"),
            StructStep(forward=False),
            person,
            BindStep("x"),
        )

    def test_tests_come_before_binds_in_a_slot(self):
        # As written the bind splits the move from a test on its target;
        # the converse keeps both on the object, the test first, so the
        # planner folds it into the move.
        chain = (BindStep("x"), StructStep(True), BindStep("y"), TestStep(ast.exists()))
        far = converse_chain(chain)
        assert far == (TestStep(ast.exists()), BindStep("y"), StructStep(False), BindStep("x"))
        assert converse_chain(far) == (
            BindStep("x"),
            StructStep(True),
            TestStep(ast.exists()),
            BindStep("y"),
        )

    def test_alternatives_converse_recursively(self):
        chain = compile_chain(parse_path("(FWD + NEXT[0,2])/BWD", implicit_existence=False))
        assert converse_chain(chain) == (
            StructStep(forward=True),
            AltStep(
                (
                    (StructStep(forward=False),),
                    (TemporalStep(True, 0, 2, require_existence=False, converse=True),),
                )
            ),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_converse_twice_plans_to_the_same_ops(self, seed):
        chain = compile_chain(_random_dataflow_path(random.Random(seed), depth=2))
        planned = columnar.plan_query(chain)
        replanned = columnar.plan_query(converse_chain(converse_chain(chain)))
        assert planned.seed_condition == replanned.seed_condition
        assert list(planned.leaves) == list(replanned.leaves), chain
        assert (planned.converse is None) == (replanned.converse is None)
        if planned.converse is not None:
            assert list(planned.converse.leaves) == list(replanned.converse.leaves)


class TestConditionTimes:
    def test_label_and_kind(self, figure1):
        domain = IntervalSet((figure1.domain,))
        assert condition_times(figure1, "n1", ast.label("Person")) == domain
        assert condition_times(figure1, "n1", ast.label("Room")).is_empty()
        assert condition_times(figure1, "n1", ast.is_node()) == domain
        assert condition_times(figure1, "e1", ast.is_edge()) == domain

    def test_existence(self, figure1):
        assert condition_times(figure1, "n6", ast.exists()) == IntervalSet([(2, 11)])
        assert condition_times(figure1, "e1", ast.exists()) == IntervalSet([(3, 3), (5, 6)])

    def test_prop_eq(self, figure1):
        assert condition_times(figure1, "n2", ast.prop_eq("risk", "high")) == IntervalSet(
            [(5, 9)]
        )
        assert condition_times(figure1, "n2", ast.prop_eq("risk", "none")).is_empty()

    def test_time_lt(self, figure1):
        assert condition_times(figure1, "n1", ast.time_lt(4)) == IntervalSet([(1, 3)])
        assert condition_times(figure1, "n1", ast.time_lt(0)).is_empty()
        assert condition_times(figure1, "n1", ast.time_lt(99)) == IntervalSet(
            (figure1.domain,)
        )

    def test_boolean_combinations(self, figure1):
        condition = ast.and_(ast.prop_eq("risk", "low"), ast.time_lt(5))
        assert condition_times(figure1, "n2", condition) == IntervalSet([(1, 4)])
        condition = ast.or_(ast.prop_eq("risk", "low"), ast.prop_eq("risk", "high"))
        assert condition_times(figure1, "n2", condition) == IntervalSet([(1, 9)])
        condition = ast.not_(ast.exists())
        assert condition_times(figure1, "n6", condition) == IntervalSet([(1, 1)])

    def test_time_eq_sugar(self, figure1):
        assert condition_times(figure1, "n1", ast.time_eq(7)) == IntervalSet([(7, 7)])

    def test_path_condition_rejected(self, figure1):
        with pytest.raises(UnsupportedFragmentError):
            condition_times(figure1, "n1", ast.path_test(ast.F))

    def test_and_short_circuits_to_empty(self, figure1):
        condition = ast.and_(ast.label("Room"), ast.prop_eq("risk", "low"))
        assert condition_times(figure1, "n1", condition).is_empty()
