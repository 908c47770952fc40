"""Tests for the NavL[PC,NOI] AST constructors and fragment classification."""

import pytest

from repro.lang import (
    B,
    F,
    Fragment,
    N,
    P,
    and_,
    classify,
    concat,
    exists,
    has_occurrence_indicators,
    has_path_conditions,
    is_edge,
    is_node,
    label,
    not_,
    or_,
    occurrence_indicators_only_on_axes,
    optional,
    plus,
    prop_eq,
    repeat,
    star,
    test,
    time_eq,
    union,
)
from repro.lang.ast import (
    Axis,
    AndTest,
    Concat,
    NotTest,
    OrTest,
    Repeat,
    TestPath,
    TimeLt,
    TrueTest,
    Union,
    path_test,
)


class TestAxes:
    def test_singletons(self):
        assert F.kind == "F" and B.kind == "B" and N.kind == "N" and P.kind == "P"

    def test_structural_vs_temporal(self):
        assert F.is_structural and B.is_structural
        assert N.is_temporal and P.is_temporal
        assert not F.is_temporal and not N.is_structural

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            Axis("X")

    def test_axis_equality(self):
        assert Axis("F") == F
        assert F != N


class TestConstructors:
    def test_concat_flattens(self):
        expr = concat(F, concat(N, P), B)
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 4

    def test_concat_single_part_passthrough(self):
        assert concat(F) is F

    def test_concat_accepts_bare_tests(self):
        expr = concat(exists(), F)
        assert isinstance(expr.parts[0], TestPath)

    def test_concat_empty_is_true_test(self):
        expr = concat()
        assert isinstance(expr, TestPath) and isinstance(expr.condition, TrueTest)

    def test_union_flattens(self):
        expr = union(F, union(B, N))
        assert isinstance(expr, Union)
        assert len(expr.parts) == 3

    def test_union_single_passthrough(self):
        assert union(F) is F

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            union()

    def test_operators_on_path_expressions(self):
        assert (F / N) == concat(F, N)
        assert (F + B) == union(F, B)

    def test_repeat_bounds(self):
        r = repeat(N, 2, 5)
        assert (r.lower, r.upper) == (2, 5)
        assert star(N) == repeat(N, 0, None)
        assert plus(N) == repeat(N, 1, None)
        assert optional(N) == repeat(N, 0, 1)

    def test_repeat_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            repeat(N, -1, 2)
        with pytest.raises(ValueError):
            repeat(N, 3, 2)

    def test_and_flattens_and_simplifies(self):
        t = and_(is_node(), and_(label("Person"), exists()))
        assert isinstance(t, AndTest) and len(t.parts) == 3
        assert and_(is_node()) == is_node()
        assert isinstance(and_(), TrueTest)

    def test_or_flattens(self):
        t = or_(is_node(), or_(is_edge(), exists()))
        assert isinstance(t, OrTest) and len(t.parts) == 3
        assert or_(is_node()) == is_node()
        with pytest.raises(ValueError):
            or_()

    def test_not_double_negation(self):
        t = not_(not_(exists()))
        assert t == exists()
        assert isinstance(not_(exists()), NotTest)

    def test_test_operators(self):
        t = is_node() & label("Person") | is_edge()
        assert isinstance(t, OrTest)
        assert isinstance(~exists(), NotTest)

    def test_time_eq_expansion(self):
        t = time_eq(5)
        assert isinstance(t, AndTest)
        assert TimeLt(6) in t.parts
        assert NotTest(TimeLt(5)) in t.parts

    def test_prop_eq_and_label(self):
        assert prop_eq("risk", "low").prop == "risk"
        assert label("Person").label == "Person"

    def test_hashable(self):
        expr1 = concat(F, test(label("meets") & exists()), F)
        expr2 = concat(F, test(label("meets") & exists()), F)
        assert expr1 == expr2
        assert hash(expr1) == hash(expr2)
        assert {expr1: 1}[expr2] == 1


class TestFragments:
    def test_no_noi_no_pc(self):
        expr = concat(F, test(label("meets")), F)
        assert not has_occurrence_indicators(expr)
        assert not has_path_conditions(expr)
        assert classify(expr) is Fragment.PC

    def test_noi_on_axis_only(self):
        expr = concat(F, repeat(N, 0, 12))
        assert has_occurrence_indicators(expr)
        assert occurrence_indicators_only_on_axes(expr)
        assert classify(expr) is Fragment.ANOI

    def test_noi_on_compound_body(self):
        expr = repeat(concat(N, test(exists())), 0, None)
        assert not occurrence_indicators_only_on_axes(expr)
        assert classify(expr) is Fragment.NOI

    def test_path_condition_detected(self):
        expr = test(path_test(concat(F, test(exists()))))
        assert has_path_conditions(expr)
        assert classify(expr) is Fragment.PC

    def test_pc_and_noi_full_language(self):
        expr = concat(test(path_test(F)), repeat(concat(N, test(exists())), 0, 3))
        assert classify(expr) is Fragment.FULL

    def test_pc_with_axis_noi(self):
        expr = concat(test(path_test(F)), repeat(N, 0, 3))
        assert classify(expr) is Fragment.PC_ANOI

    def test_path_condition_nested_in_boolean(self):
        expr = test(and_(is_node(), not_(path_test(F))))
        assert has_path_conditions(expr)

    def test_noi_inside_path_condition(self):
        expr = test(path_test(repeat(N, 0, 2)))
        assert has_occurrence_indicators(expr)

    def test_fragment_str(self):
        assert str(Fragment.FULL) == "NavL[PC,NOI]"
        assert str(Fragment.ANOI) == "NavL[ANOI]"

    def test_repeat_node_repr(self):
        assert "[0,_]" in repr(Repeat(N, 0, None))
