"""Tests for the practical-syntax parser (path expressions and MATCH clauses)."""

import pytest

from repro.errors import QuerySyntaxError, QueryTranslationError
from repro.lang import ast, parse_match, parse_path
from repro.lang.ast import (
    AndTest,
    Concat,
    ExistsTest,
    LabelTest,
    NotTest,
    OrTest,
    PropEq,
    Repeat,
    TestPath,
    TimeLt,
    Union,
)
from repro.lang.parser import EdgePattern, NodePattern, PathPattern, tokenize
from repro.lang.translate import compile_match, node_pattern_test


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("MATCH (x:Person) ON g")]
        assert kinds == ["IDENT", "(", "IDENT", ":", "IDENT", ")", "IDENT", "IDENT"]

    def test_string_and_number(self):
        tokens = tokenize("{risk = 'low' AND time < 10}")
        assert any(t.kind == "STRING" for t in tokens)
        assert any(t.kind == "NUMBER" for t in tokens)

    def test_arrow_in(self):
        assert tokenize("<-[")[0].kind == "<-"

    def test_le_ge(self):
        kinds = {t.kind for t in tokenize("a <= 3 >= 4")}
        assert "<=" in kinds and ">=" in kinds

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("MATCH (x) § ON g")


class TestPathParsing:
    def test_single_axis_with_implicit_existence(self):
        expr = parse_path("NEXT")
        assert expr == ast.concat(ast.N, ast.exists())

    def test_single_axis_bare(self):
        assert parse_path("NEXT", implicit_existence=False) == ast.N
        assert parse_path("FWD", implicit_existence=False) == ast.F
        assert parse_path("BWD", implicit_existence=False) == ast.B
        assert parse_path("PREV", implicit_existence=False) == ast.P

    def test_axis_keywords_case_insensitive(self):
        assert parse_path("next", implicit_existence=False) == ast.N

    def test_label_test(self):
        expr = parse_path(":meets", implicit_existence=False)
        assert expr == ast.test(ast.label("meets"))

    def test_label_test_with_existence(self):
        expr = parse_path(":meets")
        assert isinstance(expr, TestPath)
        assert isinstance(expr.condition, AndTest)
        assert LabelTest("meets") in expr.condition.parts
        assert ExistsTest() in expr.condition.parts

    def test_concatenation(self):
        expr = parse_path("FWD/:meets/FWD", implicit_existence=False)
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 3

    def test_union_precedence(self):
        expr = parse_path("FWD/BWD + NEXT", implicit_existence=False)
        assert isinstance(expr, Union)
        assert isinstance(expr.parts[0], Concat)
        assert expr.parts[1] == ast.N

    def test_parentheses(self):
        expr = parse_path("(FWD + BWD)/NEXT", implicit_existence=False)
        assert isinstance(expr, Concat)
        assert isinstance(expr.parts[0], Union)

    def test_kleene_star(self):
        expr = parse_path("PREV*", implicit_existence=False)
        assert expr == ast.star(ast.P)

    def test_kleene_star_with_existence(self):
        expr = parse_path("PREV*")
        assert expr == ast.star(ast.concat(ast.P, ast.exists()))

    def test_bounded_repetition(self):
        expr = parse_path("NEXT[0,12]", implicit_existence=False)
        assert expr == ast.repeat(ast.N, 0, 12)

    def test_unbounded_repetition(self):
        expr = parse_path("NEXT[3,_]", implicit_existence=False)
        assert expr == ast.repeat(ast.N, 3, None)

    def test_repetition_on_group(self):
        expr = parse_path("(FWD/BWD)[1,2]", implicit_existence=False)
        assert isinstance(expr, Repeat)
        assert isinstance(expr.body, Concat)

    def test_property_condition(self):
        expr = parse_path("{risk = 'low'}", implicit_existence=False)
        assert expr == ast.test(ast.prop_eq("risk", "low"))

    def test_property_condition_with_and(self):
        expr = parse_path("{risk = 'low' AND time < '10'}", implicit_existence=False)
        condition = expr.condition
        assert isinstance(condition, AndTest)
        assert PropEq("risk", "low") in condition.parts
        assert TimeLt(10) in condition.parts

    def test_time_equality(self):
        expr = parse_path("{time = '3'}", implicit_existence=False)
        assert expr == ast.test(ast.time_eq(3))

    def test_time_comparisons(self):
        assert parse_path("{time <= 4}", implicit_existence=False).condition == TimeLt(5)
        assert parse_path("{time > 4}", implicit_existence=False).condition == NotTest(TimeLt(5))
        assert parse_path("{time >= 4}", implicit_existence=False).condition == NotTest(TimeLt(4))

    def test_property_not_equal(self):
        expr = parse_path("{risk != 'low'}", implicit_existence=False)
        assert expr.condition == NotTest(PropEq("risk", "low"))

    def test_or_and_not_in_conditions(self):
        expr = parse_path("{NOT (risk = 'low' OR risk = 'high')}", implicit_existence=False)
        assert isinstance(expr.condition, NotTest)

    def test_numeric_string_normalized(self):
        # A quoted digit string matches a stored int and a stored string.
        expr = parse_path("{num = '750'}", implicit_existence=False)
        assert expr.condition == OrTest((PropEq("num", 750), PropEq("num", "750")))
        expr = parse_path("{num != '750'}", implicit_existence=False)
        assert expr.condition == NotTest(OrTest((PropEq("num", 750), PropEq("num", "750"))))
        assert parse_path("{num = 750}", implicit_existence=False).condition == PropEq("num", 750)
        # A digit that int() cannot read stays a string.
        assert parse_path("{num = '²'}", implicit_existence=False).condition == PropEq("num", "²")

    def test_inequality_on_property_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_path("{risk < 'low'}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_path("FWD FWD")

    def test_unclosed_paren_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_path("(FWD/BWD")

    def test_q12_expression_parses(self):
        text = (
            "(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]"
        )
        expr = parse_path(text)
        assert isinstance(expr, Concat)
        assert isinstance(expr.parts[0], Union)
        assert isinstance(expr.parts[-1], Repeat)


class TestMatchParsing:
    def test_minimal_match(self):
        query = parse_match("MATCH (x:Person) ON g")
        assert query.graph_name == "g"
        assert query.elements == (NodePattern("x", "Person", None),)
        assert query.connectors == ()

    def test_match_without_on(self):
        query = parse_match("MATCH (x)")
        assert query.graph_name is None

    def test_anonymous_element(self):
        query = parse_match("MATCH ({test = 'pos'}) ON g")
        element = query.elements[0]
        assert element.variable is None and element.label is None
        assert element.condition == PropEq("test", "pos")

    @pytest.mark.parametrize(
        "literal, value",
        [
            (r"'a\\'", "a\\"),  # an escaped backslash may end the literal
            (r"'a\\b'", r"a\b"),
            (r"'it\'s'", "it's"),
            (r"'\\\''", "\\'"),
            (r"'a\b'", "ab"),  # any other escaped character stands for itself
        ],
    )
    def test_string_literal_escapes(self, literal, value):
        query = parse_match(f"MATCH ({{name = {literal}}}) ON g")
        assert query.elements[0].condition == PropEq("name", value)

    def test_label_only_element(self):
        query = parse_match("MATCH (:Room) ON g")
        assert query.elements[0] == NodePattern(None, "Room", None)

    def test_edge_pattern_directed(self):
        query = parse_match("MATCH (x)-[z:meets]->(y) ON g")
        connector = query.connectors[0]
        assert isinstance(connector, EdgePattern)
        assert connector.variable == "z"
        assert connector.label == "meets"
        assert connector.direction == "out"

    def test_edge_pattern_incoming(self):
        query = parse_match("MATCH (x)<-[:visits]-(y) ON g")
        assert query.connectors[0].direction == "in"

    def test_edge_pattern_undirected(self):
        query = parse_match("MATCH (x)-[:meets]-(y) ON g")
        assert query.connectors[0].direction == "both"

    def test_edge_pattern_with_condition(self):
        query = parse_match("MATCH (x)-[z:meets {loc = 'park'}]->(y) ON g")
        assert query.connectors[0].condition == PropEq("loc", "park")

    def test_path_pattern(self):
        query = parse_match("MATCH (x:Person)-/PREV/-(y:Person) ON g")
        connector = query.connectors[0]
        assert isinstance(connector, PathPattern)
        assert connector.path == ast.concat(ast.P, ast.exists())

    def test_path_pattern_with_star(self):
        query = parse_match("MATCH (x)-/PREV*/FWD/:visits/FWD/-(z:Room) ON g")
        connector = query.connectors[0]
        assert isinstance(connector, PathPattern)
        assert isinstance(connector.path, Concat)

    def test_multi_hop_pattern(self):
        query = parse_match(
            "MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person)-[:visits]->(z:Room) ON g"
        )
        assert len(query.elements) == 3
        assert len(query.connectors) == 2

    def test_variables_in_order(self):
        query = parse_match("MATCH (x)-[z:meets]->(y) ON g")
        assert query.variables() == ["x", "z", "y"]

    def test_missing_match_keyword(self):
        with pytest.raises(QuerySyntaxError):
            parse_match("(x:Person) ON g")

    def test_bad_connector(self):
        with pytest.raises(QuerySyntaxError):
            parse_match("MATCH (x)->(y) ON g")


class TestCompileMatch:
    def test_node_pattern_test_includes_existence(self):
        pattern = NodePattern("x", "Person", ast.prop_eq("risk", "low"))
        condition = node_pattern_test(pattern)
        assert isinstance(condition, AndTest)
        assert ExistsTest() in condition.parts
        assert LabelTest("Person") in condition.parts

    def test_compile_binds_variables_in_order(self):
        compiled = compile_match("MATCH (x)-[z:meets]->(y:Person) ON g")
        assert compiled.variables == ("x", "z", "y")
        assert compiled.graph_name == "g"

    def test_compile_counts_segments(self):
        compiled = compile_match("MATCH (x:Person)-/PREV/-(y:Person) ON g")
        # first node, path connector, second node
        assert len(compiled.segments) == 3

    def test_edge_without_variable_is_one_segment(self):
        compiled = compile_match("MATCH (x)-[:meets]->(y) ON g")
        assert len(compiled.segments) == 3

    def test_edge_with_variable_is_three_segments(self):
        compiled = compile_match("MATCH (x)-[z:meets]->(y) ON g")
        assert len(compiled.segments) == 5

    def test_undirected_edge_with_variable_rejected(self):
        with pytest.raises(QueryTranslationError):
            compile_match("MATCH (x)-[z:meets]-(y) ON g")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(QueryTranslationError):
            compile_match("MATCH (x)-[:meets]->(x) ON g")

    def test_full_path_concatenates_segments(self):
        compiled = compile_match("MATCH (x:Person)-/PREV/-(y:Person) ON g")
        full = compiled.full_path()
        assert isinstance(full, Concat)

    def test_compile_accepts_parsed_query(self):
        parsed = parse_match("MATCH (x:Person) ON g")
        compiled = compile_match(parsed)
        assert compiled.variables == ("x",)


class TestPaperTranslationExamples:
    """Spot checks of the Section V-A correspondences."""

    def test_prev_example(self):
        # MATCH (x:Person {test='pos'})-/PREV/-(y) corresponds to
        # (Node ∧ Person ∧ test↦pos ∧ ∃) / P / ∃ / (Node ∧ ∃)
        compiled = compile_match(
            "MATCH (x:Person {test = 'pos'})-/PREV/-(y) ON graph"
        )
        first = compiled.segments[0].path
        assert isinstance(first, TestPath)
        parts = first.condition.parts
        assert LabelTest("Person") in parts and PropEq("test", "pos") in parts

    def test_q4_time_condition(self):
        compiled = compile_match(
            "MATCH (x:Person {risk = 'low' AND time < '10'}) ON contact_tracing"
        )
        condition = compiled.segments[0].path.condition
        assert TimeLt(10) in condition.parts
