"""Focused tests for MATCH compilation details (segments, edge translation)."""

from repro.lang import ast
from repro.lang.parser import EdgePattern, parse_match
from repro.lang.translate import (
    Segment,
    compile_match,
    edge_pattern_test,
    node_pattern_test,
    translate_path,
)
from repro.lang.ast import AndTest, Concat, EdgeTest, ExistsTest, LabelTest, TestPath, Union


class TestEdgePatternTranslation:
    def test_edge_test_components(self):
        pattern = EdgePattern(variable="z", label="meets", condition=ast.prop_eq("loc", "park"))
        condition = edge_pattern_test(pattern)
        assert isinstance(condition, AndTest)
        assert EdgeTest() in condition.parts
        assert LabelTest("meets") in condition.parts
        assert ExistsTest() in condition.parts

    def test_outgoing_edge_without_variable_is_single_concat(self):
        compiled = compile_match("MATCH (x)-[:meets]->(y) ON g")
        connector_segment = compiled.segments[1]
        assert connector_segment.variable is None
        assert isinstance(connector_segment.path, Concat)

    def test_incoming_edge_uses_backward_axes(self):
        compiled = compile_match("MATCH (x)<-[:meets]-(y) ON g")
        path = compiled.segments[1].path
        axes = [part for part in path.parts if part in (ast.F, ast.B)]
        assert axes == [ast.B, ast.B]

    def test_outgoing_edge_uses_forward_axes(self):
        compiled = compile_match("MATCH (x)-[:meets]->(y) ON g")
        path = compiled.segments[1].path
        axes = [part for part in path.parts if part in (ast.F, ast.B)]
        assert axes == [ast.F, ast.F]

    def test_undirected_edge_is_union_of_both_directions(self):
        compiled = compile_match("MATCH (x)-[:meets]-(y) ON g")
        path = compiled.segments[1].path
        assert isinstance(path, Union)
        assert len(path.parts) == 2

    def test_edge_variable_segment_is_the_edge_test(self):
        compiled = compile_match("MATCH (x)-[z:meets]->(y) ON g")
        edge_segment = compiled.segments[2]
        assert edge_segment.variable == "z"
        assert isinstance(edge_segment.path, TestPath)


class TestNodePatternTranslation:
    def test_bare_node_pattern(self):
        query = parse_match("MATCH (x) ON g")
        condition = node_pattern_test(query.elements[0])
        assert isinstance(condition, AndTest)
        assert ExistsTest() in condition.parts

    def test_anonymous_condition_only_pattern(self):
        query = parse_match("MATCH ({test = 'pos'}) ON g")
        condition = node_pattern_test(query.elements[0])
        assert ast.prop_eq("test", "pos") in condition.parts


class TestCompiledMatchStructure:
    def test_segments_are_value_objects(self):
        segment = Segment(ast.F, "x")
        assert segment == Segment(ast.F, "x")
        assert segment != Segment(ast.B, "x")

    def test_full_path_round_trips_through_reference_engine(self, figure1_engine):
        compiled = compile_match(
            "MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person) ON contact_tracing"
        )
        endpoints = figure1_engine.evaluate_path(compiled.full_path())
        assert ("n6", 9, "n6", 8) in endpoints

    def test_graph_name_propagates(self):
        assert compile_match("MATCH (x) ON my_graph").graph_name == "my_graph"
        assert compile_match("MATCH (x)").graph_name is None

    def test_translate_path_is_parse_path(self):
        assert translate_path("NEXT[0,3]") == ast.repeat(
            ast.concat(ast.N, ast.exists()), 0, 3
        )
        assert translate_path("NEXT[0,3]", implicit_existence=False) == ast.repeat(ast.N, 0, 3)

    def test_variables_exclude_anonymous_elements(self):
        compiled = compile_match("MATCH (x)-[:meets]->()-[:visits]->(z:Room) ON g")
        assert compiled.variables == ("x", "z")

    def test_segment_count_for_long_chain(self):
        compiled = compile_match(
            "MATCH (a)-[:meets]->(b)-/NEXT*/-(c)-[e:visits]->(d) ON g"
        )
        # a, edge, b, path, c, pre/edge var/post, d
        assert compiled.variables == ("a", "b", "c", "e", "d")
        assert len(compiled.segments) == 1 + 1 + 1 + 1 + 1 + 3 + 1
