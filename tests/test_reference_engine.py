"""Tests for the ReferenceEngine facade (path evaluation + MATCH evaluation)."""

from repro.eval import ReferenceEngine
from repro.lang import ast


class TestPathEvaluation:
    def test_evaluate_path_returns_relation(self, figure1_engine):
        relation = figure1_engine.evaluate_path(ast.test(ast.label("Room")))
        assert ("n4", 1, "n4", 1) in relation
        assert ("n1", 1, "n1", 1) not in relation

    def test_holds_membership(self, figure1_engine):
        hop = ast.concat(ast.F, ast.test(ast.exists()), ast.F, ast.test(ast.exists()))
        assert figure1_engine.holds(hop, ("n6", 7), ("n4", 7))
        assert not figure1_engine.holds(hop, ("n6", 3), ("n4", 3))

    def test_graph_property_exposes_tpg(self, figure1_engine):
        assert figure1_engine.graph.num_nodes() == 7

    def test_accepts_tpg_input(self, figure1_tpg):
        engine = ReferenceEngine(figure1_tpg)
        assert len(engine.match("MATCH (x:Room) ON g")) > 0


class TestMatchEvaluation:
    def test_match_single_element(self, figure1_engine):
        table = figure1_engine.match("MATCH (x:Room) ON contact_tracing")
        objs = {obj for ((obj, _t),) in table.rows}
        assert objs == {"n4", "n5"}

    def test_match_without_variables(self, figure1_engine):
        table = figure1_engine.match("MATCH (:Room) ON contact_tracing")
        assert table.variables == ()
        # A single empty row records that the pattern is satisfiable.
        assert len(table) == 1

    def test_match_unsatisfiable_pattern_is_empty(self, figure1_engine):
        table = figure1_engine.match("MATCH (x:Building) ON contact_tracing")
        assert table.is_empty()

    def test_match_with_edge_condition(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person)-[z:meets {loc = 'park'}]->(y:Person) ON contact_tracing"
        )
        edges = {z for (_x, (z, _zt), _y) in table.rows}
        assert edges == {"e1", "e2", "e11"}

    def test_match_undirected_edge(self, figure1_engine):
        directed = figure1_engine.match(
            "MATCH (x:Person {name = 'Mia'})-[:meets]->(y:Person) ON g"
        )
        undirected = figure1_engine.match(
            "MATCH (x:Person {name = 'Mia'})-[:meets]-(y:Person) ON g"
        )
        # Mia (n3) has outgoing meets edge e11 and incoming meets edge e2.
        directed_targets = {obj for _x, (obj, _t) in directed.rows}
        undirected_targets = {obj for _x, (obj, _t) in undirected.rows}
        assert directed_targets == {"n6"}
        assert undirected_targets == {"n6", "n2"}

    def test_match_incoming_edge(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (r:Room)<-[:visits]-(p:Person) ON contact_tracing"
        )
        rooms = {obj for (obj, _t), _p in table.rows}
        assert rooms == {"n4", "n5"}

    def test_match_accepts_compiled_query(self, figure1_engine):
        from repro.lang.translate import compile_match

        compiled = compile_match("MATCH (x:Room) ON g")
        assert len(figure1_engine.match(compiled)) == len(
            figure1_engine.match("MATCH (x:Room) ON g")
        )

    def test_match_chain_of_three_elements(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person {risk = 'high'})-[:visits]->(r:Room)<-[:visits]-"
            "(y:Person {risk = 'low'}) ON contact_tracing"
        )
        assert len(table) > 0
        for (_x, xt), (_r, rt), (_y, yt) in table.rows:
            assert xt == rt == yt

    def test_unknown_label_value_gives_empty_not_error(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person {risk = 'medium'}) ON contact_tracing"
        )
        assert table.is_empty()


class TestMatchSemanticsDetails:
    def test_edge_variable_time_aligned_with_endpoints(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person)-[z:visits]->(r:Room) ON contact_tracing"
        )
        for (_x, xt), (_z, zt), (_r, rt) in table.rows:
            assert xt == zt == rt

    def test_time_condition_restricts_bindings(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person {time >= '9'}) ON contact_tracing"
        )
        assert all(t >= 9 for ((_obj, t),) in table.rows)

    def test_anonymous_intermediate_element_does_not_bind(self, figure1_engine):
        table = figure1_engine.match(
            "MATCH (x:Person {risk = 'high'})-[:visits]->()<-[:visits]-"
            "(y:Person {risk = 'low'}) ON contact_tracing"
        )
        assert table.variables == ("x", "y")
        # n7 and n3 share room n4 with low-risk Eve (n6) at times 7/8 and 7.
        assert len(table) > 0
        assert {obj for (obj, _t), _y in table.rows} <= {"n3", "n7"}
