"""Scenario tests: additional hand-verified queries over the running example.

These complement the golden Q1–Q12 tables with further MATCH clauses
whose answers can be read directly off Figure 1, exercising combinations
(incoming edges, edge-property filters, time windows, chained hops,
label tests inside path expressions) that the numbered queries do not
cover.  Every scenario is checked on both engines.
"""

import json

import pytest

from repro.dataflow import DataflowEngine
from repro.eval import ReferenceEngine


@pytest.fixture(scope="module")
def engines():
    from repro.model.examples import contact_tracing_example

    graph = contact_tracing_example()
    return ReferenceEngine(graph), DataflowEngine(graph)


def both(engines, query):
    reference, dataflow = engines
    ref = reference.match(query)
    df = dataflow.match(query)
    assert ref.as_set() == df.as_set()
    return ref


class TestStructuralScenarios:
    def test_who_cohabits_with_whom(self, engines):
        table = both(engines, "MATCH (x:Person)-[:cohabits]->(y:Person) ON g")
        pairs = {(x, y) for (x, _xt), (y, _yt) in table.rows}
        assert pairs == {("n2", "n3")}
        times = {xt for (_x, xt), _y in table.rows}
        assert times == set(range(3, 8))

    def test_meetings_in_the_park(self, engines):
        table = both(
            engines, "MATCH (x:Person)-[z:meets {loc = 'park'}]->(y:Person) ON g"
        )
        edges = {z for _x, (z, _zt), _y in table.rows}
        assert edges == {"e1", "e2", "e11"}

    def test_meetings_in_the_cafe_at_specific_time(self, engines):
        table = both(
            engines,
            "MATCH (x:Person {time = '5'})-[z:meets {loc = 'cafe'}]->(y:Person) ON g",
        )
        assert {(x, z, y) for (x, _), (z, _), (y, _) in table.rows} == {("n7", "e10", "n6")}

    def test_rooms_in_the_cs_building(self, engines):
        table = both(engines, "MATCH (r:Room {bldg = 'CS'}) ON g")
        assert {obj for ((obj, _t),) in table.rows} == {"n4"}
        assert len(table) == 6  # n4 exists during [3, 8]

    def test_visitors_of_the_math_building(self, engines):
        table = both(
            engines,
            "MATCH (p:Person)-[:visits]->(r:Room {bldg = 'MATH'}) ON g",
        )
        visitors = {p for (p, _pt), _r in table.rows}
        assert visitors == {"n1", "n6"}

    def test_incoming_visits_per_room(self, engines):
        table = both(engines, "MATCH (r:Room)<-[:visits]-(p:Person {risk = 'high'}) ON g")
        pairs = {(r, p) for (r, _rt), (p, _pt) in table.rows}
        assert pairs == {("n4", "n3"), ("n4", "n7")}

    def test_two_hop_room_sharing(self, engines):
        table = both(
            engines,
            "MATCH (a:Person {name = 'Zoe'})-[:visits]->(r:Room)<-[:visits]-(b:Person) ON g",
        )
        others = {b for _a, _r, (b, _bt) in table.rows}
        assert others == {"n3", "n6", "n7"}  # Zoe herself matches the pattern too


class TestTemporalScenarios:
    def test_bob_after_becoming_high_risk(self, engines):
        table = both(engines, "MATCH (x:Person {name = 'Bob' AND time >= '5'}) ON g")
        assert {t for ((_obj, t),) in table.rows} == set(range(5, 10))

    def test_state_one_step_before_risk_change(self, engines):
        # Bob is high-risk from time 5; one step earlier he was low-risk.
        table = both(
            engines,
            "MATCH (x:Person {name = 'Bob' AND risk = 'high'})-/PREV/-"
            "(y:Person {risk = 'low'}) ON g",
        )
        assert {(xt, yt) for (_x, xt), (_y, yt) in table.rows} == {(5, 4)}

    def test_window_before_positive_test_bounded(self, engines):
        table = both(
            engines,
            "MATCH (x:Person {test = 'pos'})-/PREV[1,3]/-(y:Person) ON g",
        )
        assert {yt for _x, (_y, yt) in table.rows} == {6, 7, 8}

    def test_future_of_a_meeting(self, engines):
        # From Mia's meeting with Eve at time 4, walk forward while Eve exists.
        table = both(
            engines,
            "MATCH (x:Person {name = 'Mia'})-/FWD/:meets/FWD/NEXT[2,4]/-(y:Person) ON g",
        )
        assert {yt for _x, (_y, yt) in table.rows} == {6, 7, 8}

    def test_room_occupancy_window(self, engines):
        table = both(
            engines,
            "MATCH (p:Person)-[:visits]->(r:Room {time < '6'}) ON g",
        )
        assert {(p, t) for (p, t), _r in table.rows} == {("n6", 5), ("n1", 5)}

    def test_union_of_meets_and_cohabits_exposure(self, engines):
        table = both(
            engines,
            "MATCH (x:Person {risk = 'high'})-"
            "/(FWD/:meets/FWD + FWD/:cohabits/FWD)/NEXT*/-({test = 'pos'}) ON g",
        )
        # Adding cohabits does not add new people: only Bob and Mia cohabit
        # and neither tests positive.
        assert {obj for ((obj, _t),) in table.rows} == {"n3", "n7"}

    def test_backward_structural_with_temporal_window(self, engines):
        table = both(
            engines,
            "MATCH (r:Room {bldg = 'CS'})<-[:visits]-(p:Person)-/NEXT[0,12]/-"
            "({test = 'pos'}) ON g",
        )
        assert {p for _r, (p, _pt) in table.rows} == {"n6"}


class TestQuotedDigitLiterals:
    """A quoted digit string matches a stored int *and* a stored string:
    ``'1'`` selects both ``name = 1`` and ``name = "1"``, unquoted ``1``
    only the int, and ``!=`` is the negation of the quoted match."""

    @staticmethod
    def _batch():
        from repro.streaming.delta import DeltaBatch

        batch = DeltaBatch(sequence=1)
        for node, name in (("n_str", "1"), ("n_int", 1)):
            batch.add_node(node, "Person", [(2, 4)])
            batch.set_property(node, "name", name, 2, 4)
        return batch

    @pytest.fixture(scope="class")
    def digits(self):
        from repro.model.examples import contact_tracing_example
        from repro.streaming.delta import apply_delta

        graph = contact_tracing_example()
        apply_delta(graph, self._batch())
        return ReferenceEngine(graph), DataflowEngine(graph)

    CASES = {
        "MATCH (x:Person {name = '1'}) ON g": {"n_str", "n_int"},
        "MATCH (x:Person {name = 1}) ON g": {"n_int"},
        "MATCH (x:Person {name = 'Ann' OR name = '1'}) ON g": {"n1", "n_str", "n_int"},
        "MATCH (x:Person {name != '1'}) ON g": {"n1", "n2", "n3", "n6", "n7"},
    }

    @pytest.mark.parametrize("query", sorted(CASES))
    def test_both_engines(self, digits, query):
        table = both(digits, query)
        assert {x for ((x, _t),) in table.rows} == self.CASES[query]

    def test_served_query_and_registered_table(self):
        from repro.model.examples import contact_tracing_example
        from repro.server import GraphHost

        host = GraphHost("g", contact_tracing_example())
        host.register("MATCH (x:Person {name = '1'}) ON g", name="digits")
        host.apply_delta(self._batch().to_json_dict())
        for payload in (
            host.query("MATCH (x:Person {name = '1'}) ON g")["result"],
            host.table("digits")["result"],
        ):
            families = json.loads(payload["families"].data)
            assert sorted(dict(bindings)["x"] for bindings, _times in families) == ["n_int", "n_str"]
