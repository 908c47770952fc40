"""Tests for TPG ↔ ITPG conversion and for snapshot extraction."""

import pytest

from repro.model import (
    TemporalPropertyGraph,
    itpg_to_tpg,
    snapshot_at,
    snapshot_sequence,
    tpg_to_itpg,
)
from repro.temporal import IntervalSet


class TestConversionRoundTrip:
    def test_itpg_to_tpg_preserves_structure(self, figure1):
        tpg = itpg_to_tpg(figure1)
        assert set(tpg.nodes()) == set(figure1.nodes())
        assert set(tpg.edges()) == set(figure1.edges())
        assert tpg.domain == figure1.domain
        for edge in figure1.edges():
            assert tpg.endpoints(edge) == figure1.endpoints(edge)

    def test_round_trip_existence(self, figure1):
        tpg = itpg_to_tpg(figure1)
        back = tpg_to_itpg(tpg)
        for obj in figure1.objects():
            assert back.existence(obj) == figure1.existence(obj)

    def test_round_trip_properties(self, figure1):
        back = tpg_to_itpg(itpg_to_tpg(figure1))
        for obj in figure1.objects():
            for name in figure1.property_names(obj):
                assert back.property_family(obj, name) == figure1.property_family(obj, name)

    def test_pointwise_agreement(self, figure1, figure1_tpg):
        for obj in figure1.objects():
            for t in figure1.time_points():
                assert figure1.exists(obj, t) == figure1_tpg.exists(obj, t)
                for name in figure1.property_names(obj):
                    assert figure1.property_value(obj, name, t) == figure1_tpg.property_value(
                        obj, name, t
                    )

    def test_coalescing_during_conversion(self):
        tpg = TemporalPropertyGraph((0, 5))
        tpg.add_node("n", "L")
        tpg.set_existence("n", [0, 1, 2, 4])
        itpg = tpg_to_itpg(tpg)
        assert itpg.existence("n") == IntervalSet([(0, 2), (4, 4)])

    def test_property_value_change_produces_two_entries(self):
        tpg = TemporalPropertyGraph((0, 5))
        tpg.add_node("n", "L")
        tpg.set_existence("n", range(6))
        tpg.set_property("n", "p", "a", [0, 1, 2])
        tpg.set_property("n", "p", "b", [3, 4])
        itpg = tpg_to_itpg(tpg)
        family = itpg.property_family("n", "p")
        assert len(family) == 2
        assert family.value_at(2) == "a" and family.value_at(3) == "b"

    def test_converted_graph_validates(self, figure1_tpg):
        tpg_to_itpg(figure1_tpg).validate()


class TestSnapshots:
    def test_snapshot_membership(self, figure1):
        snap = snapshot_at(figure1, 5)
        assert snap.has_node("n1") and snap.has_node("n2")
        assert snap.has_node("n4") and snap.has_node("n5")
        assert not snap.has_node("n3") or figure1.exists("n3", 5)
        assert snap.has_edge("e1") and snap.has_edge("e10")
        assert not snap.has_edge("e2")

    def test_snapshot_properties(self, figure1):
        snap = snapshot_at(figure1, 5)
        assert snap.property_value("n2", "risk") == "high"
        snap_early = snapshot_at(figure1, 2)
        assert snap_early.property_value("n2", "risk") == "low"

    def test_snapshot_time_outside_existence(self, figure1):
        snap = snapshot_at(figure1, 11)
        assert snap.has_node("n6")
        assert not snap.has_node("n1")
        assert snap.num_edges() == 0

    def test_snapshot_counts(self, figure1):
        snap = snapshot_at(figure1, 1)
        assert snap.num_nodes() == 4  # n1, n2, n3, n7 exist at time 1
        assert set(snap.edges()) == {"e2"}

    def test_edge_endpoints_present(self, figure1):
        snap = snapshot_at(figure1, 6)
        for edge in snap.edges():
            src, tgt = snap.edge_endpoints[edge]
            assert snap.has_node(src) and snap.has_node(tgt)

    def test_snapshot_sequence_length(self, figure1):
        assert len(list(snapshot_sequence(figure1))) == len(figure1.domain)

    def test_snapshot_adjacency_helpers(self, figure1):
        snap = snapshot_at(figure1, 6)
        assert "e9" in snap.out_edges("n7")
        assert "e9" in snap.in_edges("n4")

    def test_snapshot_works_on_tpg(self, figure1_tpg):
        snap = snapshot_at(figure1_tpg, 9)
        assert snap.property_value("n6", "test") == "pos"

    def test_snapshot_to_networkx(self, figure1):
        nx_graph = snapshot_at(figure1, 5).to_networkx()
        assert nx_graph.number_of_nodes() == snapshot_at(figure1, 5).num_nodes()
        assert nx_graph.graph["time"] == 5


class TestSnapshotAgreementAcrossRepresentations:
    @pytest.mark.parametrize("t", [1, 4, 5, 9, 11])
    def test_same_snapshot_from_tpg_and_itpg(self, figure1, figure1_tpg, t):
        a = snapshot_at(figure1, t)
        b = snapshot_at(figure1_tpg, t)
        assert a.node_labels == b.node_labels
        assert a.edge_labels == b.edge_labels
        assert a.edge_endpoints == b.edge_endpoints
        assert a.properties == b.properties
