"""Tests for rescuer linking (the Clotilde Boggio / Massimo Foa story)."""

from __future__ import annotations

import pytest

from repro.core.resolution import PairEvidence, ResolutionResult
from repro.geo import GeoPoint
from repro.graph.knowledge import build_knowledge_graph
from repro.graph.rescuers import RescuerRecord, link_rescuers
from repro.records.dataset import Dataset
from repro.records.schema import Gender, Place, PlaceType
from tests.conftest import make_record

CUORGNE = GeoPoint(45.3900, 7.6500)
ODESSA = GeoPoint(46.4825, 30.7233)

GAZETTEER = {
    "cuorgne": CUORGNE,
    "torino": GeoPoint(45.0703, 7.6869),
    "odessa": ODESSA,
}


def lookup(name):
    return GAZETTEER.get(name.lower())


@pytest.fixture()
def massimo_graph():
    """Massimo Foa (Cuorgne) and an unrelated distant record."""
    records = [
        make_record(
            book_id=1, first=("Massimo",), last=("Foa",), gender=Gender.MALE,
            places={PlaceType.WARTIME: (
                Place(city="Cuorgne", country="Italy", coords=CUORGNE),
            )},
        ),
        make_record(
            book_id=2, first=("Massimo",), last=("Polyak",),
            places={PlaceType.WARTIME: (
                Place(city="Odessa", country="USSR", coords=ODESSA),
            )},
        ),
        make_record(book_id=3, first=("Guido",), last=("Foa",)),
    ]
    dataset = Dataset(records)
    resolution = ResolutionResult(
        [PairEvidence((1, 3), similarity=0.1, confidence=-2.0)]
    )
    return dataset, build_knowledge_graph(dataset, resolution, certainty=5.0)


class TestRescuerRecord:
    def test_needs_name(self):
        with pytest.raises(ValueError):
            RescuerRecord(1, "", "Cuorgne")


class TestLinkRescuers:
    def clotilde(self):
        return RescuerRecord(
            rescuer_id=1, name="Clotilde Boggio", place="Cuorgne",
            period="1944-1945", hidden_first_name="Massimo",
        )

    def test_links_massimo_in_cuorgne(self, massimo_graph):
        _dataset, graph = massimo_graph
        added = link_rescuers(graph, [self.clotilde()], geo_lookup=lookup)
        assert added == 1
        edges = [
            (u, v, data) for u, v, data in graph.edges(data=True)
            if data.get("relation") == "possibly_hidden_by"
        ]
        assert len(edges) == 1
        entity_node, rescuer_node, data = edges[0]
        profile = graph.nodes[entity_node]["profile"]
        assert profile.record_ids == (1,)  # the Cuorgne Massimo, not Odessa
        assert rescuer_node == ("rescuer", 1)
        assert data["period"] == "1944-1945"

    def test_geo_filter_blocks_distant_namesake(self, massimo_graph):
        _dataset, graph = massimo_graph
        link_rescuers(graph, [self.clotilde()], geo_lookup=lookup)
        for u, v, data in graph.edges(data=True):
            if data.get("relation") != "possibly_hidden_by":
                continue
            assert graph.nodes[u]["profile"].record_ids != (2,)

    def test_without_gazetteer_links_all_name_matches(self, massimo_graph):
        _dataset, graph = massimo_graph
        added = link_rescuers(graph, [self.clotilde()], geo_lookup=None)
        assert added == 2  # both Massimos are *possible* without geo evidence

    def test_rescuer_without_hidden_name_gets_node_only(self, massimo_graph):
        _dataset, graph = massimo_graph
        rescuer = RescuerRecord(5, "Anonymous Righteous", "Torino")
        added = link_rescuers(graph, [rescuer], geo_lookup=lookup)
        assert added == 0
        assert ("rescuer", 5) in graph.nodes

    def test_fuzzy_name_match(self, massimo_graph):
        _dataset, graph = massimo_graph
        rescuer = RescuerRecord(
            7, "C. Boggio", "Cuorgne", hidden_first_name="Masimo"  # typo
        )
        added = link_rescuers(graph, [rescuer], geo_lookup=lookup)
        assert added >= 1
