"""Rescuer records and cross-collection linking (the Figure 2 story).

Yad Vashem "also commemorates non-Jewish individuals who risked their
lives to save Jewish people" — the Righteous Among the Nations. The
introduction's knowledge graph links victim entities to such records:
Clotilde Boggio "hid a child named Massimo from the Nazis in a village
called Cuorgne from 1944 to 1945", which attaches to Massimo Foa's
entity through a first-name plus place match.

This module models rescuer records and adds ``possibly_hidden_by`` edges
to a knowledge graph: a rescuer links to an entity when the hidden
child's recorded name matches one of the entity's first names (fuzzy,
Jaro-Winkler) and, if both sides know places, the rescue place is near
one of the entity's places.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import networkx as nx

from repro.geo import GeoPoint, haversine_km
from repro.graph.knowledge import EntityProfile
from repro.records.schema import PLACE_TYPES
from repro.similarity.items import GeoLookup
from repro.similarity.strings import jaro_winkler

__all__ = ["RescuerRecord", "link_rescuers"]


@dataclass(frozen=True)
class RescuerRecord:
    """A Righteous-Among-the-Nations commemoration record."""

    rescuer_id: int
    name: str
    place: str
    period: Optional[str] = None
    hidden_first_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a rescuer record needs a name")


def _name_matches(
    hidden_name: str, profile: EntityProfile, threshold: float
) -> bool:
    for first in profile.names.get("first", ()):
        if jaro_winkler(hidden_name.lower(), first.lower()) >= threshold:
            return True
    return False


def _place_compatible(
    rescue_point: Optional[GeoPoint],
    profile: EntityProfile,
    geo_lookup: Optional[GeoLookup],
    max_km: float,
) -> bool:
    """True when the rescue place is near any of the entity's places.

    Unknown coordinates on either side are treated as compatible — the
    link stays a *possible* one, as uncertain ER demands.
    """
    if rescue_point is None or geo_lookup is None:
        return True
    entity_points = []
    for place_type in PLACE_TYPES:
        for city in profile.places.get(place_type, ()):
            point = geo_lookup(city)
            if point is not None:
                entity_points.append(point)
    if not entity_points:
        return True
    return any(
        haversine_km(rescue_point, point) <= max_km
        for point in entity_points
    )


def link_rescuers(
    graph: "nx.MultiDiGraph",
    rescuers: List[RescuerRecord],
    geo_lookup: Optional[GeoLookup] = None,
    name_threshold: float = 0.92,
    max_km: float = 60.0,
) -> int:
    """Add rescuer nodes and ``possibly_hidden_by`` edges to a graph.

    ``graph`` is a knowledge graph from
    :func:`repro.graph.knowledge.build_knowledge_graph`. Returns the
    number of edges added. Rescuers with no recorded hidden-child name
    still get a node (they are commemorations in their own right), just
    no edges.
    """
    added = 0
    entities: List[Tuple[tuple, EntityProfile]] = [
        (node, data["profile"])
        for node, data in graph.nodes(data=True)
        if node[0] == "entity"
    ]
    for rescuer in rescuers:
        rescuer_node = ("rescuer", rescuer.rescuer_id)
        graph.add_node(rescuer_node, label=rescuer.name, record=rescuer)
        if rescuer.hidden_first_name is None:
            continue
        rescue_point = geo_lookup(rescuer.place) if geo_lookup else None
        for node, profile in entities:
            if not _name_matches(
                rescuer.hidden_first_name, profile, name_threshold
            ):
                continue
            if not _place_compatible(
                rescue_point, profile, geo_lookup, max_km
            ):
                continue
            graph.add_edge(node, rescuer_node,
                           relation="possibly_hidden_by",
                           period=rescuer.period)
            added += 1
    return added
