"""Narrative generation from resolved entities.

"Weaving information to form narratives, stories told as a sequence of
events, has traditionally been a manual process" — the project's end
goal is automatic narrative construction. A narrative here is a short
biographical text assembled from an entity profile, and — because the
resolution is uncertain — a *ranked list* of alternative narratives at
different certainty levels rather than one crisp story (Section 1:
"the outcome is a ranked list of possible narratives").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.resolution import ResolutionResult
from repro.graph.knowledge import EntityProfile, merge_entity
from repro.records.dataset import Dataset
from repro.records.schema import Gender, PlaceType

__all__ = ["Narrative", "narrative_for", "ranked_narratives"]


@dataclass(frozen=True)
class Narrative:
    """One possible story: the text, its entity, and its confidence."""

    entity: EntityProfile
    text: str
    confidence: float
    certainty_level: float

    @property
    def n_reports(self) -> int:
        return self.entity.n_reports


def narrative_for(profile: EntityProfile) -> str:
    """Render an entity profile as a one-paragraph biography."""
    parts: List[str] = []
    name = profile.display_name()
    parts.append(name)

    if profile.birth_year is not None:
        date = str(profile.birth_year)
        if profile.birth_month is not None:
            date = f"{profile.birth_month:02d}/{date}"
            if profile.birth_day is not None:
                date = f"{profile.birth_day:02d}/{date}"
        born = f"was born {date}"
        birth_place = profile.primary_place(PlaceType.BIRTH)
        if birth_place:
            born += f" in {birth_place}"
        parts.append(born)
    else:
        birth_place = profile.primary_place(PlaceType.BIRTH)
        if birth_place:
            parts.append(f"was born in {birth_place}")

    father = profile.primary("father")
    mother = profile.primary("mother")
    if father and mother:
        parts.append(f"to {father} and {mother}")
    elif father:
        parts.append(f"to {father}")
    elif mother:
        parts.append(f"to {mother}")

    spouse = profile.primary("spouse")
    if spouse:
        married = "married to" if profile.gender is not Gender.FEMALE else "married to"
        parts.append(f"{married} {spouse}")

    residence = profile.primary_place(PlaceType.PERMANENT)
    if residence:
        parts.append(f"resided in {residence}")
    wartime = profile.primary_place(PlaceType.WARTIME)
    if wartime and wartime != residence:
        parts.append(f"was in {wartime} during the war")
    if profile.profession:
        parts.append(f"worked as a {profile.profession}")
    death = profile.primary_place(PlaceType.DEATH)
    if death:
        parts.append(f"perished in {death}")

    sentence = f"{parts[0]} " + ", ".join(parts[1:]) if len(parts) > 1 else parts[0]
    sources = profile.n_reports
    plural = "s" if sources != 1 else ""
    return f"{sentence}. (woven from {sources} report{plural})"


def ranked_narratives(
    dataset: Dataset,
    resolution: ResolutionResult,
    certainty_levels: Sequence[float] = (0.5, 0.25, 0.0),
    min_reports: int = 2,
) -> List[Narrative]:
    """Alternative narratives across certainty levels, best first.

    Each certainty level induces a clustering; each multi-report cluster
    yields a candidate narrative whose confidence is the mean ranking
    key of its internal pairs, scaled by the certainty level it survives
    at. Narratives about the same record set are deduplicated, keeping
    the highest-confidence version — so a stable cluster (the lucky
    "single narrative that dominates" case) appears once, while unstable
    clusters contribute alternatives.
    """
    if min_reports < 1:
        raise ValueError(f"min_reports must be >= 1, got {min_reports}")
    best: Dict[Tuple[int, ...], Narrative] = {}
    # Built once: a resolution makes each PairEvidence when it is read.
    evidence = list(resolution)
    for level in sorted(set(certainty_levels), reverse=True):
        for cluster in resolution.entities(certainty=level):
            if len(cluster) < min_reports:
                continue
            key = tuple(sorted(cluster))
            internal = [
                entry.ranking_key
                for entry in evidence
                if entry.pair[0] in cluster and entry.pair[1] in cluster
            ]
            confidence = sum(internal) / len(internal) if internal else 0.0
            profile = merge_entity(len(best), [dataset[rid] for rid in key])
            narrative = Narrative(
                entity=profile,
                text=narrative_for(profile),
                confidence=confidence,
                certainty_level=level,
            )
            existing = best.get(key)
            if existing is None or narrative.confidence > existing.confidence:
                best[key] = narrative
    return sorted(best.values(), key=lambda n: (-n.confidence, n.entity.record_ids))
