"""Data-pattern, prevalence, and cardinality analysis (Fig. 11, Tables 3-4).

The multi-source nature of the Names Project shows up as extreme schema
variability: Section 6.2 counts *data patterns* — the set of item types a
record has values for — and finds 96 patterns shared by >10,000 records
covering over four million records alongside 18,567 patterns with fewer
than ten records each.

This module computes:

* :func:`pattern_histogram` — the Figure 11 analysis (pattern counts and
  record sums bucketed by pattern frequency);
* :func:`item_type_prevalence` — Table 3 (records holding each item type);
* :func:`item_type_cardinality` — Table 4 (distinct values and mean
  records per value for each item type).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.records.dataset import Dataset
from repro.records.itembag import ItemType

__all__ = [
    "PatternBucket",
    "pattern_counts",
    "pattern_histogram",
    "item_type_prevalence",
    "CardinalityRow",
    "item_type_cardinality",
    "DEFAULT_BUCKET_EDGES",
]

#: Figure 11 buckets: patterns shared by <=10, <=100, <=1k, <=10k, more records.
DEFAULT_BUCKET_EDGES: Tuple[int, ...] = (10, 100, 1000, 10000)


def pattern_counts(dataset: Dataset) -> Counter:
    """Count how many records share each data pattern."""
    counts: Counter = Counter()
    for record in dataset:
        counts[record.pattern()] += 1
    return counts


@dataclass(frozen=True)
class PatternBucket:
    """One bar of Figure 11.

    ``label`` is the bucket's upper bound ("10", "100", ..., "more");
    ``n_patterns`` is how many distinct patterns fall in the bucket and
    ``n_records`` how many records those patterns cover.
    """

    label: str
    n_patterns: int
    n_records: int


def pattern_histogram(
    dataset: Dataset, edges: Sequence[int] = DEFAULT_BUCKET_EDGES
) -> List[PatternBucket]:
    """Bucket patterns by how many records share them (Figure 11).

    ``edges`` are inclusive upper bounds; a final "more" bucket catches
    patterns above the last edge.
    """
    if list(edges) != sorted(edges):
        raise ValueError("bucket edges must be sorted ascending")
    counts = pattern_counts(dataset)
    labels = [str(edge) for edge in edges] + ["more"]
    n_patterns = [0] * len(labels)
    n_records = [0] * len(labels)
    for count in counts.values():
        index = len(edges)
        for i, edge in enumerate(edges):
            if count <= edge:
                index = i
                break
        n_patterns[index] += 1
        n_records[index] += count
    return [
        PatternBucket(label, patterns, records)
        for label, patterns, records in zip(labels, n_patterns, n_records)
    ]


def full_information_pattern_count(dataset: Dataset) -> int:
    """Number of records holding the maximal (union) pattern of the dataset.

    The paper notes the full-information pattern is rare (40,191 of 6.5M).
    """
    all_fields: FrozenSet[str] = frozenset().union(
        *(record.pattern() for record in dataset)
    ) if len(dataset) else frozenset()
    return sum(1 for record in dataset if record.pattern() == all_fields)


#: Table 3 row order (item types grouped as the paper prints them).
_PREVALENCE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("Last Name", "name:last"),
    ("First Name", "name:first"),
    ("Gender", "gender"),
    ("DOB", "dob"),
    ("Father's Name", "name:father"),
    ("Mother's Name", "name:mother"),
    ("Spouse Name", "name:spouse"),
    ("Maiden Name", "name:maiden"),
    ("Mother's Maiden", "name:mother_maiden"),
    ("Permanent Place", "place:permanent"),
    ("Wartime Place", "place:wartime"),
    ("Birth Place", "place:birth"),
    ("Death Place", "place:death"),
    ("Profession", "profession"),
)


def item_type_prevalence(dataset: Dataset) -> List[Tuple[str, int, float]]:
    """Table 3: per item type, how many records hold it and the fraction.

    Place types count a record once if *any* granularity part is present;
    DOB counts a record once if any date component is present.
    """
    total = len(dataset)
    counts: Counter = Counter()
    for record in dataset:
        fields = record.pattern()
        for label, key in _PREVALENCE_FIELDS:
            if key == "dob":
                present = record.has_dob()
            elif key.startswith("place:"):
                place_type = key.split(":")[1]
                present = any(
                    field.startswith(f"place:{place_type}:") for field in fields
                )
            else:
                present = key in fields
            if present:
                counts[label] += 1
    return [
        (label, counts[label], counts[label] / total if total else 0.0)
        for label, _ in _PREVALENCE_FIELDS
    ]


@dataclass(frozen=True)
class CardinalityRow:
    """One row of Table 4: distinct items and mean records per item."""

    item_type: ItemType
    n_items: int
    records_per_item: float


def item_type_cardinality(dataset: Dataset) -> List[CardinalityRow]:
    """Table 4: distinct values and average records per value, by item type."""
    values: Dict[ItemType, set] = {t: set() for t in ItemType}
    record_hits: Dict[ItemType, int] = {t: 0 for t in ItemType}
    for items in dataset.item_bags.values():
        seen_types = set()
        for item in items:
            values[item.type].add(item.value)
            seen_types.add(item.type)
        for item_type in seen_types:
            record_hits[item_type] += 1
    rows = []
    for item_type in ItemType:
        n_items = len(values[item_type])
        per_item = record_hits[item_type] / n_items if n_items else 0.0
        rows.append(CardinalityRow(item_type, n_items, per_item))
    return rows
