"""Item-bag encoding of victim reports.

MFIBlocks operates on records represented as *bags of items*, where each
item is a field-prefixed value (Table 2 of the paper: the first name
``Avraham`` becomes the item ``F Avraham``). This module defines the item
vocabulary — every item carries an :class:`ItemType` whose *kind* drives
the expert item-similarity function (Eq. 1) — and converts
:class:`~repro.records.schema.VictimRecord` instances to item sets.

Nulls are simply omitted from the bag, which is how the pipeline copes
with the extreme schema variability between sources (Figure 11).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterator, NamedTuple, Tuple

from repro.records.schema import (
    NAME_ATTRIBUTES,
    PLACE_PARTS,
    PLACE_TYPES,
    PlacePart,
    PlaceType,
    VictimRecord,
)

__all__ = [
    "ItemKind",
    "ItemType",
    "Item",
    "record_to_items",
    "place_item_type",
    "NAME_ITEM_TYPES",
]


class ItemKind(str, enum.Enum):
    """Semantic kind of an item — the dispatch key of Eq. 1."""

    NAME = "name"
    YEAR = "year"
    MONTH = "month"
    DAY = "day"
    GEO = "geo"
    CATEGORY = "category"


class ItemType(enum.Enum):
    """All item types in the vocabulary, with their field prefix and kind.

    The prefixes follow the paper's convention of short field references
    (``F Avraham``, ``L Postel``, ``G 0``, ``P1 Lwow`` ...), expanded so
    every (place type, part) combination gets its own prefix.
    """

    FIRST_NAME = ("FN", ItemKind.NAME)
    LAST_NAME = ("LN", ItemKind.NAME)
    MAIDEN_NAME = ("MN", ItemKind.NAME)
    FATHER_NAME = ("FFN", ItemKind.NAME)
    MOTHER_NAME = ("MFN", ItemKind.NAME)
    MOTHER_MAIDEN = ("MMN", ItemKind.NAME)
    SPOUSE_NAME = ("SN", ItemKind.NAME)
    GENDER = ("G", ItemKind.CATEGORY)
    PROFESSION = ("PROF", ItemKind.CATEGORY)
    BIRTH_DAY = ("BD", ItemKind.DAY)
    BIRTH_MONTH = ("BM", ItemKind.MONTH)
    BIRTH_YEAR = ("BY", ItemKind.YEAR)
    BIRTH_CITY = ("PB1", ItemKind.GEO)
    BIRTH_COUNTY = ("PB2", ItemKind.CATEGORY)
    BIRTH_REGION = ("PB3", ItemKind.CATEGORY)
    BIRTH_COUNTRY = ("PB4", ItemKind.CATEGORY)
    PERM_CITY = ("PP1", ItemKind.GEO)
    PERM_COUNTY = ("PP2", ItemKind.CATEGORY)
    PERM_REGION = ("PP3", ItemKind.CATEGORY)
    PERM_COUNTRY = ("PP4", ItemKind.CATEGORY)
    WAR_CITY = ("PW1", ItemKind.GEO)
    WAR_COUNTY = ("PW2", ItemKind.CATEGORY)
    WAR_REGION = ("PW3", ItemKind.CATEGORY)
    WAR_COUNTRY = ("PW4", ItemKind.CATEGORY)
    DEATH_CITY = ("PD1", ItemKind.GEO)
    DEATH_COUNTY = ("PD2", ItemKind.CATEGORY)
    DEATH_REGION = ("PD3", ItemKind.CATEGORY)
    DEATH_COUNTRY = ("PD4", ItemKind.CATEGORY)

    def __init__(self, prefix: str, kind: ItemKind) -> None:
        self.prefix = prefix
        self.kind = kind

    # Members are singletons and ``==`` is identity, so the C identity
    # hash agrees with equality; ``Enum.__hash__`` runs Python code on
    # every set and dict lookup of an ``Item``. It differs per process,
    # as string hashes already do under hash randomization.
    __hash__ = object.__hash__

    @classmethod
    def from_prefix(cls, prefix: str) -> "ItemType":
        try:
            return _PREFIX_TO_TYPE[prefix]
        except KeyError:
            raise ValueError(f"unknown item prefix: {prefix!r}") from None


_PREFIX_TO_TYPE: Dict[str, ItemType] = {t.prefix: t for t in ItemType}

#: Mapping from a name attribute of VictimRecord to its item type.
NAME_ITEM_TYPES: Dict[str, ItemType] = {
    "first": ItemType.FIRST_NAME,
    "last": ItemType.LAST_NAME,
    "maiden": ItemType.MAIDEN_NAME,
    "father": ItemType.FATHER_NAME,
    "mother": ItemType.MOTHER_NAME,
    "mother_maiden": ItemType.MOTHER_MAIDEN,
    "spouse": ItemType.SPOUSE_NAME,
}

_PLACE_ITEM_TYPES: Dict[Tuple[PlaceType, PlacePart], ItemType] = {
    (PlaceType.BIRTH, PlacePart.CITY): ItemType.BIRTH_CITY,
    (PlaceType.BIRTH, PlacePart.COUNTY): ItemType.BIRTH_COUNTY,
    (PlaceType.BIRTH, PlacePart.REGION): ItemType.BIRTH_REGION,
    (PlaceType.BIRTH, PlacePart.COUNTRY): ItemType.BIRTH_COUNTRY,
    (PlaceType.PERMANENT, PlacePart.CITY): ItemType.PERM_CITY,
    (PlaceType.PERMANENT, PlacePart.COUNTY): ItemType.PERM_COUNTY,
    (PlaceType.PERMANENT, PlacePart.REGION): ItemType.PERM_REGION,
    (PlaceType.PERMANENT, PlacePart.COUNTRY): ItemType.PERM_COUNTRY,
    (PlaceType.WARTIME, PlacePart.CITY): ItemType.WAR_CITY,
    (PlaceType.WARTIME, PlacePart.COUNTY): ItemType.WAR_COUNTY,
    (PlaceType.WARTIME, PlacePart.REGION): ItemType.WAR_REGION,
    (PlaceType.WARTIME, PlacePart.COUNTRY): ItemType.WAR_COUNTRY,
    (PlaceType.DEATH, PlacePart.CITY): ItemType.DEATH_CITY,
    (PlaceType.DEATH, PlacePart.COUNTY): ItemType.DEATH_COUNTY,
    (PlaceType.DEATH, PlacePart.REGION): ItemType.DEATH_REGION,
    (PlaceType.DEATH, PlacePart.COUNTRY): ItemType.DEATH_COUNTRY,
}


def place_item_type(place_type: PlaceType, part: PlacePart) -> ItemType:
    """Return the item type for one (place type, granularity part) pair."""
    return _PLACE_ITEM_TYPES[(place_type, part)]


class Item(NamedTuple):
    """A field-prefixed value, e.g. ``Item(ItemType.FIRST_NAME, 'Avraham')``."""

    type: ItemType
    value: str

    def __str__(self) -> str:
        return f"{self.type.prefix} {self.value}"

    @classmethod
    def parse(cls, text: str) -> "Item":
        """Parse the ``"PREFIX value"`` string form back into an Item."""
        prefix, _, value = text.partition(" ")
        if not value:
            raise ValueError(f"not an item string: {text!r}")
        return cls(ItemType.from_prefix(prefix), value)


def record_to_items(record: VictimRecord) -> FrozenSet[Item]:
    """Convert a victim report into its item bag.

    Multi-valued attributes contribute one item per value; nulls are
    omitted. The result is a frozen set (the bag-of-items model of
    MFIBlocks treats repeated identical items as one).
    """
    return frozenset(_iter_items(record))


def _iter_items(record: VictimRecord) -> Iterator[Item]:
    for attribute in NAME_ATTRIBUTES:
        item_type = NAME_ITEM_TYPES[attribute]
        for value in record.names(attribute):
            yield Item(item_type, value)
    if record.gender is not None:
        yield Item(ItemType.GENDER, record.gender.value)
    if record.profession is not None:
        yield Item(ItemType.PROFESSION, record.profession)
    if record.birth_day is not None:
        yield Item(ItemType.BIRTH_DAY, str(record.birth_day))
    if record.birth_month is not None:
        yield Item(ItemType.BIRTH_MONTH, str(record.birth_month))
    if record.birth_year is not None:
        yield Item(ItemType.BIRTH_YEAR, str(record.birth_year))
    for place_type in PLACE_TYPES:
        for place in record.places_of(place_type):
            for part in PLACE_PARTS:
                value = place.part(part)
                if value is not None:
                    yield Item(place_item_type(place_type, part), value)
