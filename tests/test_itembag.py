"""Tests for item-bag encoding and the inverted index."""

from __future__ import annotations

import pytest

from repro.records.itembag import (
    Item,
    ItemKind,
    ItemType,
    place_item_type,
    record_to_items,
)
from repro.records.schema import Place, PlacePart, PlaceType
from tests.conftest import make_record


class TestItemType:
    def test_prefixes_unique(self):
        prefixes = [item_type.prefix for item_type in ItemType]
        assert len(prefixes) == len(set(prefixes))

    def test_from_prefix_roundtrip(self):
        for item_type in ItemType:
            assert ItemType.from_prefix(item_type.prefix) is item_type

    def test_from_prefix_unknown(self):
        with pytest.raises(ValueError):
            ItemType.from_prefix("ZZZ")

    def test_kinds(self):
        assert ItemType.FIRST_NAME.kind is ItemKind.NAME
        assert ItemType.BIRTH_YEAR.kind is ItemKind.YEAR
        assert ItemType.BIRTH_CITY.kind is ItemKind.GEO
        assert ItemType.GENDER.kind is ItemKind.CATEGORY

    def test_place_item_type_covers_grid(self):
        seen = set()
        for place_type in PlaceType:
            for part in PlacePart:
                item_type = place_item_type(place_type, part)
                assert item_type not in seen
                seen.add(item_type)
        assert len(seen) == 16


class TestItem:
    def test_str_form(self):
        item = Item(ItemType.FIRST_NAME, "Avraham")
        assert str(item) == "FN Avraham"

    def test_parse_roundtrip(self):
        item = Item(ItemType.BIRTH_CITY, "Torino")
        assert Item.parse(str(item)) == item

    def test_parse_value_with_spaces(self):
        item = Item.parse("LN Della Torre")
        assert item.type is ItemType.LAST_NAME
        assert item.value == "Della Torre"

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            Item.parse("JUSTAPREFIX")


class TestRecordToItems:
    def test_basic_fields(self):
        record = make_record(birth_year=1920, profession="tailor")
        items = record_to_items(record)
        assert Item(ItemType.FIRST_NAME, "Guido") in items
        assert Item(ItemType.LAST_NAME, "Foa") in items
        assert Item(ItemType.GENDER, "M") in items
        assert Item(ItemType.BIRTH_YEAR, "1920") in items
        assert Item(ItemType.PROFESSION, "tailor") in items

    def test_nulls_omitted(self):
        record = make_record()
        types = {item.type for item in record_to_items(record)}
        assert ItemType.BIRTH_YEAR not in types
        assert ItemType.PROFESSION not in types

    def test_multivalued_names_all_present(self):
        record = make_record(first=("John", "Harris"))
        items = record_to_items(record)
        assert Item(ItemType.FIRST_NAME, "John") in items
        assert Item(ItemType.FIRST_NAME, "Harris") in items

    def test_place_parts_become_items(self):
        record = make_record(
            places={
                PlaceType.DEATH: (
                    Place(city="Auschwitz", country="Poland"),
                )
            }
        )
        items = record_to_items(record)
        assert Item(ItemType.DEATH_CITY, "Auschwitz") in items
        assert Item(ItemType.DEATH_COUNTRY, "Poland") in items
        assert not any(item.type is ItemType.DEATH_COUNTY for item in items)

    def test_gender_none(self):
        record = make_record(gender=None)
        assert not any(
            item.type is ItemType.GENDER for item in record_to_items(record)
        )

    def test_empty_record_empty_bag(self):
        record = make_record(first=(), last=(), gender=None)
        assert record_to_items(record) == frozenset()

