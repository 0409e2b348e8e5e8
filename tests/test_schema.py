"""Tests for the victim-report data model."""

from __future__ import annotations

import pytest

from repro.geo import GeoPoint
from repro.records.schema import (
    NAME_ATTRIBUTES,
    Place,
    PlacePart,
    PlaceType,
    SourceKind,
    SourceRef,
)
from tests.conftest import make_record


class TestPlace:
    def test_parts_filters_nulls(self):
        place = Place(city="Torino", country="Italy")
        parts = place.parts()
        assert parts == {PlacePart.CITY: "Torino", PlacePart.COUNTRY: "Italy"}

    def test_part_accessor(self):
        place = Place(region="Piemonte")
        assert place.part(PlacePart.REGION) == "Piemonte"
        assert place.part(PlacePart.CITY) is None

    def test_is_empty(self):
        assert Place().is_empty()
        assert not Place(country="Italy").is_empty()
        assert not Place(coords=GeoPoint(0, 0)).is_empty()


class TestSourceRef:
    def test_key_distinguishes_kinds(self):
        testimony = SourceRef(SourceKind.TESTIMONY, "X")
        list_source = SourceRef(SourceKind.LIST, "X")
        assert testimony.key != list_source.key

    def test_equality(self):
        assert SourceRef(SourceKind.LIST, "L1") == SourceRef(SourceKind.LIST, "L1")


class TestVictimRecord:
    def test_birth_day_validation(self):
        with pytest.raises(ValueError):
            make_record(birth_day=32)

    def test_birth_month_validation(self):
        with pytest.raises(ValueError):
            make_record(birth_month=0)

    def test_birth_year_validation(self):
        with pytest.raises(ValueError):
            make_record(birth_year=1700)
        with pytest.raises(ValueError):
            make_record(birth_year=1999)

    def test_names_accessor(self):
        record = make_record(father=("Donato",))
        assert record.names("father") == ("Donato",)
        assert record.names("spouse") == ()

    def test_names_rejects_unknown(self):
        record = make_record()
        with pytest.raises(ValueError):
            record.names("uncle")

    def test_all_name_attributes_accessible(self):
        record = make_record()
        for attribute in NAME_ATTRIBUTES:
            assert isinstance(record.names(attribute), tuple)

    def test_places_of_missing_type(self):
        record = make_record()
        assert record.places_of(PlaceType.DEATH) == ()

    def test_pattern_contains_expected_fields(self):
        record = make_record(
            birth_year=1920,
            places={PlaceType.BIRTH: (Place(city="Torino", country="Italy"),)},
        )
        pattern = record.pattern()
        assert "name:first" in pattern
        assert "name:last" in pattern
        assert "gender" in pattern
        assert "birth_year" in pattern
        assert "place:birth:city" in pattern
        assert "place:birth:country" in pattern
        assert "place:birth:county" not in pattern
        assert "birth_day" not in pattern

    def test_pattern_is_hashable_set(self):
        record_a = make_record(book_id=1)
        record_b = make_record(book_id=2)
        assert record_a.pattern() == record_b.pattern()
        assert hash(record_a.pattern()) == hash(record_b.pattern())

    def test_has_dob(self):
        assert make_record(birth_year=1920).has_dob()
        assert make_record(birth_month=5).has_dob()
        assert not make_record().has_dob()

    def test_multivalued_first_names(self):
        record = make_record(first=("John", "Harris"))
        assert record.names("first") == ("John", "Harris")

    def test_multiple_wartime_places_in_pattern(self):
        record = make_record(
            places={
                PlaceType.WARTIME: (
                    Place(city="Lwow"),
                    Place(country="Poland"),
                )
            }
        )
        pattern = record.pattern()
        assert "place:wartime:city" in pattern
        assert "place:wartime:country" in pattern
