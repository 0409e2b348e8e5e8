"""Tests for the data-pattern / prevalence / cardinality analysis."""

from __future__ import annotations

import pytest

from repro.records.dataset import Dataset
from repro.records.itembag import ItemType
from repro.records.patterns import (
    full_information_pattern_count,
    item_type_cardinality,
    item_type_prevalence,
    pattern_counts,
    pattern_histogram,
)
from repro.records.schema import Place, PlaceType
from tests.conftest import make_record


@pytest.fixture()
def skewed_dataset():
    """12 records with the common pattern, 1 with a rare richer one."""
    records = [
        make_record(book_id=i) for i in range(1, 13)
    ]
    records.append(
        make_record(
            book_id=13,
            birth_year=1920,
            father=("Donato",),
            places={PlaceType.BIRTH: (Place(city="Torino"),)},
        )
    )
    return Dataset(records)


class TestPatternCounts:
    def test_counts(self, skewed_dataset):
        counts = pattern_counts(skewed_dataset)
        assert sorted(counts.values()) == [1, 12]

    def test_histogram_buckets(self, skewed_dataset):
        buckets = pattern_histogram(skewed_dataset, edges=(10, 100))
        by_label = {bucket.label: bucket for bucket in buckets}
        # the rare pattern (1 record) lands in the <=10 bucket
        assert by_label["10"].n_patterns == 1
        assert by_label["10"].n_records == 1
        # the common pattern (12 records) lands in the <=100 bucket
        assert by_label["100"].n_patterns == 1
        assert by_label["100"].n_records == 12
        assert by_label["more"].n_patterns == 0

    def test_histogram_conserves_records(self, small_corpus):
        dataset, _persons = small_corpus
        buckets = pattern_histogram(dataset)
        assert sum(bucket.n_records for bucket in buckets) == len(dataset)

    def test_histogram_rejects_unsorted_edges(self, skewed_dataset):
        with pytest.raises(ValueError):
            pattern_histogram(skewed_dataset, edges=(100, 10))

    def test_corpus_pattern_skew(self, small_corpus):
        """Fig. 11 shape: many distinct patterns, few records each."""
        dataset, _persons = small_corpus
        counts = pattern_counts(dataset)
        assert len(counts) > 20  # multi-source variability
        assert max(counts.values()) < len(dataset)  # no pattern dominates completely

    def test_full_information_pattern_rare(self, small_corpus):
        dataset, _persons = small_corpus
        assert full_information_pattern_count(dataset) <= len(dataset) * 0.05


class TestPrevalence:
    def test_rows_in_table3_order(self, skewed_dataset):
        rows = item_type_prevalence(skewed_dataset)
        labels = [label for label, _, _ in rows]
        assert labels[0] == "Last Name"
        assert labels[1] == "First Name"
        assert "DOB" in labels
        assert len(labels) == 14

    def test_counts(self, skewed_dataset):
        rows = dict(
            (label, count) for label, count, _ in item_type_prevalence(skewed_dataset)
        )
        assert rows["Last Name"] == 13
        assert rows["Father's Name"] == 1
        assert rows["DOB"] == 1
        assert rows["Birth Place"] == 1
        assert rows["Spouse Name"] == 0

    def test_table3_ordering_holds_on_corpus(self, small_corpus):
        """Names are near-universal; maiden names rare (Table 3 shape)."""
        dataset, _persons = small_corpus
        rows = {label: frac for label, _, frac in item_type_prevalence(dataset)}
        assert rows["Last Name"] > 0.9
        assert rows["First Name"] > 0.9
        assert rows["Gender"] > 0.7
        assert rows["Maiden Name"] < rows["First Name"]
        assert rows["Mother's Maiden"] < rows["Mother's Name"]


class TestCardinality:
    def test_gender_cardinality_two(self, small_corpus):
        dataset, _persons = small_corpus
        rows = {row.item_type: row for row in item_type_cardinality(dataset)}
        assert rows[ItemType.GENDER].n_items == 2

    def test_names_high_cardinality(self, small_corpus):
        dataset, _persons = small_corpus
        rows = {row.item_type: row for row in item_type_cardinality(dataset)}
        assert rows[ItemType.LAST_NAME].n_items > rows[ItemType.GENDER].n_items
        assert rows[ItemType.BIRTH_MONTH].n_items <= 12
        assert rows[ItemType.BIRTH_DAY].n_items <= 31

    def test_records_per_item_math(self, skewed_dataset):
        rows = {row.item_type: row for row in item_type_cardinality(skewed_dataset)}
        # 13 records all share one last name value.
        assert rows[ItemType.LAST_NAME].n_items == 1
        assert rows[ItemType.LAST_NAME].records_per_item == 13


class TestEmptyDataset:
    def test_histogram_empty(self):
        from repro.records.dataset import Dataset
        buckets = pattern_histogram(Dataset([]))
        assert sum(b.n_records for b in buckets) == 0

    def test_full_information_empty(self):
        from repro.records.dataset import Dataset
        assert full_information_pattern_count(Dataset([])) == 0

    def test_prevalence_empty(self):
        from repro.records.dataset import Dataset
        rows = item_type_prevalence(Dataset([]))
        assert all(count == 0 for _label, count, _frac in rows)
