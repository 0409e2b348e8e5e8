"""Tests for the Dataset container and its serialization."""

from __future__ import annotations

import pytest

from repro.records.dataset import Dataset
from tests.conftest import make_record


@pytest.fixture()
def trio():
    return Dataset(
        [
            make_record(book_id=1, person_id=10),
            make_record(book_id=2, person_id=10),
            make_record(book_id=3, person_id=11, first=("Massimo",)),
        ],
        name="trio",
    )


class TestContainer:
    def test_len_iter_contains(self, trio):
        assert len(trio) == 3
        assert {record.book_id for record in trio} == {1, 2, 3}
        assert 2 in trio
        assert 99 not in trio

    def test_getitem_and_get(self, trio):
        assert trio[1].book_id == 1
        assert trio.get(99) is None

    def test_duplicate_book_id_rejected(self):
        with pytest.raises(ValueError):
            Dataset([make_record(book_id=1), make_record(book_id=1)])

    def test_record_ids(self, trio):
        assert sorted(trio.record_ids) == [1, 2, 3]


class TestDerived:
    def test_item_bags_cached(self, trio):
        bags_a = trio.item_bags
        bags_b = trio.item_bags
        assert bags_a is bags_b
        assert set(bags_a) == {1, 2, 3}

    def test_subset(self, trio):
        sub = trio.subset([1, 3])
        assert len(sub) == 2
        assert 2 not in sub

    def test_subset_unknown_id(self, trio):
        with pytest.raises(KeyError):
            trio.subset([1, 99])

    def test_true_pairs(self, trio):
        assert trio.true_pairs() == frozenset({(1, 2)})

    def test_true_pairs_ignores_unlabeled(self):
        dataset = Dataset(
            [make_record(book_id=1), make_record(book_id=2)]
        )
        assert dataset.true_pairs() == frozenset()


class TestSerialization:
    def test_json_roundtrip(self, trio, tmp_path):
        path = tmp_path / "trio.json"
        trio.to_json(path)
        loaded = Dataset.from_json(path)
        assert len(loaded) == len(trio)
        assert loaded.name == "trio"
        for record in trio:
            restored = loaded[record.book_id]
            assert restored == record

    def test_roundtrip_preserves_places_and_coords(self, small_corpus, tmp_path):
        dataset, _persons = small_corpus
        path = tmp_path / "corpus.json"
        dataset.to_json(path)
        loaded = Dataset.from_json(path)
        assert len(loaded) == len(dataset)
        for record in dataset:
            assert loaded[record.book_id] == record

    def test_roundtrip_preserves_gold(self, small_corpus, tmp_path):
        dataset, _persons = small_corpus
        path = tmp_path / "gold.json"
        dataset.to_json(path)
        loaded = Dataset.from_json(path)
        assert loaded.true_pairs() == dataset.true_pairs()
