"""Tests for the shared baseline-blocking plumbing."""

from __future__ import annotations

from repro.blocking.baselines.common import blocks_from_keys, key_blocks
from repro.records.dataset import Dataset
from tests.conftest import make_record


class TestBlocksFromKeys:
    def test_inverts_keys(self):
        record_keys = {
            1: frozenset({"a", "b"}),
            2: frozenset({"a"}),
            3: frozenset({"c"}),
        }
        blocks = blocks_from_keys(record_keys)
        assert blocks == [frozenset({1, 2})]  # only "a" is shared

    def test_min_block_size(self):
        record_keys = {1: frozenset({"a"}), 2: frozenset({"a"})}
        assert blocks_from_keys(record_keys, min_block_size=3) == []

    def test_max_block_size(self):
        record_keys = {i: frozenset({"a"}) for i in range(10)}
        assert blocks_from_keys(record_keys, max_block_size=5) == []
        assert blocks_from_keys(record_keys, max_block_size=10) != []

    def test_deduplicates_identical_supports(self):
        # Two keys with the same posting list yield one block.
        record_keys = {
            1: frozenset({"a", "b"}),
            2: frozenset({"a", "b"}),
        }
        blocks = blocks_from_keys(record_keys)
        assert blocks == [frozenset({1, 2})]

    def test_deterministic_order(self):
        record_keys = {
            1: frozenset({"z", "a"}),
            2: frozenset({"z"}),
            3: frozenset({"a"}),
        }
        assert blocks_from_keys(record_keys) == blocks_from_keys(record_keys)

    def test_empty(self):
        assert blocks_from_keys({}) == []


class TestKeyBlocks:
    def test_extractor_driven(self):
        dataset = Dataset([
            make_record(book_id=1, first=("Guido",)),
            make_record(book_id=2, first=("Guido",)),
            make_record(book_id=3, first=("Massimo",)),
        ])

        def first_letter_keys(items):
            return {item.value[0].lower() for item in items
                    if item.type.prefix == "FN"}

        result = key_blocks(dataset, first_letter_keys)
        assert (1, 2) in result.candidate_pairs
        assert not any(3 in pair for pair in result.candidate_pairs)

    def test_max_block_size_forwarded(self):
        dataset = Dataset([
            make_record(book_id=i, first=("Guido",)) for i in range(1, 8)
        ])
        result = key_blocks(
            dataset, lambda items: {"k"}, max_block_size=3
        )
        assert result.blocks == []
