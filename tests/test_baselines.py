"""Tests for the ten Table-10 baseline blocking techniques."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blocking.baselines import (
    ALL_BASELINES,
    AttributeClustering,
    CanopyClustering,
    ExtendedCanopyClustering,
    ExtendedQGramsBlocking,
    ExtendedSortedNeighborhood,
    ExtendedSuffixArraysBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
    TYPiMatch,
)
from repro.records.dataset import Dataset
from tests.conftest import make_record


@pytest.fixture(scope="module")
def tiny_dataset():
    """Two exact duplicates, one near-duplicate, one unrelated record."""
    return Dataset(
        [
            make_record(book_id=1, first=("Guido",), last=("Foa",),
                        birth_year=1920, person_id=1),
            make_record(book_id=2, first=("Guido",), last=("Foa",),
                        birth_year=1920, person_id=1),
            make_record(book_id=3, first=("Guido",), last=("Foy",),
                        birth_year=1920, person_id=1),
            make_record(book_id=4, first=("Zismund",), last=("Brockman",),
                        gender=None, person_id=2),
        ]
    )


class TestStandardBlocking:
    def test_exact_duplicates_blocked(self, tiny_dataset):
        result = StandardBlocking().run(tiny_dataset)
        assert (1, 2) in result.candidate_pairs

    def test_value_must_be_shared(self, tiny_dataset):
        result = StandardBlocking().run(tiny_dataset)
        # Record 4 shares no attribute value with anyone.
        assert not any(4 in pair for pair in result.candidate_pairs)

    def test_max_block_size_purging(self, small_corpus):
        dataset, _persons = small_corpus
        unpurged = StandardBlocking().run(dataset)
        purged = StandardBlocking(max_block_size=10).run(dataset)
        assert purged.comparisons() < unpurged.comparisons()
        for block in purged.blocks:
            assert len(block) <= 10


class TestAttributeClustering:
    def test_groups_similar_spellings(self, tiny_dataset):
        # Foa/Foy don't share an exact value, but ACl should cluster them
        # at a loose-enough threshold.
        result = AttributeClustering(threshold=0.4).run(tiny_dataset)
        assert (1, 3) in result.candidate_pairs

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AttributeClustering(threshold=0.0)

    def test_recall_at_least_standard(self, tiny_dataset):
        stbl = StandardBlocking().run(tiny_dataset).candidate_pairs
        acl = AttributeClustering(threshold=0.75).run(tiny_dataset).candidate_pairs
        assert stbl <= acl


class TestQGrams:
    def test_typo_tolerance(self, tiny_dataset):
        result = QGramsBlocking(q=2).run(tiny_dataset)
        # 'Foa' and 'Foy' share the bigram 'fo'.
        assert (1, 3) in result.candidate_pairs

    def test_q_validation(self):
        with pytest.raises(ValueError):
            QGramsBlocking(q=0)

    def test_recall_superset_of_standard(self, tiny_dataset):
        stbl = StandardBlocking().run(tiny_dataset).candidate_pairs
        qgbl = QGramsBlocking(q=2).run(tiny_dataset).candidate_pairs
        assert stbl <= qgbl

    def test_extended_more_precise_keys(self, small_corpus):
        dataset, _persons = small_corpus
        plain = QGramsBlocking(q=3).run(dataset)
        extended = ExtendedQGramsBlocking(q=3).run(dataset)
        # Extended q-grams build more discriminative keys -> fewer pairs.
        assert extended.comparisons() <= plain.comparisons()

    def test_extended_threshold_validation(self):
        with pytest.raises(ValueError):
            ExtendedQGramsBlocking(threshold=0.0)


class TestSortedNeighborhood:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            ExtendedSortedNeighborhood(window=1)

    def test_adjacent_values_blocked(self, tiny_dataset):
        result = ExtendedSortedNeighborhood(window=3).run(tiny_dataset)
        # Foa and Foy are alphabetically adjacent values.
        assert (1, 3) in result.candidate_pairs

    def test_larger_window_weakly_more_pairs(self, tiny_dataset):
        small = ExtendedSortedNeighborhood(window=2).run(tiny_dataset)
        large = ExtendedSortedNeighborhood(window=5).run(tiny_dataset)
        assert small.comparisons() <= large.comparisons()


class TestSuffixArrays:
    def test_shared_suffix_blocks(self):
        dataset = Dataset(
            [
                make_record(book_id=1, last=("Rosenberg",)),
                make_record(book_id=2, last=("Rozenberg",)),
            ]
        )
        result = SuffixArraysBlocking(min_length=4).run(dataset)
        assert (1, 2) in result.candidate_pairs  # share 'enberg' suffixes

    def test_extended_catches_infix_variants(self):
        dataset = Dataset(
            [
                make_record(book_id=1, first=("A",), last=("Jakubowicz",), gender=None),
                make_record(book_id=2, first=("B",), last=("Jakubowiczer",), gender=None),
            ]
        )
        suffix_only = SuffixArraysBlocking(min_length=6).run(dataset)
        extended = ExtendedSuffixArraysBlocking(min_length=6).run(dataset)
        # 'jakubowicz' is an infix of 'jakubowiczer' but their suffixes differ.
        assert (1, 2) not in suffix_only.candidate_pairs
        assert (1, 2) in extended.candidate_pairs

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            SuffixArraysBlocking(min_length=0)

    def test_frequency_cap_enforced(self, small_corpus):
        dataset, _persons = small_corpus
        result = SuffixArraysBlocking(min_length=4, max_frequency=10).run(dataset)
        for block in result.blocks:
            assert len(block) <= 10


class TestCanopy:
    def test_threshold_ordering_validation(self):
        with pytest.raises(ValueError):
            CanopyClustering(t1=0.8, t2=0.5)

    def test_blocks_non_overlapping_on_tight_threshold(self, tiny_dataset):
        result = CanopyClustering(t1=0.99, t2=0.99).run(tiny_dataset)
        seen = set()
        for block in result.blocks:
            assert not (block.records & seen)
            seen |= block.records

    def test_finds_duplicates(self, tiny_dataset):
        result = CanopyClustering(t1=0.3, t2=0.7).run(tiny_dataset)
        assert (1, 2) in result.candidate_pairs

    def test_extended_assigns_leftovers(self, small_corpus):
        dataset, _persons = small_corpus
        plain = CanopyClustering(t1=0.5, t2=0.8, seed=7).run(dataset)
        extended = ExtendedCanopyClustering(t1=0.5, t2=0.8, seed=7).run(dataset)
        assert extended.comparisons() >= plain.comparisons()

    def test_deterministic_given_seed(self, tiny_dataset):
        a = CanopyClustering(seed=5).run(tiny_dataset).candidate_pairs
        b = CanopyClustering(seed=5).run(tiny_dataset).candidate_pairs
        assert a == b


class TestTYPiMatch:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            TYPiMatch(epsilon=0.0)

    def test_runs_and_finds_duplicates(self, tiny_dataset):
        result = TYPiMatch(epsilon=0.3).run(tiny_dataset)
        assert (1, 2) in result.candidate_pairs

    def test_blocks_do_not_depend_on_hash_seed(self):
        # max_cliques cuts the clique enumeration well short, so both
        # which cliques are kept and the block order are visible.
        script = (
            "from repro.blocking.baselines import TYPiMatch\n"
            "from repro.datagen import build_corpus\n"
            "dataset, _ = build_corpus(n_persons=40, communities=('italy',),"
            " seed=11, name='typimatch')\n"
            "for block in TYPiMatch(max_cliques=10).run(dataset).blocks:\n"
            "    print(sorted(block.records))\n"
        )
        root = Path(__file__).resolve().parents[1]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(root / "src"), env.get("PYTHONPATH")])
            )
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert outputs[0].count("\n") > 1
        assert outputs[0] == outputs[1]


class TestAllBaselinesContract:
    @pytest.mark.parametrize("algorithm_class", ALL_BASELINES)
    def test_runs_on_corpus_and_returns_canonical_pairs(
        self, algorithm_class, small_corpus
    ):
        dataset, _persons = small_corpus
        result = algorithm_class().run(dataset)
        for a, b in result.candidate_pairs:
            assert a < b
            assert a in dataset and b in dataset

    @pytest.mark.parametrize("algorithm_class", ALL_BASELINES)
    def test_has_distinct_name(self, algorithm_class):
        assert algorithm_class.name != "blocking"

    def test_names_unique(self):
        names = [cls.name for cls in ALL_BASELINES]
        assert len(names) == len(set(names)) == 10
