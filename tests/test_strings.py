"""Unit and property tests for the string similarity metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.strings import (
    dice_qgrams,
    jaccard,
    jaccard_qgrams,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    qgrams,
)

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu")), max_size=12
)


class TestQgrams:
    def test_basic_bigrams_padded(self):
        grams = qgrams("ab", 2)
        assert grams == frozenset({"#a", "ab", "b$"})

    def test_unpadded(self):
        assert qgrams("abc", 2, pad=False) == frozenset({"ab", "bc"})

    def test_empty_string(self):
        assert qgrams("", 2) == frozenset()

    def test_q1_is_character_set(self):
        assert qgrams("aba", 1) == frozenset({"a", "b"})

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", 0)

    def test_short_string_single_gram(self):
        assert qgrams("a", 3, pad=False) == frozenset({"a"})


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_one_empty(self):
        assert jaccard({"a"}, set()) == 0.0

    @given(st.sets(st.integers(), max_size=8), st.sets(st.integers(), max_size=8))
    def test_bounded_and_symmetric(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)


class TestJaro:
    def test_known_value_martha(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944444, abs=1e-5)

    def test_known_value_dixon(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.766667, abs=1e-5)

    def test_identical(self):
        assert jaro("abc", "abc") == 1.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0
        assert jaro("abc", "") == 0.0

    def test_no_common_characters(self):
        assert jaro("abc", "xyz") == 0.0

    @given(names, names)
    def test_bounded_and_symmetric(self, a, b):
        value = jaro(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(jaro(b, a))


class TestJaroWinkler:
    def test_known_value(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.961111, abs=1e-5)

    def test_prefix_boost(self):
        assert jaro_winkler("prefix", "prefixx") > jaro("prefix", "prefixx")

    def test_bella_della_similarity(self):
        # The paper's clerical-error example must stay recognizable.
        assert jaro_winkler("bella", "della") > 0.8

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    @given(names, names)
    def test_at_least_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12

    @given(names)
    def test_identity(self, text):
        assert jaro_winkler(text, text) == pytest.approx(1.0 if text else 1.0)


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abcd") == 4

    def test_single_substitution(self):
        assert levenshtein("bella", "della") == 1

    @given(names, names)
    def test_metric_properties(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d >= abs(len(a) - len(b))
        assert d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @settings(max_examples=40)
    @given(names, names, names)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_similarity_normalization(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("a", "b") == 0.0


class TestDiceAndCompound:
    def test_dice_identical(self):
        assert dice_qgrams("warsaw", "warsaw") == 1.0

    def test_dice_empty(self):
        assert dice_qgrams("", "") == 1.0

    def test_jaccard_qgrams_typo_tolerant(self):
        assert jaccard_qgrams("rosenberg", "rozenberg") > 0.5

    def test_monge_elkan_multiword(self):
        score = monge_elkan(["john", "harris"], ["john"])
        assert 0.5 < score < 1.0

    def test_monge_elkan_empty(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan(["a"], []) == 0.0
