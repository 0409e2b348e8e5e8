"""Property tests: batch kernels are bit-identical to their scalar twins.

The vectorized kernels (``repro.similarity.batch``, the batch feature
extractor in ``repro.similarity.features``, and the ``BlockScorer``
batch methods) each promise byte-for-byte the floats of the scalar
reference they replace. The scalar functions are only oracles here: the
uniform scorer is the weighted kernel under unit weights, unweighted
soft Jaccard is soft Jaccard under unit weights, and no kernel calls a
scalar function. Hypothesis hunts for the counterexample on:

* random corpora over every item type, with unicode/transliteration
  noise in the values (mixed scripts, diacritics, apostrophes);
* random finite weight tables including negative, zero, huge and
  subnormal weights (the ``int64`` route must decline the huge and
  subnormal ones and take exact Python ints, not drift); a non-finite
  weight must raise ``ValueError``;
* empty and degenerate sets, self-pairs, duplicated pairs;
* arbitrary chunkings — splitting the pair list anywhere and
  concatenating the per-chunk results must reproduce the whole-batch
  output exactly, which is what makes executor chunk planning invisible
  in the ranked output;
* corpora built to make the Eq.-1 greedy claim loop tie: two-letter
  names (equal Jaro–Winkler scores), years the same distance either
  side of a target, malformed and out-of-range dates, and all-zero
  weight tables — each tie must go to the same item as in the scalar.

Comparisons go through ``repr`` so ``-0.0`` vs ``0.0`` and NaN count
as drift/equality correctly.
"""

from __future__ import annotations

import ast
import math
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.similarity.batch as batch_module
from repro.blocking.scoring import (
    DEFAULT_EXPERT_WEIGHTS,
    BlockScorer,
    ScoringMethod,
)
from repro.geo import GeoPoint
from repro.records.itembag import Item, ItemKind, ItemType
from repro.similarity.batch import (
    soft_jaccard_items_batch,
    weighted_jaccard_items_batch,
)
from repro.similarity.features import (
    FEATURE_NAMES,
    extract_features,
    extract_features_batch,
)
from repro.similarity.interning import TYPE_ORDER, InternedCorpus
from repro.similarity.items import (
    jaccard_items,
    soft_jaccard_items,
    weighted_jaccard_items,
)
from tools.golden_kernels import golden_dataset

#: Unicode noise: latin + diacritics + Hebrew + Cyrillic + digits and
#: the punctuation that survives transliteration.
VALUE_ALPHABET = (
    "abcdefgh 0123456789"
    "ÀàäöüßŁłčćżŹźșţ"
    "אבגדה"
    "абвгд"
    "-'’."
)

GAZETTEER = {
    "Torino": GeoPoint(45.0703, 7.6869),
    "Moncalieri": GeoPoint(44.9997, 7.6822),
    "Auschwitz": GeoPoint(50.0343, 19.2098),
}


def lookup(name):
    return GAZETTEER.get(name)


def reprs(values):
    return [repr(value) for value in values]


values = st.text(alphabet=VALUE_ALPHABET, max_size=8)
geo_values = st.one_of(values, st.sampled_from(sorted(GAZETTEER)))
item_types = st.sampled_from(list(ItemType))
items = st.builds(
    Item,
    item_types,
    values,
)
bags = st.frozensets(items, max_size=12)

weight_values = st.one_of(
    st.floats(
        min_value=0.0,
        max_value=16.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.sampled_from(
        [
            -1.0,
            0.0,
            0.5,
            1.0,
            2.5,
            1e300,
            5e-324,
        ]
    ),
)
weight_tables = st.dictionaries(item_types, weight_values, max_size=8)

#: The uniform (Base) scorer: the weighted kernel under unit weights.
UNIFORM = BlockScorer(method=ScoringMethod.UNIFORM)


def uniform_batch(corpus, pairs):
    return UNIFORM.pair_similarity_batch(corpus, pairs)


@st.composite
def corpora_with_pairs(draw, bag_strategy=bags, max_records=8, max_pairs=12):
    """(item_bags, pairs) with self-pairs and duplicates allowed."""
    n = draw(st.integers(min_value=1, max_value=max_records))
    item_bags = {rid: draw(bag_strategy) for rid in range(n)}
    rid = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(rid, rid), max_size=max_pairs))
    return item_bags, pairs


class TestItemKernelsMatchScalar:
    @settings(max_examples=80, deadline=None)
    @given(corpora_with_pairs())
    def test_jaccard(self, case):
        item_bags, pairs = case
        corpus = InternedCorpus(item_bags)
        batch = uniform_batch(corpus, pairs)
        scalar = [
            jaccard_items(item_bags[a], item_bags[b]) for a, b in pairs
        ]
        assert reprs(batch) == reprs(scalar)

    @settings(max_examples=80, deadline=None)
    @given(corpora_with_pairs(), weight_tables)
    def test_weighted_jaccard(self, case, weights):
        item_bags, pairs = case
        corpus = InternedCorpus(item_bags)
        batch = weighted_jaccard_items_batch(corpus, pairs, weights)
        scalar = [
            weighted_jaccard_items(item_bags[a], item_bags[b], weights)
            for a, b in pairs
        ]
        assert reprs(batch) == reprs(scalar)

    @settings(max_examples=60, deadline=None)
    @given(
        corpora_with_pairs(
            bag_strategy=st.frozensets(
                st.builds(Item, item_types, geo_values), max_size=10
            )
        ),
        st.one_of(st.none(), weight_tables),
        st.booleans(),
    )
    def test_soft_jaccard(self, case, weights, with_geo):
        item_bags, pairs = case
        geo = lookup if with_geo else None
        corpus = InternedCorpus(item_bags)
        batch = soft_jaccard_items_batch(corpus, pairs, geo, weights)
        scalar = [
            soft_jaccard_items(item_bags[a], item_bags[b], geo, weights)
            for a, b in pairs
        ]
        assert reprs(batch) == reprs(scalar)

    def test_empty_corpus_and_empty_pairs(self):
        corpus = InternedCorpus({})
        assert uniform_batch(corpus, []) == []
        assert weighted_jaccard_items_batch(corpus, [], {}) == []
        assert soft_jaccard_items_batch(corpus, [], None, None) == []

    def test_empty_and_identical_bags(self):
        bag = frozenset({Item(ItemType.FIRST_NAME, "Guido")})
        item_bags = {0: frozenset(), 1: bag, 2: bag}
        corpus = InternedCorpus(item_bags)
        pairs = [(0, 0), (0, 1), (1, 2), (2, 2)]
        for kernel, scalar in (
            (
                lambda c, p: uniform_batch(c, p),
                lambda a, b: jaccard_items(a, b),
            ),
            (
                lambda c, p: weighted_jaccard_items_batch(
                    c, p, {ItemType.FIRST_NAME: 2.0}
                ),
                lambda a, b: weighted_jaccard_items(
                    a, b, {ItemType.FIRST_NAME: 2.0}
                ),
            ),
        ):
            assert reprs(kernel(corpus, pairs)) == reprs(
                [scalar(item_bags[a], item_bags[b]) for a, b in pairs]
            )


NAME_TYPES = [t for t in ItemType if t.kind is ItemKind.NAME]
DATE_TYPES = (ItemType.BIRTH_DAY, ItemType.BIRTH_MONTH, ItemType.BIRTH_YEAR)

#: Every finite weight table the tie tests run under: none, the expert
#: table, all-zero, and a signed table whose masses can cancel to zero.
TIE_WEIGHTS = st.sampled_from(
    [
        None,
        dict(DEFAULT_EXPERT_WEIGHTS),
        {t: 0.0 for t in ItemType},
        {ItemType.FIRST_NAME: 0.0, ItemType.LAST_NAME: 0.0},
        {ItemType.FIRST_NAME: 1.0, ItemType.LAST_NAME: -1.0},
    ]
)

#: Two name types over a two-letter alphabet: many distinct values
#: with equal Jaro–Winkler scores against the same item.
two_letter_names = st.builds(
    Item,
    st.sampled_from(NAME_TYPES[:2]),
    st.text(alphabet="ab", min_size=1, max_size=4),
)

#: Date components that do not parse or fall outside their range
#: (Eq. 1 then falls back to exact match), mixed with valid ones.
malformed_dates = st.builds(
    Item,
    st.sampled_from(DATE_TYPES),
    st.sampled_from(
        ["0", "13", "32", "-1", "00", "007", "1e3", "", "x", " 7", "٣",
         "1", "12", "31", "1920", "1921"]
    ),
)


@st.composite
def symmetric_years(draw, max_records=6):
    """Bags of years ``target ± gap``: each gap ties on either side."""
    target = draw(st.integers(min_value=1850, max_value=1950))
    gaps = draw(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=3)
    )
    years = sorted({target + sign * gap for gap in gaps for sign in (-1, 1)})
    pool = [Item(ItemType.BIRTH_YEAR, str(year)) for year in years]
    pool += [Item(ItemType.FIRST_NAME, "ab"), Item(ItemType.FIRST_NAME, "ba")]
    n = draw(st.integers(min_value=2, max_value=max_records))
    return {
        rid: frozenset(draw(st.lists(st.sampled_from(pool), max_size=6)))
        for rid in range(n)
    }


def all_pairs(item_bags):
    """Every ordered pair, self-pairs included: both small/large splits."""
    return [(a, b) for a in item_bags for b in item_bags]


def assert_soft_matches_scalar(item_bags, pairs, geo, weights):
    corpus = InternedCorpus(item_bags)
    batch = soft_jaccard_items_batch(corpus, pairs, geo, weights)
    scalar = [
        soft_jaccard_items(item_bags[a], item_bags[b], geo, weights)
        for a, b in pairs
    ]
    assert reprs(batch) == reprs(scalar)


class TestSoftJaccardTies:
    """The interned greedy step breaks every tie as the scalar does."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.frozensets(two_letter_names, max_size=6),
            min_size=2,
            max_size=6,
        ),
        TIE_WEIGHTS,
    )
    def test_two_letter_names(self, bag_list, weights):
        item_bags = dict(enumerate(bag_list))
        assert_soft_matches_scalar(
            item_bags, all_pairs(item_bags), None, weights
        )

    @settings(max_examples=80, deadline=None)
    @given(symmetric_years(), TIE_WEIGHTS)
    def test_years_equidistant_from_a_target(self, item_bags, weights):
        assert_soft_matches_scalar(
            item_bags, all_pairs(item_bags), None, weights
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.frozensets(malformed_dates, max_size=6),
            min_size=2,
            max_size=6,
        ),
        TIE_WEIGHTS,
    )
    def test_malformed_and_out_of_range_dates(self, bag_list, weights):
        item_bags = dict(enumerate(bag_list))
        assert_soft_matches_scalar(
            item_bags, all_pairs(item_bags), None, weights
        )

    @settings(max_examples=60, deadline=None)
    @given(
        corpora_with_pairs(
            bag_strategy=st.frozensets(
                st.one_of(
                    two_letter_names,
                    malformed_dates,
                    st.builds(Item, item_types, geo_values),
                ),
                max_size=10,
            )
        ),
        st.sampled_from([{t: 0.0 for t in ItemType}, {}]),
        st.booleans(),
    )
    def test_all_zero_weight_tables(self, case, weights, with_geo):
        item_bags, pairs = case
        assert_soft_matches_scalar(
            item_bags, pairs, lookup if with_geo else None, weights
        )


class TestNoScalarFallback:
    """No weight table sends a kernel to the scalar functions: finite
    weights take the exact-mass path, non-finite ones raise."""

    @classmethod
    def setup_class(cls):
        dataset = golden_dataset()
        cls.item_bags = dataset.item_bags
        cls.corpus = InternedCorpus(cls.item_bags)
        rids = sorted(cls.item_bags)
        cls.pairs = [
            (a, b) for i, a in enumerate(rids[:40]) for b in rids[i:i + 6]
        ]

    def scalar(self, weights, geo=None):
        return [
            soft_jaccard_items(self.item_bags[a], self.item_bags[b], geo, weights)
            for a, b in self.pairs
        ]

    def test_finite_weights_never_reach_scalar(self, monkeypatch):
        import repro.similarity.items as items_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("a batch kernel reached a scalar Jaccard")

        expected = {
            key: self.scalar(weights, geo)
            for key, (weights, geo) in self.finite_cases().items()
        }
        for name in SCALAR_JACCARDS:
            monkeypatch.setattr(items_module, name, refuse)
        for key, (weights, geo) in self.finite_cases().items():
            batch = soft_jaccard_items_batch(
                self.corpus, self.pairs, geo, weights
            )
            assert reprs(batch) == reprs(expected[key]), key
        # The greedy step really ran: partial matches moved some scores
        # off plain Jaccard.
        plain = uniform_batch(self.corpus, self.pairs)
        assert reprs(expected["none"]) != reprs(plain)

    @staticmethod
    def finite_cases():
        return {
            "none": (None, None),
            "expert": (dict(DEFAULT_EXPERT_WEIGHTS), None),
            "expert+geo": (dict(DEFAULT_EXPERT_WEIGHTS), lookup),
            "zero": ({t: 0.0 for t in ItemType}, None),
            "empty": ({}, lookup),
        }

    def test_no_weights_are_unit_weights(self):
        for geo in (None, lookup):
            assert reprs(
                soft_jaccard_items_batch(self.corpus, self.pairs, geo, None)
            ) == reprs(
                soft_jaccard_items_batch(self.corpus, self.pairs, geo, {})
            )
        assert reprs(uniform_batch(self.corpus, self.pairs)) == reprs(
            weighted_jaccard_items_batch(
                self.corpus, self.pairs, {t: 1.0 for t in ItemType}
            )
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_raise(self, bad):
        weights = dict(DEFAULT_EXPERT_WEIGHTS)
        weights[ItemType.GENDER] = bad
        for method in ScoringMethod:
            with pytest.raises(ValueError, match="GENDER"):
                BlockScorer(method=method, weights=weights)
        # Direct kernel calls raise too, even with no pair to score.
        for pairs in (self.pairs, []):
            with pytest.raises(ValueError, match="GENDER"):
                weighted_jaccard_items_batch(self.corpus, pairs, weights)
            with pytest.raises(ValueError, match="GENDER"):
                soft_jaccard_items_batch(self.corpus, pairs, None, weights)
        # A non-finite default weight raises wherever a type falls back
        # to it.
        with pytest.raises(ValueError, match="must be finite"):
            weighted_jaccard_items_batch(self.corpus, self.pairs, {}, bad)

    def test_kernel_modules_import_no_scalar_jaccard(self):
        package = Path(batch_module.__file__).parent
        for module in ("batch.py", "interning.py"):
            tree = ast.parse((package / module).read_text(encoding="utf-8"))
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            assert not imported & set(SCALAR_JACCARDS), module


SCALAR_JACCARDS = (
    "jaccard_items",
    "weighted_jaccard_items",
    "soft_jaccard_items",
)


class TestBlockScoresMatchScalar:
    """score_blocks_batch == score_block, block by block, with the
    member-pair scores read from a table filled by the batch kernel."""

    @settings(max_examples=40, deadline=None)
    @given(
        corpora_with_pairs(max_records=7),
        st.sampled_from(list(ScoringMethod)),
        st.one_of(st.none(), weight_tables),
        st.data(),
    )
    def test_block_means(self, case, method, weights, data):
        item_bags, _pairs = case
        rid = st.integers(min_value=0, max_value=len(item_bags) - 1)
        blocks = data.draw(st.lists(st.frozensets(rid), max_size=5))
        scorer = BlockScorer(method=method, weights=weights, geo_lookup=lookup)
        corpus = InternedCorpus(item_bags)
        scalar = [scorer.score_block(block, item_bags) for block in blocks]
        pairs = sorted(
            {pair for block in blocks for pair in combinations(sorted(block), 2)}
        )
        table = dict(zip(pairs, scorer.pair_similarity_batch(corpus, pairs)))
        batch = scorer.score_blocks_batch(blocks, corpus, table)
        assert reprs(batch) == reprs(scalar)


class TestChunkingInvariance:
    """Any partition of the pair list reproduces the whole batch."""

    @settings(max_examples=60, deadline=None)
    @given(corpora_with_pairs(max_pairs=16), weight_tables, st.data())
    def test_item_kernels(self, case, weights, data):
        item_bags, pairs = case
        corpus = InternedCorpus(item_bags)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pairs)),
                max_size=4,
            )
        )
        bounds = sorted({0, *cuts, len(pairs)})
        chunks = [
            pairs[start:end] for start, end in zip(bounds, bounds[1:])
        ] or [[]]
        for kernel in (
            lambda c, p: uniform_batch(c, p),
            lambda c, p: weighted_jaccard_items_batch(c, p, weights),
            lambda c, p: soft_jaccard_items_batch(c, p, lookup, weights),
        ):
            whole = kernel(corpus, pairs)
            pieces = [
                value for chunk in chunks for value in kernel(corpus, chunk)
            ]
            assert reprs(pieces) == reprs(whole)


class TestRowSlicing:
    """The set-overlap kernels' byte-budgeted row slices change no bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        corpora_with_pairs(max_pairs=16),
        weight_tables,
        st.integers(min_value=1, max_value=4),
    )
    def test_sliced_kernels_match_scalar(self, case, weights, rows):
        item_bags, pairs = case
        corpus = InternedCorpus(item_bags)
        width = corpus.bits.shape[1] + len(TYPE_ORDER)
        row_bytes = width * corpus.bits.itemsize
        with patch.object(batch_module, "SLICE_BYTES", rows * row_bytes):
            assert all(
                part.stop - part.start <= rows
                for part in batch_module._row_slices(corpus, len(pairs))
            )
            plain = uniform_batch(corpus, pairs)
            weighted = weighted_jaccard_items_batch(corpus, pairs, weights)
        assert reprs(plain) == reprs(
            [jaccard_items(item_bags[a], item_bags[b]) for a, b in pairs]
        )
        assert reprs(weighted) == reprs(
            [
                weighted_jaccard_items(item_bags[a], item_bags[b], weights)
                for a, b in pairs
            ]
        )

    def test_slices_cover_every_pair_once(self):
        corpus = InternedCorpus({0: frozenset()})
        row_bytes = (1 + len(TYPE_ORDER)) * 8
        with patch.object(batch_module, "SLICE_BYTES", 3 * row_bytes):
            parts = batch_module._row_slices(corpus, 10)
        assert [(part.start, part.stop) for part in parts] == [
            (0, 3), (3, 6), (6, 9), (9, 10),
        ]
        assert batch_module._row_slices(corpus, 0) == []


class TestBatchFeatureExtractor:
    """extract_features_batch == extract_features, pair by pair."""

    @classmethod
    def setup_class(cls):
        cls.dataset = golden_dataset()
        cls.rids = sorted(cls.dataset.record_ids)[:60]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_on_real_records(self, data):
        rid = st.sampled_from(self.rids)
        pairs = data.draw(st.lists(st.tuples(rid, rid), max_size=8))
        batch = extract_features_batch(self.dataset, pairs).vectors()
        for pair, vector in zip(pairs, batch):
            a, b = pair
            scalar = extract_features(self.dataset[a], self.dataset[b])
            assert list(vector) == list(scalar)
            for name in scalar:
                left, right = vector[name], scalar[name]
                if isinstance(left, float) or isinstance(right, float):
                    assert repr(left) == repr(right)
                else:
                    assert left == right

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_feature_subsets(self, data):
        names = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(FEATURE_NAMES),
                    min_size=1,
                    max_size=6,
                    unique=True,
                )
            )
        )
        rid = st.sampled_from(self.rids)
        pairs = data.draw(st.lists(st.tuples(rid, rid), max_size=5))
        batch = extract_features_batch(
            self.dataset, pairs, names=names
        ).vectors()
        for pair, vector in zip(pairs, batch):
            a, b = pair
            scalar = extract_features(
                self.dataset[a], self.dataset[b], names=names
            )
            assert list(vector) == list(scalar) == list(names)
            assert reprs(vector.values()) == reprs(scalar.values())

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_chunking_invariance(self, data):
        rid = st.sampled_from(self.rids)
        pairs = data.draw(st.lists(st.tuples(rid, rid), max_size=10))
        cut = data.draw(st.integers(min_value=0, max_value=len(pairs)))
        whole = extract_features_batch(self.dataset, pairs).vectors()
        pieces = (
            extract_features_batch(self.dataset, pairs[:cut]).vectors()
            + extract_features_batch(self.dataset, pairs[cut:]).vectors()
        )
        assert len(whole) == len(pieces)
        for left, right in zip(whole, pieces):
            assert list(left) == list(right)
            assert reprs(left.values()) == reprs(right.values())

    def test_empty_pair_list(self):
        assert extract_features_batch(self.dataset, []).vectors() == []
