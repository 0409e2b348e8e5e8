"""The columnar feature matrix and the array-native ADTree paths.

The dict forms — :func:`extract_features`, ``FeatureMatrix.vectors()``
and ``ADTreeModel.score`` — are the oracles here: the matrix must carry
the same values, ``score_matrix`` must add the same floats in the same
order, and a classifier that reuses its training rows must rank exactly
like one that extracts every pair afresh.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.similarity.features as features_module
from repro.classify.adtree import (
    ADTreeModel,
    CategoricalCondition,
    NumericCondition,
    PredictionNode,
    SplitterNode,
)
from repro.classify.boosting import ADTreeLearner
from repro.classify.printer import render_tree
from repro.classify.training import PairClassifier
from repro.evaluation.goldstandard import GoldStandard
from repro.similarity.features import (
    CategoricalColumn,
    FeatureMatrix,
    NumericColumn,
    extract_features,
    extract_features_batch,
)
from tools.golden_kernels import golden_dataset, golden_pairs

NUMERIC = ("x0", "x1", "x2")
CATEGORICAL = ("c0", "c1")
LEVELS = ("yes", "no", "partial", True, False)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def bits(values):
    """Exact float identity, -0.0 and all."""
    return [struct.pack("<d", value) for value in values]


@st.composite
def vector_lists(draw, min_size=0):
    """Rectangular dict vectors: numeric and categorical columns with
    missing values, categorical levels mixing ``str`` and ``bool``."""
    n = draw(st.integers(min_value=min_size, max_value=30))
    numeric_values = st.one_of(st.none(), finite)
    level_values = st.one_of(st.none(), st.sampled_from(LEVELS))
    columns = {name: draw(st.lists(numeric_values, min_size=n, max_size=n))
               for name in NUMERIC}
    columns.update(
        {name: draw(st.lists(level_values, min_size=n, max_size=n))
         for name in CATEGORICAL}
    )
    order = draw(st.permutations(NUMERIC + CATEGORICAL))
    return [{name: columns[name][row] for name in order} for row in range(n)]


def conditions():
    numeric = st.builds(
        NumericCondition, st.sampled_from(NUMERIC + ("absent",)), finite
    )
    categorical = st.builds(
        CategoricalCondition,
        st.sampled_from(CATEGORICAL + ("absent",)),
        st.sampled_from([str(level) for level in LEVELS] + ["unseen"]),
    )
    return st.one_of(numeric, categorical)


@st.composite
def trees(draw, depth=3):
    order = iter(range(1, 1000))

    def node(level):
        prediction = PredictionNode(draw(finite))
        if level < depth:
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                prediction.splitters.append(
                    SplitterNode(
                        order=next(order),
                        condition=draw(conditions()),
                        yes=node(level + 1),
                        no=node(level + 1),
                    )
                )
        return prediction

    return ADTreeModel(node(0))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(vector_lists())
    def test_from_vectors_then_vectors_is_identity(self, vectors):
        back = FeatureMatrix.from_vectors(vectors).vectors()
        assert back == vectors
        for left, right in zip(back, vectors):
            assert list(left) == list(right)
            assert [type(v) for v in left.values()] == [
                type(v) for v in right.values()
            ]
            assert [repr(v) for v in left.values()] == [
                repr(v) for v in right.values()
            ]

    def test_extractor_matrix_equals_scalar_oracle(self):
        dataset = golden_dataset()
        pairs = golden_pairs(dataset)[:60]
        vectors = extract_features_batch(dataset, pairs).vectors()
        expected = [extract_features(dataset[a], dataset[b]) for a, b in pairs]
        assert repr(vectors) == repr(expected)

    def test_columns_by_kind(self):
        matrix = FeatureMatrix.from_vectors(
            [{"x": 1.5, "c": True}, {"x": None, "c": "yes"}, {"x": 0.5, "c": None}]
        )
        x, c = matrix.columns["x"], matrix.columns["c"]
        assert isinstance(x, NumericColumn)
        assert x.present.tolist() == [True, False, True]
        assert isinstance(c, CategoricalColumn)
        assert c.labels == ("True", "yes")
        assert c.codes.tolist() == [0, 1, -1]
        assert "absent" not in matrix.columns

    def test_ragged_vectors_read_absent_keys_as_missing(self):
        matrix = FeatureMatrix.from_vectors([{"x": 1.0}, {"c": "no"}])
        assert matrix.names == ("x", "c")
        assert matrix.vectors() == [{"x": 1.0, "c": None}, {"x": None, "c": "no"}]

    def test_rows_without_features(self):
        matrix = FeatureMatrix.from_vectors([{}, {}])
        assert len(matrix) == 2
        assert matrix.vectors() == [{}, {}]


class TestScoreMatrix:
    @settings(max_examples=150, deadline=None)
    @given(trees(), vector_lists())
    def test_equals_dict_score_bit_for_bit(self, model, vectors):
        matrix = FeatureMatrix.from_vectors(vectors)
        expected = [model.score(vector) for vector in matrix.vectors()]
        actual = model.score_matrix(matrix)
        assert actual.dtype == np.float64
        assert bits(actual.tolist()) == bits(expected)

    def test_empty_matrix(self):
        model = ADTreeModel(PredictionNode(0.25))
        assert model.score_matrix(FeatureMatrix([], [], 0)).tolist() == []

    def test_condition_kind_must_match_column(self):
        matrix = FeatureMatrix.from_vectors([{"x": 1.0, "c": "yes"}])
        for condition in (NumericCondition("c", 0.5), CategoricalCondition("x", "1.0")):
            root = PredictionNode(0.0)
            root.splitters.append(
                SplitterNode(1, condition, PredictionNode(1.0), PredictionNode(-1.0))
            )
            with pytest.raises(TypeError):
                ADTreeModel(root).score_matrix(matrix)


class TestFitInputs:
    # Midpoints of values near the float max overflow to inf on both
    # input forms alike; the property is about the forms agreeing.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(vector_lists(min_size=2), st.randoms(use_true_random=False))
    def test_vectors_and_matrix_fit_the_same_tree(self, vectors, rng):
        labels = [rng.random() < 0.5 for _ in vectors]
        learner = ADTreeLearner(n_rounds=4)
        from_dicts = learner.fit(vectors, labels)
        from_matrix = learner.fit(FeatureMatrix.from_vectors(vectors), labels)
        assert render_tree(from_dicts) == render_tree(from_matrix)
        assert from_dicts.to_dict() == from_matrix.to_dict()

    def test_extractor_matrix_and_its_vectors_fit_the_same_tree(self):
        dataset = golden_dataset()
        pairs = golden_pairs(dataset)
        gold = GoldStandard.from_dataset(dataset)
        labels = [gold.is_match(pair) for pair in pairs]
        matrix = extract_features_batch(dataset, pairs)
        from_matrix = ADTreeLearner().fit(matrix, labels)
        from_dicts = ADTreeLearner().fit(matrix.vectors(), labels)
        assert from_matrix.to_dict() == from_dicts.to_dict()


@pytest.fixture(scope="module")
def golden():
    dataset = golden_dataset()
    pairs = golden_pairs(dataset)
    gold = GoldStandard.from_dataset(dataset)
    return dataset, pairs, {pair: gold.is_match(pair) for pair in pairs}


class TestTrainingRowReuse:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_rank_equals_fresh_extraction_of_every_pair(self, golden, data):
        dataset, pairs, labels = golden
        train = data.draw(
            st.lists(st.sampled_from(pairs), min_size=20, max_size=120, unique=True)
        )
        ranked_pairs = data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=120)
        )
        if not any(labels[pair] for pair in train) or all(labels[pair] for pair in train):
            train = pairs[:120]
        classifier = PairClassifier(
            dataset, learner=ADTreeLearner(n_rounds=4)
        ).fit({pair: labels[pair] for pair in train})
        model = classifier.model
        unique = sorted(set(ranked_pairs))
        fresh = model.score_matrix(extract_features_batch(dataset, unique)).tolist()
        oracle = [model.score(extract_features(dataset[a], dataset[b])) for a, b in unique]
        assert bits(fresh) == bits(oracle)
        expected = sorted(zip(unique, fresh), key=lambda kv: (-kv[1], kv[0]))
        ranked = classifier.rank(ranked_pairs)
        assert [pair for pair, _ in ranked] == [pair for pair, _ in expected]
        assert bits([s for _, s in ranked]) == bits([s for _, s in expected])
        assert bits(classifier.confidences(unique)) == bits(fresh)

    def test_only_untrained_pairs_are_extracted(self, golden, monkeypatch):
        dataset, pairs, labels = golden
        classifier = PairClassifier(dataset).fit(
            {pair: labels[pair] for pair in pairs[:150]}
        )
        extracted = []
        real = features_module.extract_features_batch

        def spy(source, batch, names=None):
            extracted.append(list(batch))
            return real(source, batch, names=names)

        monkeypatch.setattr("repro.classify.training.extract_features_batch", spy)
        classifier.confidences(pairs[100:200])
        assert extracted == [pairs[150:200]]

    def test_records_mapping_extracts_every_pair(self, golden, monkeypatch):
        dataset, pairs, labels = golden
        classifier = PairClassifier(dataset).fit(
            {pair: labels[pair] for pair in pairs[:150]}
        )
        extracted = []
        real = features_module.extract_features_batch

        def spy(source, batch, names=None):
            extracted.append(list(batch))
            return real(source, batch, names=names)

        monkeypatch.setattr("repro.classify.training.extract_features_batch", spy)
        records = {rid: dataset[rid] for rid in dataset.record_ids}
        via_records = classifier.confidences(pairs[:10], records)
        assert extracted == [pairs[:10]]
        assert bits(via_records) == bits(classifier.confidences(pairs[:10]))


class TestItemBagsOncePerCall:
    def _count_bags(self, monkeypatch):
        calls = []
        real = features_module.record_to_items

        def counting(record):
            calls.append(record.book_id)
            return real(record)

        monkeypatch.setattr(features_module, "record_to_items", counting)
        return calls

    def test_records_mapping_computes_each_bag_once(self, golden, monkeypatch):
        dataset, pairs, _labels = golden
        records = {rid: dataset[rid] for rid in dataset.record_ids}
        calls = self._count_bags(monkeypatch)
        batch = pairs[:30]
        extract_features_batch(
            records, batch, names=("itemJaccard", "nSharedItems")
        )
        assert sorted(calls) == sorted({rid for pair in batch for rid in pair})

    def test_dataset_reads_its_cached_bags(self, golden, monkeypatch):
        dataset, pairs, _labels = golden
        dataset.item_bags  # noqa: B018 - fill the cache, as mining does
        calls = self._count_bags(monkeypatch)
        extract_features_batch(
            dataset, pairs[:30], names=("itemJaccard", "nSharedItems")
        )
        assert calls == []
