"""Tests for the CART-style decision tree (the classifier ablation)."""

from __future__ import annotations

import random

import pytest

from repro.classify.cart import CartLearner


class TestValidation:
    def test_depth_positive(self):
        with pytest.raises(ValueError):
            CartLearner(max_depth=0)

    def test_min_samples_leaf(self):
        with pytest.raises(ValueError):
            CartLearner(min_samples_leaf=0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CartLearner().fit([{"x": 1.0}], [True, False])

    def test_empty(self):
        with pytest.raises(ValueError):
            CartLearner().fit([], [])


class TestLearning:
    def test_numeric_threshold(self):
        rng = random.Random(2)
        features = [{"x": rng.uniform(0, 1)} for _ in range(200)]
        labels = [f["x"] > 0.5 for f in features]
        model = CartLearner().fit(features, labels)
        assert model.classify({"x": 0.9})
        assert not model.classify({"x": 0.1})

    def test_categorical_split(self):
        features = [{"c": "yes"}] * 40 + [{"c": "no"}] * 40
        labels = [True] * 40 + [False] * 40
        model = CartLearner().fit(features, labels)
        assert model.probability({"c": "yes"}) > 0.9
        assert model.probability({"c": "no"}) < 0.1

    def test_pure_node_becomes_leaf(self):
        features = [{"x": 1.0}] * 20
        labels = [True] * 20
        model = CartLearner().fit(features, labels)
        assert model.n_leaves() == 1
        assert model.probability({"x": 1.0}) == 1.0

    def test_depth_bounded(self):
        rng = random.Random(3)
        features = [
            {"x": rng.uniform(0, 1), "y": rng.uniform(0, 1)}
            for _ in range(300)
        ]
        labels = [(f["x"] + f["y"]) % 0.3 > 0.15 for f in features]
        model = CartLearner(max_depth=3).fit(features, labels)
        assert model.depth() <= 3

    def test_score_centered(self):
        features = [{"c": "a"}] * 30 + [{"c": "b"}] * 30
        labels = [True] * 30 + [False] * 30
        model = CartLearner().fit(features, labels)
        assert model.score({"c": "a"}) > 0 > model.score({"c": "b"})
        assert -0.5 <= model.score({"c": "a"}) <= 0.5


class TestMissingValues:
    def test_missing_routes_to_majority(self):
        # 'x' present for most records; missing ones follow the majority.
        features = (
            [{"x": 0.1} for _ in range(60)]
            + [{"x": 0.9} for _ in range(30)]
        )
        labels = [False] * 60 + [True] * 30
        model = CartLearner().fit(features, labels)
        # Majority branch is the x<thr (False) side.
        assert model.probability({"x": None}) < 0.5

    def test_all_missing_feature_never_split(self):
        features = [{"x": None, "c": "a"}] * 20 + [{"x": None, "c": "b"}] * 20
        labels = [True] * 20 + [False] * 20
        model = CartLearner().fit(features, labels)
        assert model.probability({"c": "a"}) > 0.9


class TestComparisonWithADTree:
    def test_cart_competitive_on_dense_data(self):
        rng = random.Random(7)
        features = [{"x": rng.uniform(0, 1)} for _ in range(300)]
        labels = [f["x"] > 0.4 for f in features]
        model = CartLearner().fit(features, labels)
        correct = sum(
            1 for f, label in zip(features, labels)
            if model.classify(f) == label
        )
        assert correct / len(features) > 0.95
