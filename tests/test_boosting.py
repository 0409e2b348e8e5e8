"""Tests for the ADTree boosting learner."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.classify.adtree import ADTreeModel, CategoricalCondition
from repro.classify.boosting import ADTreeLearner, _quantize
from repro.classify.training import evaluate_model
from repro.similarity.features import FeatureMatrix, extract_features_batch
from tools.golden_kernels import golden_dataset, golden_labels, golden_pairs


def learn(features, labels, **kwargs):
    return ADTreeLearner(**kwargs).fit(features, labels)


class TestValidation:
    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            ADTreeLearner(n_rounds=0)

    def test_smoothing_positive(self):
        with pytest.raises(ValueError):
            ADTreeLearner(smoothing=0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            learn([{"x": 1.0}], [True, False])

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            learn([], [])


class TestLearnsSimpleConcepts:
    def test_numeric_threshold(self):
        rng = random.Random(3)
        features = [{"x": rng.uniform(0, 1)} for _ in range(200)]
        labels = [f["x"] > 0.5 for f in features]
        model = learn(features, labels, n_rounds=3)
        assert model.score({"x": 0.9}) > 0
        assert model.score({"x": 0.1}) < 0

    def test_categorical_equality(self):
        features = [{"c": "yes"}] * 50 + [{"c": "no"}] * 50
        labels = [True] * 50 + [False] * 50
        model = learn(features, labels, n_rounds=2)
        assert model.score({"c": "yes"}) > 0
        assert model.score({"c": "no"}) < 0

    def test_conjunction(self):
        rng = random.Random(5)
        features = [
            {"a": rng.choice(["y", "n"]), "b": rng.uniform(0, 1)}
            for _ in range(400)
        ]
        labels = [f["a"] == "y" and f["b"] > 0.5 for f in features]
        model = learn(features, labels, n_rounds=8)
        correct = sum(
            1
            for f, label in zip(features, labels)
            if (model.score(f) > 0) == label
        )
        assert correct / len(features) > 0.95

    def test_prior_only_when_no_features(self):
        features = [{} for _ in range(10)]
        labels = [True] * 8 + [False] * 2
        model = learn(features, labels, n_rounds=3)
        assert model.n_splitters() == 0
        assert model.score({}) > 0  # positive prior

    def test_root_prior_sign_matches_majority(self):
        features = [{"x": 0.5}] * 10
        labels = [False] * 9 + [True]
        model = learn(features, labels, n_rounds=1)
        assert model.root.value < 0


class TestNonStringCategories:
    """The learner records ``str(value)``; scoring must compare the same."""

    def test_bool_feature_takes_yes_branch(self):
        features = [{"flag": i % 2 == 0} for i in range(80)]
        labels = [vector["flag"] for vector in features]
        model = learn(features, labels, n_rounds=2)
        first = next(model.iter_splitters())
        assert first.condition == CategoricalCondition("flag", "False")
        result = evaluate_model(model, features, labels)
        assert (result.tp, result.fp, result.tn, result.fn) == (40, 0, 40, 0)


class TestMissingValues:
    def test_trains_with_missing_values(self):
        rng = random.Random(7)
        features = []
        labels = []
        for _ in range(300):
            x = rng.uniform(0, 1)
            has_x = rng.random() < 0.7
            features.append({"x": x if has_x else None, "c": "y" if x > 0.5 else "n"})
            labels.append(x > 0.5)
        model = learn(features, labels, n_rounds=6)
        # Score with the numeric feature missing should still lean on c.
        assert model.score({"x": None, "c": "y"}) > model.score({"x": None, "c": "n"})

    def test_all_missing_feature_ignored(self):
        features = [{"x": None, "c": "y"}] * 20 + [{"x": None, "c": "n"}] * 20
        labels = [True] * 20 + [False] * 20
        model = learn(features, labels, n_rounds=3)
        assert "x" not in model.features_used()


class TestStructure:
    def test_rounds_bound_splitters(self):
        rng = random.Random(11)
        features = [{"x": rng.uniform(0, 1), "y": rng.uniform(0, 1)} for _ in range(100)]
        labels = [f["x"] + f["y"] > 1.0 for f in features]
        model = learn(features, labels, n_rounds=5)
        assert model.n_splitters() <= 5

    def test_feature_pruning(self):
        """Irrelevant noise features should rarely be selected."""
        rng = random.Random(13)
        features = []
        labels = []
        for _ in range(400):
            signal = rng.uniform(0, 1)
            row = {"signal": signal}
            for j in range(10):
                row[f"noise{j}"] = rng.uniform(0, 1)
            features.append(row)
            labels.append(signal > 0.5)
        model = learn(features, labels, n_rounds=4)
        assert "signal" in model.features_used()
        noise_used = [f for f in model.features_used() if f.startswith("noise")]
        assert len(noise_used) <= 2

    def test_deterministic(self):
        rng = random.Random(17)
        features = [{"x": rng.uniform(0, 1)} for _ in range(100)]
        labels = [f["x"] > 0.3 for f in features]
        model_a = learn(features, labels, n_rounds=4)
        model_b = learn(features, labels, n_rounds=4)
        assert model_a.to_dict() == model_b.to_dict()

    def test_returns_adtree_model(self):
        model = learn([{"x": 1.0}, {"x": 0.0}], [True, False])
        assert isinstance(model, ADTreeModel)


class TestConfidenceRanking:
    def test_scores_order_by_evidence(self):
        """More agreeing features -> higher confidence, the ranked-
        resolution property the paper exploits."""
        rng = random.Random(23)
        features = []
        labels = []
        for _ in range(500):
            a = rng.random() < 0.5
            b = rng.random() < 0.5
            features.append({"fa": "y" if a else "n", "fb": "y" if b else "n"})
            # label correlates with both features
            labels.append((a and b) or (a and rng.random() < 0.3))
        model = learn(features, labels, n_rounds=6)
        both = model.score({"fa": "y", "fb": "y"})
        one = model.score({"fa": "y", "fb": "n"})
        none = model.score({"fa": "n", "fb": "n"})
        assert both > one > none


def _scaled_to(weights, total):
    return weights * (total / math.fsum(weights.tolist()))


class TestExactSplitSums:
    """Split sums are exact integers, so the tree ignores row order."""

    def test_row_order_does_not_move_the_tree(self):
        dataset = golden_dataset()
        pairs = golden_pairs(dataset)
        matrix = extract_features_batch(dataset, pairs)
        labels = golden_labels(dataset, pairs)
        expected = ADTreeLearner().fit(matrix, labels).to_dict()
        vectors = matrix.vectors()
        for seed in (1, 2, 3):
            order = list(range(len(pairs)))
            random.Random(seed).shuffle(order)
            model = ADTreeLearner().fit(
                FeatureMatrix.from_vectors([vectors[i] for i in order]),
                [labels[i] for i in order],
            )
            assert model.to_dict() == expected, f"permutation seed {seed}"

    @pytest.mark.parametrize(
        "weights",
        [
            # log-uniform over ~1e-12 .. 1e3, total just under 2**17
            _scaled_to(np.geomspace(1e-12, 1e3, 4001), 2**17 * (1 - 1e-12)),
            # fsum exactly 2**11
            np.full(4096, 0.5),
            # one weight dwarfs the rest
            np.concatenate([[1e3], np.full(3000, 1e-12)]),
        ],
        ids=["log-span", "power-of-two-total", "one-heavy"],
    )
    def test_quantized_sums_are_exact(self, weights):
        units, shift = _quantize(weights)
        assert np.array_equal(units, np.round(units))
        as_ints = [int(u) for u in units]
        assert sum(as_ints) < 2**53
        rng = np.random.default_rng(5)
        satisfied = (rng.random((40, len(units))) < 0.5).astype(np.float64)
        masks = (rng.random((3, len(units))) < 0.7).astype(np.float64)
        stacked = (masks * units).T
        sums = satisfied @ stacked
        for i, row in enumerate(satisfied):
            for p, mask in enumerate(masks):
                expected = sum(
                    u for u, s, m in zip(as_ints, row, mask) if s and m
                )
                assert sums[i, p].item() == expected  # exact float == int
        # The grid scale follows the correctly rounded total.
        total = math.fsum(weights.tolist())
        assert 2**50 <= math.ldexp(total, shift) < 2**51

    @pytest.mark.parametrize(
        "weights",
        [[1.0, math.inf, 2.0], [1.0, math.nan, 2.0], [math.inf, -math.inf]],
        ids=["inf", "nan", "inf-minus-inf"],
    )
    def test_non_finite_total_raises(self, weights):
        with pytest.raises(ValueError):
            _quantize(np.array(weights))
