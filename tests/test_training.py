"""Tests for the training/evaluation harness and PairClassifier."""

from __future__ import annotations

import pytest

from repro.classify.adtree import ADTreeModel, PredictionNode
from repro.classify.boosting import ADTreeLearner
from repro.classify.printer import render_tree
from repro.classify.training import (
    EvaluationResult,
    OneVsRestADTree,
    PairClassifier,
    cross_validate,
    evaluate_model,
    pair_features,
    train_test_split,
)
from repro.records.dataset import Dataset
from repro.similarity.features import (
    FEATURE_NAMES,
    FeatureMatrix,
    extract_features,
)
from tests.conftest import make_record


class TestEvaluationResult:
    def test_metrics(self):
        result = EvaluationResult(n=10, tp=4, fp=1, tn=4, fn=1)
        assert result.accuracy == 0.8
        assert result.precision == 0.8
        assert result.recall == 0.8
        assert result.f1 == pytest.approx(0.8)

    def test_degenerate_zeroes(self):
        result = EvaluationResult(n=0, tp=0, fp=0, tn=0, fn=0)
        assert result.accuracy == 0.0
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0


class TestSplit:
    def test_partition(self):
        items = list(range(100))
        train, test = train_test_split(items, test_fraction=0.3, seed=1)
        assert len(test) == 30
        assert sorted(train + test) == items

    def test_deterministic(self):
        items = list(range(50))
        split_a = train_test_split(items, seed=5)
        split_b = train_test_split(items, seed=5)
        assert split_a == split_b

    def test_validation(self):
        with pytest.raises(ValueError):
            train_test_split([1, 2], test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split([1, 2], test_fraction=1.0)


class TestEvaluateModel:
    def test_counts(self):
        model = ADTreeModel(PredictionNode(1.0))  # always predicts match
        features = [{}, {}, {}]
        labels = [True, True, False]
        result = evaluate_model(model, features, labels)
        assert (result.tp, result.fp, result.tn, result.fn) == (2, 1, 0, 0)


class TestCrossValidate:
    def test_fold_count_and_coverage(self):
        features = [{"x": float(i % 2)} for i in range(40)]
        labels = [i % 2 == 0 for i in range(40)]
        results = cross_validate(features, labels, n_folds=4, learner=ADTreeLearner(n_rounds=2))
        assert len(results) == 4
        assert sum(result.n for result in results) == 40

    def test_accuracy_high_on_separable(self):
        features = [{"x": float(i % 2)} for i in range(60)]
        labels = [i % 2 == 0 for i in range(60)]
        results = cross_validate(features, labels, n_folds=3, learner=ADTreeLearner(n_rounds=2))
        mean_accuracy = sum(result.accuracy for result in results) / len(results)
        assert mean_accuracy > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_validate([{}], [True], n_folds=1)
        with pytest.raises(ValueError):
            cross_validate([{}], [True], n_folds=5)


@pytest.fixture(scope="module")
def pair_dataset():
    records = [
        make_record(book_id=1, first=("Guido",), last=("Foa",), birth_year=1920, person_id=1),
        make_record(book_id=2, first=("Guido",), last=("Foa",), birth_year=1920, person_id=1),
        make_record(book_id=3, first=("Guido",), last=("Foy",), birth_year=1920, person_id=1),
        make_record(book_id=4, first=("Massimo",), last=("Levi",), birth_year=1910, person_id=2),
        make_record(book_id=5, first=("Massimo",), last=("Levi",), birth_year=1910, person_id=2),
        make_record(book_id=6, first=("Donato",), last=("Segre",), birth_year=1890, person_id=3),
    ]
    return Dataset(records)


class TestPairFeatures:
    def test_one_vector_per_pair(self, pair_dataset):
        vectors = pair_features(pair_dataset, [(1, 2), (1, 4)]).vectors()
        assert len(vectors) == 2
        assert len(vectors[0]) == 48

    def test_subset_names(self, pair_dataset):
        vectors = pair_features(
            pair_dataset, [(1, 2)], names=("sameFN",)
        ).vectors()
        assert set(vectors[0]) == {"sameFN"}

    @pytest.mark.parametrize(
        "names", [None, ("LNjw", "sameFN", "B3dist", "itemJaccard"), ()]
    )
    def test_equals_scalar_oracle(self, pair_dataset, names):
        pairs = [
            (a, b)
            for a in pair_dataset.record_ids
            for b in pair_dataset.record_ids
            if a != b
        ]
        expected = [
            extract_features(pair_dataset[a], pair_dataset[b], names=names)
            for a, b in pairs
        ]
        actual = pair_features(pair_dataset, iter(pairs), names=names).vectors()
        assert repr(actual) == repr(expected)
        assert list(actual[0]) == list(FEATURE_NAMES if names is None else names)

    def test_unknown_name_raises(self, pair_dataset):
        with pytest.raises(ValueError, match="unknown feature"):
            pair_features(pair_dataset, [(1, 2)], names=("sameFN", "noSuch"))


class TestPairClassifier:
    def labels(self, dataset):
        gold = dataset.true_pairs()
        all_pairs = [
            (a, b)
            for a in dataset.record_ids
            for b in dataset.record_ids
            if a < b
        ]
        return {pair: pair in gold for pair in all_pairs}

    def test_fit_and_score(self, pair_dataset):
        classifier = PairClassifier(
            pair_dataset, learner=ADTreeLearner(n_rounds=4)
        ).fit(self.labels(pair_dataset))
        scores = dict(classifier.rank([(1, 2), (1, 6)]))
        assert scores[(1, 2)] > scores[(1, 6)]

    def test_unfitted_raises(self, pair_dataset):
        with pytest.raises(RuntimeError):
            PairClassifier(pair_dataset).rank([(1, 2)])

    def test_confidences_equal_scalar_oracle(self, pair_dataset):
        classifier = PairClassifier(
            pair_dataset, learner=ADTreeLearner(n_rounds=4)
        ).fit(self.labels(pair_dataset))
        pairs = [(2, 1), (1, 6), (4, 5)]
        assert classifier.confidences(pairs) == [
            classifier.model.score(
                extract_features(pair_dataset[a], pair_dataset[b])
            )
            for a, b in pairs
        ]

    def test_fit_tree_equals_scalar_feature_fit(self, small_corpus):
        """The fitted tree is the checkpoint ``classifier`` digest input,
        so training on batch features must grow the very tree a fit on
        scalar feature vectors grows."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import UncertainERPipeline
        from repro.datagen import ExpertTagger, simplify_tags

        dataset, _persons = small_corpus
        config = PipelineConfig(ng=3.0, expert_weighting=True)
        candidates = sorted(UncertainERPipeline(config).block(dataset).candidate_pairs)
        labels = simplify_tags(
            ExpertTagger(dataset, seed=7).tag_pairs(candidates), maybe_as=None
        )
        pairs = sorted(labels)
        scalar_model = ADTreeLearner().fit(
            [extract_features(dataset[a], dataset[b]) for a, b in pairs],
            [labels[pair] for pair in pairs],
        )
        classifier = PairClassifier(dataset).fit(labels)
        assert render_tree(classifier.model) == render_tree(scalar_model)

    def test_rank_descending(self, pair_dataset):
        classifier = PairClassifier(
            pair_dataset, learner=ADTreeLearner(n_rounds=4)
        ).fit(self.labels(pair_dataset))
        ranked = classifier.rank([(1, 2), (1, 6), (4, 5)])
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_filter_matches_threshold(self, pair_dataset):
        classifier = PairClassifier(
            pair_dataset, learner=ADTreeLearner(n_rounds=4)
        ).fit(self.labels(pair_dataset))
        kept = classifier.filter_matches([(1, 2), (1, 6)], threshold=0.0)
        assert (1, 2) in kept
        assert (1, 6) not in kept


class TestOneVsRest:
    def test_three_class_prediction(self):
        features = (
            [{"c": "a"}] * 30 + [{"c": "b"}] * 30 + [{"c": "m"}] * 30
        )
        labels = ["yes"] * 30 + ["no"] * 30 + ["maybe"] * 30
        model = OneVsRestADTree(ADTreeLearner(n_rounds=3)).fit(features, labels)
        assert model.predict({"c": "a"}) == "yes"
        assert model.predict({"c": "b"}) == "no"
        assert model.predict({"c": "m"}) == "maybe"
        assert model.accuracy(features, labels) > 0.95

    def test_vectors_and_matrix_fit_the_same_trees(self):
        features = [
            {"c": "abm"[i % 3], "x": (i * 7 % 30) / 30.0, "z": None}
            for i in range(90)
        ]
        labels = [("yes", "no", "maybe")[i % 3] for i in range(90)]
        learner = ADTreeLearner(n_rounds=3)
        from_vectors = OneVsRestADTree(learner).fit(features, labels)
        from_matrix = OneVsRestADTree(learner).fit(
            FeatureMatrix.from_vectors(features), labels
        )
        assert from_vectors.models.keys() == from_matrix.models.keys()
        for cls, model in from_vectors.models.items():
            assert model.to_dict() == from_matrix.models[cls].to_dict()

    def test_converts_vectors_once(self, monkeypatch):
        calls = []
        original = FeatureMatrix.from_vectors.__func__

        def counting(cls, vectors):
            calls.append(len(vectors))
            return original(cls, vectors)

        monkeypatch.setattr(FeatureMatrix, "from_vectors", classmethod(counting))
        features = [{"c": "abm"[i % 3]} for i in range(30)]
        labels = [("yes", "no", "maybe")[i % 3] for i in range(30)]
        OneVsRestADTree(ADTreeLearner(n_rounds=2)).fit(features, labels)
        assert calls == [30]

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            OneVsRestADTree().fit([{}], ["only"])

    def test_unfitted_predict(self):
        with pytest.raises(RuntimeError):
            OneVsRestADTree().predict({})
