"""Tests for the ADTree model: scoring, missing values, serialization."""

from __future__ import annotations

import pytest

from repro.classify.adtree import (
    ADTreeModel,
    CategoricalCondition,
    Condition,
    NumericCondition,
    PredictionNode,
    SplitterNode,
)


def paper_fragment_tree():
    """The Figure 10 fragment: prior -0.29, sameFatherName splitter with
    nested mfName/ffName distance splitters."""
    root = PredictionNode(-0.29)
    no_node = PredictionNode(-1.3)
    yes_node = PredictionNode(0.54)
    same_father = SplitterNode(
        order=1,
        condition=CategoricalCondition("sameFatherName", "no"),
        yes=no_node,   # condition "= no" true
        no=yes_node,
    )
    root.splitters.append(same_father)
    # Under the "= no" branch: mfNameDist < 0.73 splitter.
    mf = SplitterNode(
        order=2,
        condition=NumericCondition("mfNameDist", 0.73),
        yes=PredictionNode(-0.72),
        no=PredictionNode(1.53),
    )
    no_node.splitters.append(mf)
    ff = SplitterNode(
        order=3,
        condition=NumericCondition("ffNameDist", 0.47),
        yes=PredictionNode(-0.86),
        no=PredictionNode(-0.25),
    )
    no_node.splitters.append(ff)
    return ADTreeModel(root)


class TestConditions:
    def test_numeric_evaluate(self):
        condition = NumericCondition("x", 0.5)
        assert condition.evaluate({"x": 0.3}) is True
        assert condition.evaluate({"x": 0.7}) is False
        assert condition.evaluate({"x": None}) is None
        assert condition.evaluate({}) is None

    def test_categorical_evaluate(self):
        condition = CategoricalCondition("c", "no")
        assert condition.evaluate({"c": "no"}) is True
        assert condition.evaluate({"c": "yes"}) is False
        assert condition.evaluate({}) is None

    def test_categorical_evaluate_compares_str(self):
        condition = CategoricalCondition("flag", "True")
        assert condition.evaluate({"flag": True}) is True
        assert condition.evaluate({"flag": False}) is False
        assert condition.evaluate({"flag": None}) is None

    def test_describe(self):
        assert NumericCondition("x", 0.728).describe(True) == "x < 0.728"
        assert NumericCondition("x", 0.728).describe(False) == "x >= 0.728"
        assert CategoricalCondition("c", "no").describe(True) == "c = no"
        assert CategoricalCondition("c", "no").describe(False) == "c != no"

    def test_dict_roundtrip(self):
        for condition in (
            NumericCondition("x", 1.5),
            CategoricalCondition("c", "yes"),
        ):
            assert Condition.from_dict(condition.to_dict()) == condition

    def test_from_dict_unknown_kind(self):
        with pytest.raises(ValueError):
            Condition.from_dict({"kind": "fuzzy"})


class TestScoring:
    def test_paper_example_score(self):
        """Figure 10 walk-through: different father names, mf dist 0.2,
        gives -1.3 + -0.25... the paper computes -1.3 + -0.25 = -1.55
        (with no mother name one of the splitters is unreachable)."""
        model = paper_fragment_tree()
        features = {
            "sameFatherName": "no",
            "mfNameDist": None,      # no mother first name in one record
            "ffNameDist": 0.2,
        }
        # root -0.29 + "= no" -1.3 + ffNameDist<0.47 -0.86
        assert model.score(features) == pytest.approx(-0.29 - 1.3 - 0.86)

    def test_missing_skips_whole_subtree(self):
        model = paper_fragment_tree()
        features = {"sameFatherName": None}
        assert model.score(features) == pytest.approx(-0.29)

    def test_yes_branch(self):
        model = paper_fragment_tree()
        features = {"sameFatherName": "yes"}
        assert model.score(features) == pytest.approx(-0.29 + 0.54)

    def test_classify_threshold(self):
        model = paper_fragment_tree()
        assert not model.classify({"sameFatherName": "no", "ffNameDist": 0.2})
        assert model.classify({"sameFatherName": "yes"}, threshold=0.0)

    def test_multiple_splitters_sum(self):
        """Alternating semantics: all reachable subtrees contribute."""
        model = paper_fragment_tree()
        features = {
            "sameFatherName": "no",
            "mfNameDist": 0.9,
            "ffNameDist": 0.9,
        }
        expected = -0.29 - 1.3 + 1.53 - 0.25
        assert model.score(features) == pytest.approx(expected)


class TestIntrospection:
    def test_features_used(self):
        model = paper_fragment_tree()
        assert model.features_used() == [
            "sameFatherName", "mfNameDist", "ffNameDist"
        ]

    def test_n_splitters(self):
        assert paper_fragment_tree().n_splitters() == 3

    def test_iter_splitters_ordered(self):
        orders = [s.order for s in paper_fragment_tree().iter_splitters()]
        assert orders == [1, 2, 3]


class TestSerialization:
    def test_dict_roundtrip_preserves_scores(self):
        model = paper_fragment_tree()
        restored = ADTreeModel.from_dict(model.to_dict())
        for features in (
            {"sameFatherName": "no", "ffNameDist": 0.2},
            {"sameFatherName": "yes"},
            {},
            {"sameFatherName": "no", "mfNameDist": 0.9, "ffNameDist": 0.1},
        ):
            assert restored.score(features) == pytest.approx(model.score(features))

    def test_file_roundtrip(self, tmp_path):
        model = paper_fragment_tree()
        path = tmp_path / "model.json"
        model.save(path)
        restored = ADTreeModel.load(path)
        assert restored.n_splitters() == model.n_splitters()
        assert restored.score({"sameFatherName": "yes"}) == pytest.approx(
            model.score({"sameFatherName": "yes"})
        )
