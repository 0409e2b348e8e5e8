"""Golden-vector regression suite for the batch similarity kernels.

``tests/fixtures/golden_kernels/`` pins the exact bytes the kernels
produced when the fixtures were last regenerated (see
``tools/golden_kernels.py``): a 200-pair corpus with its expected
48-column feature matrix and its ranked pair-similarity scores under
all three scoring methods, plus Eq.-1 soft Jaccard on expert weights
without and with a gazetteer (the ExpertSim configuration), and the
ADTree the default learner trains on that matrix with its per-pair
confidences (``fit`` on dicts and on the extractor's matrix, ``score``
and ``score_matrix``). Any drift — batch kernel, scalar reference,
or generator — fails here with a per-feature diff, so an accidental
ULP-level change cannot hide inside an end-to-end aggregate.

Intentional changes regenerate with::

    PYTHONPATH=src python -m tools.golden_kernels --write
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import pytest

from repro.classify.adtree import ADTreeModel
from repro.classify.boosting import ADTreeLearner
from repro.similarity.features import (
    FEATURE_NAMES,
    FeatureMatrix,
    extract_features,
    extract_features_batch,
)
from tools.golden_kernels import (
    ADTREE_JSON,
    REPO_ROOT,
    CONFIDENCES_CSV,
    FEATURES_CSV,
    N_PAIRS,
    RANKED_COLUMNS,
    RANKED_CSV,
    compute_feature_rows,
    compute_ranked_rows,
    golden_dataset,
    golden_labels,
    golden_pairs,
    load_adtree_json,
    load_confidences_csv,
    load_features_csv,
    load_ranked_csv,
    ranked_scorers,
    train_golden_tree,
)


def _same_value(expected, actual) -> bool:
    """Bit-exact feature equality (repr catches -0.0 and NaN)."""
    if expected is None or actual is None:
        return expected is None and actual is None
    if isinstance(expected, str) or isinstance(actual, str):
        return expected == actual
    return repr(float(expected)) == repr(float(actual))


@pytest.fixture(scope="module")
def dataset():
    return golden_dataset()


@pytest.fixture(scope="module")
def pairs(dataset):
    return golden_pairs(dataset)


class TestFixtureShape:
    def test_fixtures_are_committed(self):
        assert FEATURES_CSV.is_file(), "run tools/golden_kernels.py --write"
        assert RANKED_CSV.is_file(), "run tools/golden_kernels.py --write"

    def test_feature_matrix_dimensions(self):
        names, fixture_pairs, rows = load_features_csv()
        assert tuple(names) == FEATURE_NAMES
        assert len(names) == 48
        assert len(fixture_pairs) == N_PAIRS == 200
        assert len(rows) == N_PAIRS

    def test_pair_selection_is_reproducible(self, dataset, pairs):
        _names, fixture_pairs, _rows = load_features_csv()
        assert fixture_pairs == pairs


class TestGoldenFeatureMatrix:
    def test_batch_extractor_matches_committed_matrix(self, dataset, pairs):
        names, fixture_pairs, expected_rows = load_features_csv()
        actual_rows = compute_feature_rows(dataset, fixture_pairs)
        diffs = []
        for pair, expected, actual in zip(
            fixture_pairs, expected_rows, actual_rows
        ):
            for name in names:
                if not _same_value(expected[name], actual[name]):
                    diffs.append(
                        f"pair {pair} feature {name!r}: "
                        f"expected {expected[name]!r}, got {actual[name]!r}"
                    )
        assert not diffs, self._format(diffs)

    def test_scalar_extractor_matches_committed_matrix(self, dataset):
        # The fixture pins the *scalar* reference too: batch == golden
        # and scalar == golden together re-prove batch == scalar on
        # every committed pair.
        names, fixture_pairs, expected_rows = load_features_csv()
        diffs = []
        for pair, expected in zip(fixture_pairs, expected_rows):
            a, b = pair
            actual = extract_features(dataset[a], dataset[b])
            for name in names:
                if not _same_value(expected[name], actual[name]):
                    diffs.append(
                        f"pair {pair} feature {name!r}: "
                        f"expected {expected[name]!r}, got {actual[name]!r}"
                    )
        assert not diffs, self._format(diffs)

    @staticmethod
    def _format(diffs):
        shown = diffs[:20]
        if len(diffs) > len(shown):
            shown.append(f"... and {len(diffs) - len(shown)} more")
        return "golden feature drift:\n" + "\n".join(shown)


class TestGoldenRankedPairs:
    def test_batch_scorers_match_committed_ranking(self, dataset, pairs):
        expected = load_ranked_csv()
        actual = compute_ranked_rows(dataset, pairs)
        assert len(expected) == len(actual) == N_PAIRS
        diffs = []
        for exp, act in zip(expected, actual):
            if exp[:3] != act[:3] or any(
                not _same_value(e, a) for e, a in zip(exp[3:], act[3:])
            ):
                diffs.append(f"expected {exp!r}, got {act!r}")
        assert not diffs, "golden ranking drift:\n" + "\n".join(diffs[:20])

    def test_scalar_scorer_matches_committed_scores(self, dataset):
        bags = dataset.item_bags
        scorers = dict(zip(RANKED_COLUMNS, ranked_scorers()))
        diffs = []
        for _rank, a, b, *scores in load_ranked_csv():
            expected = dict(zip(RANKED_COLUMNS, scores))
            for key, scorer in scorers.items():
                actual = scorer.pair_similarity(bags[a], bags[b])
                if not _same_value(expected[key], actual):
                    diffs.append(
                        f"pair ({a}, {b}) {key}: "
                        f"expected {expected[key]!r}, got {actual!r}"
                    )
        assert not diffs, "golden score drift:\n" + "\n".join(diffs[:20])

    def test_expert_sim_columns_are_distinct(self):
        # The weighted soft column must not collapse onto the unweighted
        # one, nor the gazetteer column onto exact-match Geo, or the
        # pins would not cover the ExpertSim configuration.
        rows = load_ranked_csv()
        column = {name: 3 + i for i, name in enumerate(RANKED_COLUMNS)}
        assert any(
            row[column["soft"]] != row[column["soft_weighted"]] for row in rows
        )
        assert any(
            row[column["soft_weighted"]] != row[column["soft_geo"]]
            for row in rows
        )

    def test_ranking_is_sorted_by_weighted_desc(self):
        rows = load_ranked_csv()
        keys = [(-row[4], row[1], row[2]) for row in rows]
        assert keys == sorted(keys)
        assert [row[0] for row in rows] == list(range(1, len(rows) + 1))


class TestGoldenADTree:
    def test_fixtures_are_committed(self):
        assert ADTREE_JSON.is_file(), "run tools/golden_kernels.py --write"
        assert CONFIDENCES_CSV.is_file(), "run tools/golden_kernels.py --write"

    def test_fit_matches_committed_tree(self, dataset, pairs):
        # to_dict floats compare by value, which for finite floats is
        # bit equality; the committed JSON holds their exact reprs.
        model = train_golden_tree(dataset, pairs)
        assert model.to_dict() == load_adtree_json()

    def test_fit_on_extractor_matrix_matches_committed_tree(
        self, dataset, pairs
    ):
        model = ADTreeLearner().fit(
            extract_features_batch(dataset, pairs), golden_labels(dataset, pairs)
        )
        assert model.to_dict() == load_adtree_json()

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86 kernels",
    )
    @pytest.mark.parametrize("coretype", ["Sandybridge", "Prescott"])
    def test_fit_under_other_blas_kernel_matches_committed_tree(self, coretype):
        # Exact split sums make the tree independent of the BLAS kernel;
        # OpenBLAS reads the core type once, at load, so fit in a child.
        script = (
            "import json\n"
            "from tools.golden_kernels import golden_dataset, golden_pairs,"
            " train_golden_tree\n"
            "dataset = golden_dataset()\n"
            "model = train_golden_tree(dataset, golden_pairs(dataset))\n"
            "print(json.dumps(model.to_dict(), indent=1))\n"
        )
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE=coretype,
            PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout == ADTREE_JSON.read_text(encoding="utf-8")

    def test_tree_uses_both_condition_kinds(self):
        kinds = {
            splitter.condition.to_dict()["kind"]
            for splitter in ADTreeModel.from_dict(
                load_adtree_json()
            ).iter_splitters()
        }
        assert kinds == {"numeric", "categorical"}

    def test_score_matches_committed_confidences(self):
        model = ADTreeModel.from_dict(load_adtree_json())
        _names, fixture_pairs, rows = load_features_csv()
        conf_pairs, expected = load_confidences_csv()
        assert conf_pairs == fixture_pairs
        actual = [model.score(row) for row in rows]
        diffs = [
            f"pair {pair}: expected {e!r}, got {a!r}"
            for pair, e, a in zip(fixture_pairs, expected, actual)
            if repr(e) != repr(a)
        ]
        assert not diffs, "golden confidence drift:\n" + "\n".join(diffs[:20])

    def test_score_matrix_matches_committed_confidences(self, dataset, pairs):
        model = ADTreeModel.from_dict(load_adtree_json())
        _names, fixture_pairs, rows = load_features_csv()
        _conf_pairs, expected = load_confidences_csv()
        for matrix in (
            FeatureMatrix.from_vectors(rows),
            extract_features_batch(dataset, fixture_pairs),
        ):
            actual = model.score_matrix(matrix).tolist()
            diffs = [
                f"pair {pair}: expected {e!r}, got {a!r}"
                for pair, e, a in zip(fixture_pairs, expected, actual)
                if repr(e) != repr(a)
            ]
            assert not diffs, "golden confidence drift:\n" + "\n".join(
                diffs[:20]
            )
