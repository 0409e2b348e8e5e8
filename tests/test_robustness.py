"""Failure-injection and edge-input robustness for the full pipeline.

Multi-source archival data is hostile: empty fields, unicode from four
alphabets, pathological duplicates, single-record datasets. The pipeline
must degrade, never crash.
"""

from __future__ import annotations

from repro.blocking import MFIBlocks, MFIBlocksConfig
from repro.classify import ADTreeLearner
from repro.core import PipelineConfig, UncertainERPipeline
from repro.records.dataset import Dataset
from repro.records.schema import Place, PlaceType
from repro.similarity.features import extract_features
from tests.conftest import make_record


class TestDegenerateDatasets:
    def test_empty_dataset(self):
        resolution = UncertainERPipeline(PipelineConfig()).run(Dataset([]))
        assert len(resolution) == 0
        assert resolution.entities() == []

    def test_single_record(self):
        dataset = Dataset([make_record(book_id=1)])
        resolution = UncertainERPipeline(PipelineConfig()).run(dataset)
        assert len(resolution) == 0

    def test_two_identical_records(self):
        dataset = Dataset([
            make_record(book_id=1, birth_year=1920, person_id=1),
            make_record(book_id=2, birth_year=1920, person_id=1),
        ])
        resolution = UncertainERPipeline(
            PipelineConfig(max_minsup=2)
        ).run(dataset)
        assert (1, 2) in resolution.pairs

    def test_all_records_identical(self):
        """A pathological pile of clones must stay within SN caps."""
        records = [
            make_record(book_id=i, birth_year=1920, person_id=1)
            for i in range(1, 31)
        ]
        config = MFIBlocksConfig(max_minsup=3, ng=2.0)
        result = MFIBlocks(config).run(Dataset(records))
        cap = int(config.ng * config.max_minsup)
        for count in result.neighborhoods().values():
            assert count <= cap

    def test_records_with_empty_bags(self):
        dataset = Dataset([
            make_record(book_id=1, first=(), last=(), gender=None),
            make_record(book_id=2, first=(), last=(), gender=None),
        ])
        resolution = UncertainERPipeline(PipelineConfig()).run(dataset)
        assert len(resolution) == 0


class TestHostileValues:
    def test_unicode_names(self):
        dataset = Dataset([
            make_record(book_id=1, first=("Mosè",), last=("Łęski",),
                        person_id=1),
            make_record(book_id=2, first=("Mosè",), last=("Łęski",),
                        person_id=1),
            make_record(book_id=3, first=("Σολομών",), last=("Ναχμίας",),
                        person_id=2),
            make_record(book_id=4, first=("Соломон",), last=("Нахмиас",),
                        person_id=2),
        ])
        resolution = UncertainERPipeline(
            PipelineConfig(max_minsup=2)
        ).run(dataset)
        assert (1, 2) in resolution.pairs

    def test_unicode_feature_extraction(self):
        a = make_record(book_id=1, first=("Mojżesz",), last=("Żółkiewski",))
        b = make_record(book_id=2, first=("Mojzesz",), last=("Zolkiewski",))
        features = extract_features(a, b)
        assert features["sameFN"] == "no"  # different spellings
        assert 0.0 <= features["FNdist"] <= 1.0

    def test_very_long_names(self):
        long_name = "a" * 500
        a = make_record(book_id=1, first=(long_name,))
        b = make_record(book_id=2, first=(long_name,))
        features = extract_features(a, b)
        assert features["sameFN"] == "yes"
        assert features["FNdist"] == 1.0

    def test_whitespace_heavy_values(self):
        a = make_record(book_id=1, last=("Della Torre",), person_id=1)
        b = make_record(book_id=2, last=("Della Torre",), person_id=1)
        dataset = Dataset([a, b])
        resolution = UncertainERPipeline(
            PipelineConfig(max_minsup=2)
        ).run(dataset)
        assert (1, 2) in resolution.pairs

    def test_many_valued_first_names(self):
        names = tuple(f"Name{i}" for i in range(12))
        a = make_record(book_id=1, first=names)
        b = make_record(book_id=2, first=names[:1])
        features = extract_features(a, b)
        assert features["sameFN"] == "partial"


class TestClassifierRobustness:
    def test_single_class_training(self):
        """All-positive training data must not crash the learner."""
        features = [{"x": float(i % 3)} for i in range(20)]
        model = ADTreeLearner(n_rounds=3).fit(features, [True] * 20)
        assert model.score({"x": 1.0}) > 0

    def test_constant_features(self):
        features = [{"x": 1.0, "c": "same"} for _ in range(20)]
        labels = [i % 2 == 0 for i in range(20)]
        model = ADTreeLearner(n_rounds=3).fit(features, labels)
        # nothing separable: near-zero scores, no crash
        assert abs(model.score({"x": 1.0, "c": "same"})) < 1.0

    def test_extreme_feature_magnitudes(self):
        features = (
            [{"x": 1e12} for _ in range(10)]
            + [{"x": -1e12} for _ in range(10)]
        )
        labels = [True] * 10 + [False] * 10
        model = ADTreeLearner(n_rounds=2).fit(features, labels)
        assert model.score({"x": 1e12}) > 0 > model.score({"x": -1e12})


class TestPlaceEdgeCases:
    def test_place_with_only_coords(self):
        place = Place(coords=None)
        record = make_record(book_id=1, places={PlaceType.BIRTH: (place,)})
        assert "place:birth:city" not in record.pattern()

    def test_conflicting_places_same_type(self):
        a = make_record(
            book_id=1,
            places={PlaceType.WARTIME: (
                Place(city="Lwow"), Place(city="Warszawa"),
            )},
            person_id=1,
        )
        b = make_record(
            book_id=2,
            places={PlaceType.WARTIME: (Place(city="Warszawa"),)},
            person_id=1,
        )
        features = extract_features(a, b)
        assert features["sameWPCity"] == "yes"  # any overlap counts
