"""Tests for the synthetic corpus generator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datagen.generator import CorpusGenerator, GeneratorConfig, _typo
from repro.records.schema import PlaceType, SourceKind


def generate(**kwargs):
    config = GeneratorConfig(**kwargs)
    return CorpusGenerator(config).generate()


class TestConfigValidation:
    def test_n_persons_positive(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_persons=0)

    def test_reports_weights_length(self):
        with pytest.raises(ValueError):
            GeneratorConfig(reports_weights=(1.0, 1.0))

    def test_unknown_community(self):
        with pytest.raises(ValueError):
            GeneratorConfig(communities=("atlantis",))

    def test_testimony_fraction_bounds(self):
        with pytest.raises(ValueError):
            GeneratorConfig(testimony_fraction=1.5)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        records_a, persons_a = generate(n_persons=50, seed=3)
        records_b, persons_b = generate(n_persons=50, seed=3)
        assert records_a == records_b
        assert persons_a == persons_b

    def test_different_seed_differs(self):
        records_a, _ = generate(n_persons=50, seed=3)
        records_b, _ = generate(n_persons=50, seed=4)
        assert records_a != records_b


class TestGroundTruth:
    def test_exact_person_count(self):
        _records, persons = generate(n_persons=77, seed=5)
        assert len(persons) == 77

    def test_every_record_has_person(self):
        records, persons = generate(n_persons=60, seed=5)
        person_ids = {person.person_id for person in persons}
        for record in records:
            assert record.person_id in person_ids

    def test_one_to_eight_reports_per_person(self):
        records, persons = generate(n_persons=200, seed=7)
        counts = Counter(record.person_id for record in records)
        assert set(counts.values()) <= set(range(1, 9))
        # the distribution must be skewed toward few reports
        assert counts.most_common(1)[0][1] <= 8
        singles = sum(1 for count in counts.values() if count <= 2)
        assert singles > len(persons) * 0.5

    def test_book_ids_unique_and_sequential_base(self):
        records, _ = generate(n_persons=30, seed=5)
        ids = [record.book_id for record in records]
        assert len(ids) == len(set(ids))
        assert min(ids) >= 1_000_000

    def test_families_share_surname_pool(self):
        _records, persons = generate(n_persons=80, seed=9)
        by_family = {}
        for person in persons:
            by_family.setdefault(person.family_id, []).append(person)
        multi = [members for members in by_family.values() if len(members) > 2]
        assert multi, "expected at least one family with children"
        for members in multi:
            assert len({person.last for person in members}) == 1

    def test_children_carry_parent_names(self):
        _records, persons = generate(n_persons=100, seed=9)
        by_family = {}
        for person in persons:
            by_family.setdefault(person.family_id, []).append(person)
        for members in by_family.values():
            if len(members) < 3:
                continue
            father = members[0]
            children = members[2:]
            for child in children:
                assert child.father_first == father.first
                assert child.family_id == father.family_id


class TestReportNoise:
    def test_report_values_drawn_from_person_variants(self):
        records, persons = generate(n_persons=50, seed=11, p_typo=0.0)
        person_by_id = {person.person_id: person for person in persons}
        for record in records:
            person = person_by_id[record.person_id]
            for name in record.first:
                assert name in person.first
            for name in record.last:
                assert name in person.last

    def test_typo_rate_bounded(self):
        records, persons = generate(n_persons=150, seed=13, p_typo=0.05)
        person_by_id = {person.person_id: person for person in persons}
        total = 0
        corrupted = 0
        for record in records:
            person = person_by_id[record.person_id]
            for name in record.last:
                total += 1
                if name not in person.last:
                    corrupted += 1
        assert total > 0
        assert corrupted / total < 0.15

    def test_gender_never_wrong(self):
        records, persons = generate(n_persons=60, seed=15)
        person_by_id = {person.person_id: person for person in persons}
        for record in records:
            if record.gender is not None:
                assert record.gender is person_by_id[record.person_id].gender

    def test_birth_year_slips_small(self):
        records, persons = generate(n_persons=150, seed=17)
        person_by_id = {person.person_id: person for person in persons}
        for record in records:
            if record.birth_year is not None:
                truth = person_by_id[record.person_id].birth_year
                assert abs(record.birth_year - truth) <= 2

    def test_sources_mixed(self):
        records, _ = generate(n_persons=200, seed=19)
        kinds = Counter(record.source.kind for record in records)
        assert kinds[SourceKind.TESTIMONY] > 0
        assert kinds[SourceKind.LIST] > 0

    def test_repeat_submitter_produces_same_source_true_pairs(self):
        records, _ = generate(n_persons=300, seed=21, p_repeat_submitter=0.3)
        by_person = {}
        for record in records:
            by_person.setdefault(record.person_id, []).append(record)
        shared = 0
        for reports in by_person.values():
            keys = [report.source.key for report in reports]
            if len(keys) != len(set(keys)):
                shared += 1
        assert shared > 0


class TestMVSubmitter:
    def test_mv_reports_count(self):
        records, _ = generate(n_persons=100, seed=23, mv_reports=40)
        mv = [record for record in records if record.source.identifier == "MV"]
        assert len(mv) == 40

    def test_mv_fixed_pattern(self):
        """MV's pattern: first, last, father, birth place, death place."""
        records, _ = generate(n_persons=100, seed=23, mv_reports=40)
        for record in records:
            if record.source.identifier != "MV":
                continue
            assert record.first and record.last and record.father
            assert record.gender is None
            assert record.birth_year is None
            assert PlaceType.BIRTH in record.places
            # death place present unless the person has no death city
            assert record.profession is None

    def test_mv_about_distinct_persons(self):
        records, _ = generate(n_persons=100, seed=23, mv_reports=50)
        mv_persons = [
            record.person_id
            for record in records
            if record.source.identifier == "MV"
        ]
        assert len(mv_persons) == len(set(mv_persons))


class TestTypoHelper:
    def test_short_names_untouched(self):
        import random
        assert _typo("Al", random.Random(1)) == "Al"

    def test_typo_changes_but_stays_close(self):
        import random
        rng = random.Random(5)
        for _ in range(50):
            result = _typo("Rosenberg", rng)
            assert result != "" and abs(len(result) - 9) <= 1
