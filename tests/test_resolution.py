"""Tests for ranked resolution and certainty queries."""

from __future__ import annotations

import dataclasses
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resolution import (
    PairEvidence,
    ResolutionResult,
    connected_components,
)
from repro.evaluation.goldstandard import GoldStandard


def evidence_set():
    return [
        PairEvidence((1, 2), similarity=0.9, confidence=2.0),
        PairEvidence((2, 3), similarity=0.6, confidence=0.5),
        PairEvidence((4, 5), similarity=0.8, confidence=-1.0),
        PairEvidence((6, 7), similarity=0.4),
    ]


class TestConnectedComponents:
    def test_chain_merges(self):
        components = connected_components([(1, 2), (2, 3)])
        assert components == [frozenset({1, 2, 3})]

    def test_separate_components(self):
        components = connected_components([(1, 2), (4, 5)])
        assert frozenset({1, 2}) in components
        assert frozenset({4, 5}) in components

    def test_seeds_add_singletons(self):
        components = connected_components([(1, 2)], seeds=[1, 2, 9])
        assert frozenset({9}) in components

    def test_empty(self):
        assert connected_components([]) == []

    def test_large_chain(self):
        pairs = [(i, i + 1) for i in range(1, 100)]
        components = connected_components(pairs)
        assert len(components) == 1
        assert len(components[0]) == 100


class TestResolutionResult:
    def test_rejects_uncanonical(self):
        with pytest.raises(ValueError):
            ResolutionResult([PairEvidence((2, 1), 0.5)])

    def test_container_protocol(self):
        result = ResolutionResult(evidence_set())
        assert len(result) == 4
        assert (1, 2) in result
        assert result[(1, 2)].similarity == 0.9

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12), st.integers(1, 12),
                st.floats(0.0, 1.0), st.booleans(),
            ).filter(lambda row: row[0] < row[1]),
            max_size=40,
        )
    )
    def test_columns_answer_as_a_dict_of_evidence(self, rows):
        """The columns and the pair-sorted row index give what a dict
        of the evidence gives: first-seen order, last value per pair, and
        the ranking by (descending key, pair)."""
        evidence = [
            PairEvidence((a, b), similarity, None if flag else similarity / 2, flag)
            for a, b, similarity, flag in rows
        ]
        reference = {entry.pair: entry for entry in evidence}
        result = ResolutionResult(evidence)
        assert len(result) == len(reference)
        assert list(result) == list(reference.values())
        assert result.pairs == frozenset(reference)
        for a in range(14):
            for b in range(a + 1, 14):
                assert ((a, b) in result) == ((a, b) in reference)
                if (a, b) in reference:
                    assert result[(a, b)] == reference[(a, b)]
        with pytest.raises(KeyError):
            result[(13, 14)]
        ranked = sorted(reference.values(), key=lambda e: (-e.ranking_key, e.pair))
        assert result.ranked() == ranked
        assert result.resolve(0.25) == [e.pair for e in ranked if e.ranking_key > 0.25]

    def test_ranking_key_prefers_confidence(self):
        with_confidence = PairEvidence((1, 2), 0.2, confidence=3.0)
        without = PairEvidence((3, 4), 0.9)
        assert with_confidence.ranking_key == 3.0
        assert without.ranking_key == 0.9

    def test_ranked_descending(self):
        result = ResolutionResult(evidence_set())
        keys = [evidence.ranking_key for evidence in result.ranked()]
        assert keys == sorted(keys, reverse=True)

    def test_top_k(self):
        result = ResolutionResult(evidence_set())
        top = result.top(2)
        assert len(top) == 2
        assert top[0].pair == (1, 2)
        with pytest.raises(ValueError):
            result.top(-1)

    def test_resolve_threshold(self):
        result = ResolutionResult(evidence_set())
        crisp = result.resolve(certainty=0.45)
        assert (1, 2) in crisp
        assert (2, 3) in crisp
        assert (4, 5) not in crisp  # confidence -1 ranks below threshold

    def test_resolve_monotone_in_certainty(self):
        result = ResolutionResult(evidence_set())
        sizes = [
            len(result.resolve(certainty=threshold))
            for threshold in (-2.0, 0.0, 0.5, 1.0, 3.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_entities_at_levels(self):
        result = ResolutionResult(evidence_set())
        loose = result.entities(certainty=-5.0)
        assert frozenset({1, 2, 3}) in loose
        tight = result.entities(certainty=1.0)
        assert frozenset({1, 2}) in tight
        assert not any(3 in entity for entity in tight)

    def test_entities_with_singletons(self):
        result = ResolutionResult(evidence_set())
        entities = result.entities(certainty=10.0, include_singletons=True)
        # every referenced record appears as its own singleton
        members = set().union(*entities)
        assert members == {1, 2, 3, 4, 5, 6, 7}

    def test_evaluate_and_sweep(self):
        result = ResolutionResult(evidence_set())
        gold = GoldStandard(frozenset({(1, 2), (4, 5)}))
        quality = result.evaluate(gold, certainty=0.0)
        assert quality.true_positives == 1  # (1,2); (4,5) filtered by confidence
        sweep = result.sweep(gold, [0.0, 1.0])
        assert len(sweep) == 2
        recalls = [q.recall for _, q in sweep]
        assert recalls == sorted(recalls, reverse=True)


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        result = ResolutionResult(evidence_set(), n_records=9)
        path = tmp_path / "resolution.json"
        result.to_json(path)
        loaded = ResolutionResult.from_json(path)
        assert loaded.n_records == 9
        assert loaded.pairs == result.pairs
        for evidence in result:
            restored = loaded[evidence.pair]
            assert restored.similarity == evidence.similarity
            assert restored.confidence == evidence.confidence
            assert restored.same_source == evidence.same_source

    def test_roundtrip_preserves_ranking(self, tmp_path):
        result = ResolutionResult(evidence_set())
        path = tmp_path / "r.json"
        result.to_json(path)
        loaded = ResolutionResult.from_json(path)
        assert [e.pair for e in loaded.ranked()] == [
            e.pair for e in result.ranked()
        ]


#: ``to_csv`` / ``to_json`` of ``evidence_set()`` with ``n_records=9``:
#: the ranked artifacts, pinned byte for byte.
EXPECTED_CSV = (
    b"book_id_a,book_id_b,similarity,confidence\r\n"
    b"1,2,0.9000,2.0000\r\n"
    b"2,3,0.6000,0.5000\r\n"
    b"6,7,0.4000,\r\n"
)


def _expected_json():
    entries = [
        ((1, 2), "0.9", "2.0"),
        ((2, 3), "0.6", "0.5"),
        ((6, 7), "0.4", "null"),
        ((4, 5), "0.8", "-1.0"),
    ]
    blocks = [
        "  {\n"
        f'   "pair": [\n    {a},\n    {b}\n   ],\n'
        f'   "similarity": {similarity},\n'
        f'   "confidence": {confidence},\n'
        '   "same_source": false\n'
        "  }"
        for (a, b), similarity, confidence in entries
    ]
    return (
        '{\n "n_records": 9,\n "degraded": false,\n "evidence": [\n'
        + ",\n".join(blocks)
        + "\n ]\n}"
    ).encode()


class TestSlottedEvidence:
    def test_pickle_round_trip(self):
        for evidence in evidence_set():
            restored = pickle.loads(pickle.dumps(evidence))
            assert restored == evidence
            assert hash(restored) == hash(evidence)

    def test_replace(self):
        evidence = PairEvidence((1, 2), similarity=0.9)
        changed = dataclasses.replace(evidence, confidence=1.5)
        assert changed == PairEvidence((1, 2), similarity=0.9, confidence=1.5)
        assert evidence.confidence is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            evidence.similarity = 0.1

    def test_eq_and_hash(self):
        first = PairEvidence((1, 2), similarity=0.9, same_source=True)
        second = PairEvidence((1, 2), similarity=0.9, same_source=True)
        assert first == second
        assert hash(first) == hash(second)
        assert first != dataclasses.replace(second, same_source=False)
        assert len({first, second}) == 1

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="slots need 3.10")
    def test_no_instance_dict(self):
        evidence = PairEvidence((1, 2), similarity=0.9)
        assert not hasattr(evidence, "__dict__")

    def test_serialized_bytes_unchanged(self, tmp_path):
        result = ResolutionResult(evidence_set(), n_records=9)
        result.to_csv(tmp_path / "ranked.csv")
        result.to_json(tmp_path / "resolution.json")
        assert (tmp_path / "ranked.csv").read_bytes() == EXPECTED_CSV
        assert (tmp_path / "resolution.json").read_bytes() == _expected_json()
