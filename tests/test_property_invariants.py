"""Property-based invariants over the pipeline's core data structures."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.scoring import SparseNeighborhoodFilter, neighborhood_cap
from repro.core.resolution import PairEvidence, ResolutionResult, connected_components
from repro.mining.fpgrowth import maximal_frequent_itemsets
from repro.parallel import fixed_chunks, max_merge_into, partition_evenly
from repro.records.itembag import Item, ItemType
from repro.similarity.items import jaccard_items, soft_jaccard_items, weighted_jaccard_items

item_types = st.sampled_from(
    [ItemType.FIRST_NAME, ItemType.LAST_NAME, ItemType.GENDER,
     ItemType.BIRTH_YEAR, ItemType.BIRTH_CITY]
)
items = st.builds(
    Item,
    item_types,
    st.sampled_from(["a", "b", "1920", "1921", "Foa", "Foy", "M", "F"]),
)
bags = st.frozensets(items, max_size=8)


class TestItemSimilarityInvariants:
    @given(bags, bags)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        value = jaccard_items(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_items(b, a)

    @given(bags)
    def test_jaccard_identity(self, a):
        assert jaccard_items(a, a) == 1.0

    @given(bags, bags)
    def test_weighted_jaccard_bounds(self, a, b):
        weights = {ItemType.FIRST_NAME: 2.0, ItemType.GENDER: 0.5}
        value = weighted_jaccard_items(a, b, weights)
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(bags, bags)
    def test_soft_jaccard_dominates_jaccard(self, a, b):
        assert soft_jaccard_items(a, b) >= jaccard_items(a, b) - 1e-9

    @given(bags, bags)
    def test_soft_jaccard_bounds(self, a, b):
        assert 0.0 <= soft_jaccard_items(a, b) <= 1.0 + 1e-9


transactions = st.lists(
    st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4),
    min_size=0,
    max_size=20,
)


class TestMiningInvariants:
    @settings(max_examples=40, deadline=None)
    @given(transactions, st.integers(min_value=1, max_value=5))
    def test_mfi_support_and_maximality(self, txns, minsup):
        mfis = maximal_frequent_itemsets(txns, minsup)
        itemsets = [m.items for m in mfis]
        for mined in mfis:
            # reported support equals actual support
            actual = sum(1 for t in txns if mined.items <= t)
            assert actual == mined.support
            assert actual >= minsup
        # pairwise incomparable
        for a in itemsets:
            for b in itemsets:
                if a is not b:
                    assert not a <= b or a == b
        assert len(set(itemsets)) == len(itemsets)


class TestSNInvariants:
    blocks = st.lists(
        st.tuples(
            st.frozensets(st.integers(0, 12), min_size=2, max_size=5),
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        ),
        max_size=12,
    )

    @settings(max_examples=50, deadline=None)
    @given(blocks, st.floats(min_value=0.5, max_value=4.0), st.integers(2, 5))
    def test_neighborhoods_never_exceed_cap(self, raw_blocks, ng, minsup):
        sn = SparseNeighborhoodFilter(ng=ng, mode="skip")
        scored = [(records, frozenset(), score) for records, score in raw_blocks]
        admitted = sn.filter_blocks(scored, minsup)
        cap = neighborhood_cap(ng, minsup)
        for neighbors in sn.neighbors.values():
            assert len(neighbors) <= cap
        # admitted blocks are a subset of the input
        input_sets = {records for records, _ in raw_blocks}
        for records, _key, _score in admitted:
            assert records in input_sets


class TestResolutionInvariants:
    evidence = st.lists(
        st.builds(
            PairEvidence,
            st.tuples(st.integers(0, 10), st.integers(11, 20)),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.one_of(
                st.none(),
                st.floats(min_value=-3, max_value=3, allow_nan=False),
            ),
        ),
        max_size=25,
        unique_by=lambda e: e.pair,
    )

    @given(evidence, st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_resolve_subset_and_threshold(self, entries, certainty):
        result = ResolutionResult(entries)
        crisp = result.resolve(certainty)
        assert set(crisp) <= result.pairs
        for pair in crisp:
            assert result[pair].ranking_key > certainty

    @given(evidence)
    def test_entities_partition(self, entries):
        result = ResolutionResult(entries)
        clusters = result.entities(certainty=-10.0, include_singletons=True)
        seen = set()
        for cluster in clusters:
            assert not (cluster & seen)
            seen |= cluster

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=30,
        )
    )
    def test_connected_components_cover_all_nodes(self, pairs):
        components = connected_components(pairs)
        nodes = {node for pair in pairs for node in pair}
        covered = set().union(*components) if components else set()
        assert covered == nodes


# -- parallel layer: chunk plans are partitions, merges ignore order ----------

work_items = st.lists(st.integers(-50, 50), max_size=40)
scored_chunks = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, 10),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=8,
    ),
    max_size=6,
)
seeds = st.integers(0, 2**16)


def _shuffled(chunks, seed):
    """A seeded permutation of the chunk list and of each chunk."""
    rng = random.Random(seed)
    permuted = [list(chunk) for chunk in chunks]
    rng.shuffle(permuted)
    for chunk in permuted:
        rng.shuffle(chunk)
    return permuted


class TestChunkingInvariants:
    @given(work_items, st.integers(1, 8))
    def test_partition_evenly_is_a_partition(self, items, n_chunks):
        chunks = partition_evenly(items, n_chunks)
        # No pair lost, none duplicated, order preserved.
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunks)  # no empty chunks
        assert len(chunks) == min(n_chunks, len(items))
        if chunks:
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1

    @given(work_items, st.integers(1, 8))
    def test_fixed_chunks_is_a_partition(self, items, chunk_size):
        chunks = fixed_chunks(items, chunk_size)
        assert [x for chunk in chunks for x in chunk] == items
        assert all(len(chunk) <= chunk_size for chunk in chunks)
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])


class TestMergeInvariants:
    @given(scored_chunks, seeds)
    def test_max_merge_into_ignores_call_grouping(self, chunks, seed):
        flat = [entry for chunk in chunks for entry in chunk]
        one_call: dict = {}
        max_merge_into(one_call, flat)
        incremental: dict = {}
        for chunk in _shuffled(chunks, seed):
            assert max_merge_into(incremental, chunk) is incremental
        assert incremental == one_call
        assert set(one_call) == {key for key, _ in flat}
        for key, score in one_call.items():
            assert score == max(s for k, s in flat if k == key)
