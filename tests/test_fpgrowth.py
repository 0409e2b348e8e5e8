"""Tests for FP-Growth and FPMax, including a brute-force oracle."""

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.fpgrowth import (
    _bin_popcount,
    _columns,
    _is_single_path,
    _MFIStore,
    _prefix_nodes,
    _project,
    frequent_itemsets,
    maximal_frequent_itemsets,
    maximal_via_filter,
)
from repro.resilience.budgets import BudgetMeter, StageBudget

UNIVERSE = list("abcdefg")


def brute_frequent(transactions, minsup):
    """All frequent itemsets by exhaustive enumeration."""
    frequent = {}
    for size in range(1, len(UNIVERSE) + 1):
        for combo in itertools.combinations(UNIVERSE, size):
            itemset = frozenset(combo)
            support = sum(1 for t in transactions if itemset <= t)
            if support >= minsup:
                frequent[itemset] = support
    return frequent


def brute_maximal(transactions, minsup):
    frequent = brute_frequent(transactions, minsup)
    return {
        itemset: support
        for itemset, support in frequent.items()
        if not any(itemset < other for other in frequent)
    }


transactions_strategy = st.lists(
    st.sets(st.sampled_from(UNIVERSE), min_size=1, max_size=5),
    min_size=1,
    max_size=25,
)


class TestFrequentItemsets:
    def test_paper_example(self):
        """The Table 2 example: {F Yitzhak, L Postel, G 0} at minsup=2."""
        transactions = [
            {"YB 1927", "F Avraham", "L Kesler"},
            {"F Avraham", "L Apoteker", "G 0"},
            {"F Yitzhak", "F Avram", "L Postel", "G 0"},
            {"F Yitzhak", "L Postel", "G 0"},
        ]
        mfis = {
            m.items: m.support
            for m in maximal_frequent_itemsets(transactions, minsup=2)
        }
        target = frozenset({"F Yitzhak", "L Postel", "G 0"})
        assert mfis.get(target) == 2

    def test_single_transaction(self):
        result = frequent_itemsets([{"a", "b"}], minsup=1)
        found = {m.items for m in result}
        assert frozenset({"a", "b"}) in found
        assert frozenset({"a"}) in found

    def test_minsup_above_everything(self):
        assert frequent_itemsets([{"a"}, {"b"}], minsup=3) == []

    def test_invalid_minsup(self):
        with pytest.raises(ValueError):
            frequent_itemsets([{"a"}], minsup=0)

    def test_supports_correct_small(self):
        transactions = [{"a", "b"}, {"a"}, {"a", "b", "c"}]
        result = {m.items: m.support for m in frequent_itemsets(transactions, 2)}
        assert result[frozenset({"a"})] == 3
        assert result[frozenset({"a", "b"})] == 2
        assert frozenset({"c"}) not in result

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=6))
    def test_matches_brute_force(self, transactions, minsup):
        expected = brute_frequent(transactions, minsup)
        got = {m.items: m.support for m in frequent_itemsets(transactions, minsup)}
        assert got == expected


class TestMaximalItemsets:
    def test_simple_maximality(self):
        transactions = [{"a", "b", "c"}, {"a", "b", "c"}, {"a", "b"}]
        mfis = {m.items for m in maximal_frequent_itemsets(transactions, 2)}
        assert mfis == {frozenset({"a", "b", "c"})}

    def test_two_incomparable_mfis(self):
        transactions = [{"a", "b"}, {"a", "b"}, {"c", "d"}, {"c", "d"}]
        mfis = {m.items for m in maximal_frequent_itemsets(transactions, 2)}
        assert mfis == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_no_mfi_is_subset_of_another(self):
        rng = random.Random(3)
        transactions = [
            set(rng.sample(UNIVERSE, rng.randint(1, 5))) for _ in range(40)
        ]
        mfis = [m.items for m in maximal_frequent_itemsets(transactions, 3)]
        for a in mfis:
            for b in mfis:
                if a is not b:
                    assert not a < b

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=6))
    def test_matches_brute_force(self, transactions, minsup):
        expected = brute_maximal(transactions, minsup)
        got = {
            m.items: m.support
            for m in maximal_frequent_itemsets(transactions, minsup)
        }
        assert got == expected

    @settings(max_examples=20, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=4))
    def test_agrees_with_filter_implementation(self, transactions, minsup):
        fast = {m.items: m.support for m in maximal_frequent_itemsets(transactions, minsup)}
        slow = {m.items: m.support for m in maximal_via_filter(transactions, minsup)}
        assert fast == slow

    def test_empty_transactions(self):
        assert maximal_frequent_itemsets([], minsup=2) == []

    def test_itemset_len(self):
        result = maximal_frequent_itemsets([{"a", "b"}, {"a", "b"}], 2)
        assert len(result) == 1
        assert len(result[0]) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        transactions_strategy,
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_transaction_order_does_not_reach_the_output(
        self, transactions, minsup, rng
    ):
        """Tids number the transactions in list order; permuting the
        list renumbers every tidset and must leave the MFIs, their
        supports and their discovery order as they were."""
        shuffled = list(transactions)
        rng.shuffle(shuffled)
        mined = [
            [(m.items, m.support) for m in maximal_frequent_itemsets(order, minsup)]
            for order in (transactions, shuffled)
        ]
        assert mined[0] == mined[1]


def sample_columns():
    """Three transactions sharing prefixes (items already ordered)."""
    return _columns([[0, 1, 2], [0, 1], [0, 3]], 4)


class TestColumns:
    """The root database: one tidset per item, bit t for transaction t."""

    def test_empty(self):
        assert _columns([], 0) == []
        assert _prefix_nodes([]) == 0

    def test_prefix_sharing(self):
        # An FP-tree of the sample has nodes 0, 0-1, 0-1-2 and 0-3.
        assert _prefix_nodes([[0, 1, 2], [0, 1], [0, 3]]) == 4
        assert _prefix_nodes([[0, 3], [], [0, 1, 2], [0, 1], [0, 1]]) == 4

    def test_item_support(self):
        assert [support for _, support, _ in sample_columns()] == [3, 2, 1, 1]

    def test_multiplicity(self):
        assert _columns([[0, 1]] * 5, 2) == [(0, 5, 0b11111), (1, 5, 0b11111)]

    def test_tidsets_mark_every_holder(self):
        columns = _columns([[0, 1], [1, 2], [2]], 3)
        assert [tids for _, _, tids in columns] == [0b001, 0b011, 0b110]


class TestProject:
    """A projection is the conditional FP-tree of the item's prefix paths."""

    def test_paths(self):
        # Item 1's one prefix path is [0] with count 2.
        assert _project(sample_columns(), 1, 1) == [(0, 2, 0b011)]

    def test_paths_for_leaf(self):
        assert _project(sample_columns(), 2, 1) == [(0, 1, 0b001), (1, 1, 0b001)]

    def test_top_level_item_empty_path(self):
        assert _project(sample_columns(), 0, 1) == []

    def test_filters_below_minsup(self):
        # Item 2's base holds item 0 three times, item 1 only twice.
        columns = _columns([[0, 1, 2], [0, 1, 2], [0, 2]], 3)
        assert _project(columns, 2, 3) == [(0, 3, 0b111)]

    def test_keeps_global_order(self):
        columns = _columns([[0, 2, 3], [2, 3]], 4)
        assert [item for item, _, _ in _project(columns, 3, 1)] == [0, 2]

    def test_empty_base(self):
        columns = _columns([[0], [1]], 2)
        assert _project(columns, 1, 1) == []


class TestSinglePath:
    """A database is one FP-tree chain iff each tidset nests in the last."""

    def test_chain_detected(self):
        assert _is_single_path(_columns([[0, 1, 2], [0, 1]], 3))

    def test_branching_is_not_a_chain(self):
        assert not _is_single_path(sample_columns())

    def test_nested_but_out_of_order_is_not_a_chain(self):
        # Item 1 holds item 0's transaction and one more: two branches.
        assert not _is_single_path(_columns([[0, 1], [1]], 2))

    def test_empty_tree(self):
        assert _is_single_path([])


class TestPopcount:
    """``bin(v).count("1")`` stands in for ``int.bit_count`` before 3.10."""

    VALUES = [
        0,
        1,
        *(1 << k for k in (1, 29, 30, 63, 64, 9428)),
        (1 << 9429) - 1,
        random.Random(7).getrandbits(9429) | 1 << 9428,
    ]

    def test_fallback_counts_set_bits(self):
        assert _bin_popcount(0) == 0
        for k in (1, 30, 64, 9428):
            assert _bin_popcount(1 << k) == 1
            assert _bin_popcount((1 << k) - 1) == k

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="int.bit_count is 3.10+")
    def test_fallback_matches_int_bit_count(self):
        for value in self.VALUES:
            assert _bin_popcount(value) == value.bit_count()


item_ids = st.frozensets(st.integers(min_value=0, max_value=9), max_size=6)
store_ops = st.lists(
    st.tuples(st.sampled_from(["add", "query"]), item_ids), max_size=40
)


class TestMFIStore:
    """The posting-bitset store answers exactly the brute-force question."""

    @settings(max_examples=200, deadline=None)
    @given(store_ops)
    def test_is_subsumed_matches_brute_force(self, ops):
        store = _MFIStore()
        for op, items in ops:
            if op == "add":
                store.add(items, len(store.itemsets) + 1)
                continue
            expected = any(items <= kept for kept, _ in store.itemsets)
            assert store.is_subsumed(items) == expected
        # The empty candidate is subsumed iff the store holds any MFI.
        assert store.is_subsumed(frozenset()) == bool(store.itemsets)

    def test_empty_store_subsumes_nothing(self):
        store = _MFIStore()
        assert not store.is_subsumed(frozenset())
        assert not store.is_subsumed(frozenset({0}))

    def test_empty_mfi_subsumes_only_the_empty_candidate(self):
        store = _MFIStore()
        store.add(frozenset(), 3)
        assert store.is_subsumed(frozenset())
        assert not store.is_subsumed(frozenset({1}))


def _budgeted(transactions, minsup, iterations):
    meter = BudgetMeter(StageBudget(max_iterations=iterations))
    mined = maximal_frequent_itemsets(transactions, minsup, budget=meter)
    return [(m.items, m.support) for m in mined], meter.degraded


class TestBudgetPrefix:
    """An iteration budget cuts the serial discovery order, nothing else."""

    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=4))
    def test_budgeted_lists_are_growing_prefixes(self, transactions, minsup):
        full = [
            (m.items, m.support)
            for m in maximal_frequent_itemsets(transactions, minsup)
        ]
        previous = 0
        iterations = 1
        while True:
            cut, degraded = _budgeted(transactions, minsup, iterations)
            assert cut == full[: len(cut)]
            assert len(cut) >= previous
            previous = len(cut)
            if not degraded:
                break
            iterations += 1
        # The first budget the search fits in returns the whole list.
        assert cut == full
