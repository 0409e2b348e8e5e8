"""Golden-fixture regression suite for the FPMax miner.

``tests/fixtures/golden_mfi/`` pins the MFI lists — sets, supports and
discovery order — that ``maximal_frequent_itemsets`` returned when the
fixtures were last regenerated (see ``tools/golden_mfi.py``): a seeded
corpus of about 300 records unpruned and pruned at minsup 5..2, the same
corpus under iteration budgets that cut the search part-way, and the
sha256 of the ``italy_samesrc`` workload's first-level mine. The miner
runs serially under every executor and must reproduce each list exactly.

Intentional changes regenerate with::

    PYTHONPATH=src python -m tools.golden_mfi --write
"""

from __future__ import annotations

import pytest

from repro.mining.fpgrowth import maximal_frequent_itemsets
from repro.obs.tracer import Tracer
from tools.golden_mfi import (
    CASES,
    FIXTURE_DIR,
    ITALY_MINSUP,
    ITALY_SHA256,
    VOCABULARY_TXT,
    case_transactions,
    golden_item_bags,
    italy_digest,
    italy_transactions,
    load_case,
    load_italy_digest,
    load_vocabulary,
    mine_case,
    vocabulary,
)

BUDGETED = [name for name, (_m, _p, budget) in CASES.items() if budget is not None]


@pytest.fixture(scope="module")
def item_bags():
    return golden_item_bags()


@pytest.fixture(scope="module")
def ids(item_bags):
    names = vocabulary(item_bags)
    return {name: index for index, name in enumerate(names)}


class TestFixtureShape:
    def test_fixtures_are_committed(self):
        assert VOCABULARY_TXT.is_file(), "run tools/golden_mfi.py --write"
        assert ITALY_SHA256.is_file(), "run tools/golden_mfi.py --write"
        for name in CASES:
            assert (FIXTURE_DIR / f"{name}.txt").is_file(), name

    def test_vocabulary_is_reproducible(self, item_bags):
        assert load_vocabulary() == vocabulary(item_bags)

    def test_corpus_size(self, item_bags):
        assert 250 <= len(item_bags) <= 350

    @pytest.mark.parametrize("name", BUDGETED)
    def test_budget_cuts_mid_search(self, name):
        minsup, pruned, _budget = CASES[name]
        full = next(
            other
            for other, (m, p, budget) in CASES.items()
            if (m, p, budget) == (minsup, pruned, None)
        )
        cut = load_case(name)
        assert 0 < len(cut) < len(load_case(full))


class TestGoldenMFIs:
    @pytest.mark.parametrize("name", list(CASES))
    def test_serial_matches_fixture_in_order(self, item_bags, ids, name):
        assert mine_case(item_bags, name, ids) == load_case(name)

    def test_italy_samesrc_digest(self):
        count, digest = load_italy_digest()
        assert count == 3977
        assert italy_digest() == (count, digest)


def tree_nodes_gauge(transactions, minsup):
    tracer = Tracer()
    maximal_frequent_itemsets(transactions, minsup, tracer=tracer)
    tracer.close()
    return tracer.aggregate.gauges["fpgrowth.tree_nodes"]


class TestTreeNodesGauge:
    """``fpgrowth.tree_nodes`` keeps the node count of the FP-tree of the
    encoded transactions, the values the pointer-tree miner reported."""

    @pytest.mark.parametrize("minsup, nodes", [(2, 2493), (5, 1502)])
    def test_golden_corpus_unpruned(self, item_bags, minsup, nodes):
        transactions = case_transactions(item_bags, pruned=False)
        assert tree_nodes_gauge(transactions, minsup) == nodes

    def test_italy_samesrc(self):
        assert tree_nodes_gauge(italy_transactions(), ITALY_MINSUP) == 17342
