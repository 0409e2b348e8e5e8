"""Figure 12 — FP-Growth/FPMax run-time vs. minsup.

Regenerates the four series of Figure 12: two corpus sizes, each mined
with and without most-frequent-item pruning (0.3% here; the paper prunes
0.03% of a vastly larger vocabulary), across decreasing minsup.

Expected shape: runtime increases sharply (near-exponentially) as minsup
decreases, roughly linearly with dataset size, and pruning cuts it by a
large factor. We run laptop-scale corpora (the paper used 600k and 6.5M
records on a 24-core server); the curves' shape is the reproduction
target.

One more point sits under the table: the full-size ItalySet analogue
(``build_italy_set(scale=1.0)``, about 9.4K records; the paper's
ItalySet has 9,499) mined unpruned at minsup 5 — the setting Table 9
fixes, at the scale the paper ran it.
"""

from __future__ import annotations

import os
import time

import pytest
from bench_common import emit, emit_report

from repro.datagen import build_corpus, build_italy_set
from repro.evaluation import format_series
from repro.mining import maximal_frequent_itemsets, prune_frequent_items
from repro.obs import Tracer

MINSUPS = (5, 4, 3)
PRUNE_FRACTION = 0.003
#: The full-size ItalySet point: unpruned, at Table 9's minsup.
ITALY_MINSUP = 5


def _mine_times(transactions, minsups):
    # Warm up caches/allocator so the first measured point is not inflated.
    maximal_frequent_itemsets(transactions[:200], max(minsups))
    times = []
    for minsup in minsups:
        start = time.perf_counter()
        maximal_frequent_itemsets(transactions, minsup)
        times.append(time.perf_counter() - start)
    return times


@pytest.fixture(scope="module")
def corpora():
    small, _ = build_corpus(n_persons=700, seed=3, name="fig12-small")
    large, _ = build_corpus(n_persons=2100, seed=3, name="fig12-large")
    return small, large


def test_fig12_runtime_by_minsup(corpora, benchmark):
    small, large = corpora
    series = []
    for dataset in (large, small):
        bags = dataset.item_bags
        plain = list(bags.values())
        pruned_bags, _ = prune_frequent_items(bags, PRUNE_FRACTION)
        pruned = list(pruned_bags.values())
        label = f"{len(dataset) // 100 / 10:.1f}K"
        series.append((label, _mine_times(plain, MINSUPS)))
        series.append((f"{label},Prune", _mine_times(pruned, MINSUPS)))

    table = format_series(
        "minsup", list(MINSUPS), series,
        title=(f"Figure 12 analogue - FPMax runtime in seconds "
               f"({len(large)} vs {len(small)} records, prune={PRUNE_FRACTION:.1%})"),
    )
    italy, _ = build_italy_set(scale=1.0)
    italy_transactions = list(italy.item_bags.values())
    start = time.perf_counter()
    italy_mfis = maximal_frequent_itemsets(italy_transactions, ITALY_MINSUP)
    italy_seconds = time.perf_counter() - start
    table += (
        f"\n\nFull-size ItalySet ({len(italy)} records), unpruned, "
        f"minsup {ITALY_MINSUP}: {italy_seconds:.3f} s, "
        f"{len(italy_mfis)} MFIs"
    )
    emit("fig12_runtime", table)

    large_plain = series[0][1]
    large_pruned = series[1][1]
    small_plain = series[2][1]

    # Shape 1: runtime grows as minsup decreases — strictly from the
    # easiest to the hardest setting in every series (intermediate
    # points may wobble by scheduler noise on the fast pruned runs).
    for _name, times in series:
        assert times[-1] > times[0]
    # Shape 2: pruning helps substantially at the hardest setting.
    assert large_pruned[-1] < large_plain[-1] * 0.6
    # Shape 3: the larger corpus is slower than the smaller one.
    assert large_plain[-1] > small_plain[-1]

    # Persist a traced mining pass in the CLI's run-report schema, so
    # benchmark-tree and `repro profile` numbers are comparable.
    tracer = Tracer()
    maximal_frequent_itemsets(
        list(small.item_bags.values()), MINSUPS[-1], tracer=tracer
    )
    # Worker and CPU counts tell reports from different machines apart:
    # a 1-worker time from a 24-core box and one from a laptop are
    # different experiments.
    emit_report(
        "fig12_mining", tracer,
        config={"label": f"FPMax minsup={MINSUPS[-1]}"},
        corpus={"name": small.name, "n_records": len(small)},
        parallel={"workers": 1, "cpu_count": os.cpu_count()},
    )

    # Time one representative kernel for pytest-benchmark.
    benchmark(maximal_frequent_itemsets, list(small.item_bags.values()), 5)
