"""Ablation — ADTree vs. a standard CART decision tree.

The paper justifies ADTrees by robustness to missing values on the
schema-diverse multi-source data (Section 4.2). This ablation trains
both classifiers on the same tagged pairs and evaluates them twice:

* on the ordinary test split;
* on a *sparsified* test split where a fraction of each vector's
  features is blanked, simulating even sparser sources.

Expected shape: comparable accuracy on dense data; the ADTree degrades
more gracefully as features go missing.
"""

from __future__ import annotations

import random

from bench_common import emit

from repro.classify import ADTreeLearner, CartLearner, evaluate_model
from repro.classify.training import pair_features, train_test_split
from repro.datagen import simplify_tags
from repro.evaluation import format_table


def _sparsify(vectors, fraction, seed=5):
    rng = random.Random(seed)
    sparsified = []
    for vector in vectors:
        copy = dict(vector)
        present = [name for name, value in copy.items() if value is not None]
        n_blank = int(len(present) * fraction)
        for name in rng.sample(present, n_blank):
            copy[name] = None
        sparsified.append(copy)
    return sparsified


def test_ablation_adtree_vs_cart(italy, italy_tagged, benchmark):
    dataset, _persons = italy
    labeled = simplify_tags(italy_tagged, maybe_as=None)
    train, test = train_test_split(sorted(labeled.items()), 0.3, seed=3)
    train_x = pair_features(dataset, [p for p, _ in train]).vectors()
    train_y = [label for _, label in train]
    test_x = pair_features(dataset, [p for p, _ in test]).vectors()
    test_y = [label for _, label in test]

    adtree = benchmark.pedantic(
        ADTreeLearner(n_rounds=10).fit, args=(train_x, train_y),
        rounds=1, iterations=1,
    )
    cart = CartLearner(max_depth=8).fit(train_x, train_y)

    rows = []
    accuracies = {}
    for fraction in (0.0, 0.3, 0.6):
        eval_x = test_x if fraction == 0.0 else _sparsify(test_x, fraction)  # reprolint: disable=RL003 -- literal loop constant, not a computed score
        adtree_acc = evaluate_model(adtree, eval_x, test_y).accuracy
        cart_acc = evaluate_model(cart, eval_x, test_y).accuracy
        accuracies[fraction] = (adtree_acc, cart_acc)
        rows.append([f"{fraction:.0%}", f"{adtree_acc:.1%}", f"{cart_acc:.1%}"])

    table = format_table(
        ["features blanked", "ADTree accuracy", "CART accuracy"], rows,
        title="Ablation - ADTree vs CART under increasing sparsity",
    )
    emit("ablation_classifier", table)

    dense_ad, dense_cart = accuracies[0.0]
    sparse_ad, sparse_cart = accuracies[0.6]
    # Both competent when dense.
    assert dense_ad > 0.85
    assert dense_cart > 0.80
    # The ADTree's missing-value handling degrades no worse than CART's
    # forced-routing under heavy sparsity.
    assert (dense_ad - sparse_ad) <= (dense_cart - sparse_cart) + 0.03
    assert sparse_ad > 0.6
