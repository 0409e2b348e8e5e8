"""Table 6 — classifier quality with and without the MV bulk submitter.

MV filed ~15% of the Italy records with one fixed five-field pattern;
the paper removes pairs involving MV records to avoid over-fitting and
observes a modest accuracy drop (96.5% -> 94.2%) plus a shift of the
learned tree away from father-name features.

Expected shape: accuracy drops a little without MV; both remain high.
"""

from __future__ import annotations

from bench_common import emit

from repro.classify import ADTreeLearner, evaluate_model
from repro.classify.training import pair_features, train_test_split
from repro.datagen import simplify_tags
from repro.evaluation import format_table


def _accuracy(dataset, labeled, seed=19):
    train, test = train_test_split(sorted(labeled.items()), 0.3, seed=seed)
    model = ADTreeLearner(n_rounds=10).fit(
        pair_features(dataset, [p for p, _ in train]),
        [label for _, label in train],
    )
    result = evaluate_model(
        model,
        pair_features(dataset, [p for p, _ in test]).vectors(),
        [label for _, label in test],
    )
    return result.accuracy, model


def test_tab06_mv_source(italy, italy_tagged, benchmark):
    dataset, _persons = italy
    labeled = simplify_tags(italy_tagged, maybe_as=None)

    mv_records = {
        record.book_id
        for record in dataset
        if record.source.identifier == "MV"
    }
    assert mv_records, "the Italy corpus must include the MV submitter"

    without_mv = {
        pair: label
        for pair, label in labeled.items()
        if not (pair[0] in mv_records or pair[1] in mv_records)
    }
    n_mv_pairs = len(labeled) - len(without_mv)
    assert n_mv_pairs > 0, "expected tagged pairs involving MV records"

    accuracy_with, model_with = benchmark(_accuracy, dataset, labeled)
    accuracy_without, model_without = _accuracy(dataset, without_mv)

    rows = [
        ["With MV", len(labeled), f"{accuracy_with:.1%}"],
        ["Without MV", len(without_mv), f"{accuracy_without:.1%}"],
    ]
    table = format_table(
        ["Condition", "N", "Accuracy"], rows,
        title=(f"Table 6 analogue - MV source effect "
               f"({len(mv_records)} MV records, {n_mv_pairs} MV pairs)"),
    )
    table += (
        f"\nfeatures (with MV):    {', '.join(model_with.features_used())}"
        f"\nfeatures (without MV): {', '.join(model_without.features_used())}"
    )
    emit("tab06_mv", table)

    # Shape: both models accurate; removing MV does not help.
    assert accuracy_with > 0.85
    assert accuracy_without > 0.80
    assert accuracy_with >= accuracy_without - 0.02
