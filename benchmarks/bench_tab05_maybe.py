"""Table 5 — classifier quality under the three Maybe treatments.

The expert tags include ~6% Maybe pairs; the paper compares training
with Maybe:=No, omitting Maybe, and keeping Maybe as a third class to
identify at run time. Expected shape: accuracy stable around a high
level across all three, with a slight edge to the Maybe-omitted model.
"""

from __future__ import annotations

from bench_common import emit

from repro.classify import ADTreeLearner, OneVsRestADTree, evaluate_model
from repro.classify.training import pair_features, train_test_split
from repro.datagen import Tag, simplify_tags
from repro.evaluation import format_table


def _split(pairs_labels, seed=19):
    return train_test_split(sorted(pairs_labels.items()), 0.3, seed=seed)


def _accuracy_binary(dataset, labeled, learner):
    train, test = _split(labeled)
    model = learner.fit(
        pair_features(dataset, [p for p, _ in train]),
        [label for _, label in train],
    )
    result = evaluate_model(
        model,
        pair_features(dataset, [p for p, _ in test]).vectors(),
        [label for _, label in test],
    )
    return result.accuracy, len(labeled)


def test_tab05_maybe_treatments(italy, italy_tagged, benchmark):
    dataset, _persons = italy
    learner = ADTreeLearner(n_rounds=10)

    # Condition 1: Maybe := No.
    as_no = simplify_tags(italy_tagged, maybe_as=False)
    accuracy_no, n_no = _accuracy_binary(dataset, as_no, learner)

    # Condition 2: Maybe omitted.
    omitted = simplify_tags(italy_tagged, maybe_as=None)
    accuracy_omitted, n_omitted = benchmark(
        _accuracy_binary, dataset, omitted, learner
    )

    # Condition 3: identify Maybe as its own class (one-vs-rest).
    three_class = {
        entry.pair: (
            "maybe" if entry.tag is Tag.MAYBE
            else ("yes" if entry.label else "no")
        )
        for entry in italy_tagged
    }
    train, test = _split(three_class)
    ovr = OneVsRestADTree(learner).fit(
        pair_features(dataset, [p for p, _ in train]),
        [label for _, label in train],
    )
    accuracy_three = ovr.accuracy(
        pair_features(dataset, [p for p, _ in test]).vectors(),
        [label for _, label in test],
    )

    rows = [
        ["Maybe := No", n_no, f"{accuracy_no:.1%}"],
        ["Maybe values omitted", n_omitted, f"{accuracy_omitted:.1%}"],
        ["Identify Maybe values", len(three_class), f"{accuracy_three:.1%}"],
    ]
    table = format_table(
        ["Condition", "N", "Accuracy"], rows,
        title="Table 5 analogue - classifier quality vs Maybe handling",
    )
    emit("tab05_maybe", table)

    n_maybe = sum(1 for entry in italy_tagged if entry.tag is Tag.MAYBE)
    assert n_maybe > 0

    # Shape: all accuracies high and within a few points of each other;
    # omitting Maybe is at least as good as folding it into No.
    assert accuracy_no > 0.85
    assert accuracy_omitted > 0.85
    assert accuracy_three > 0.80
    assert accuracy_omitted >= accuracy_no - 0.01
    assert abs(accuracy_omitted - accuracy_no) < 0.08
