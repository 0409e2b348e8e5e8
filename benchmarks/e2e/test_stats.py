"""Unit tests for the benchmark's order statistics and compare verdicts."""

from __future__ import annotations

import random
import statistics

import pytest
from compare import verdict
from stats import summarize, tail_percentile


def test_summary_matches_statistics_quantiles():
    samples = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    summary = summarize(samples)
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    assert (summary.q1, summary.median, summary.q3, summary.n) == (q1, q2, q3, 8)


def test_summary_of_one_sample():
    summary = summarize([2.5])
    assert (summary.median, summary.q1, summary.q3, summary.n) == (2.5, 2.5, 2.5, 1)


def test_summary_needs_a_sample():
    with pytest.raises(ValueError):
        summarize([])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(value) for value in range(1, 1001)]
    random.Random(3).shuffle(samples)
    tail = tail_percentile(samples)
    assert (tail.pct, tail.value, tail.n, tail.beyond) == (99.0, 990.0, 1000, 10)


def test_tail_steps_down_when_the_top_is_thin():
    # 999 samples: p99 sits at rank 990 with only 9 beyond it.
    tail = tail_percentile([float(value) for value in range(1, 1000)])
    assert (tail.pct, tail.value, tail.beyond) == (95.0, 950.0, 49)


def test_tail_smallest_backed_percentile_and_refusal():
    assert tail_percentile([float(value) for value in range(20)]).pct == 50
    assert tail_percentile([float(value) for value in range(19)]) is None


def _entry(samples):
    summary = summarize(samples)
    return {"median": summary.median, "q1": summary.q1, "q3": summary.q3,
            "n": summary.n, "samples": samples}


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "ok"),
        ([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5], "lower", "regression"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "improved"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "regression"),
        ([10.0, 14.0, 7.0, 12.0], [10.5, 13.0, 8.0, 11.0], "lower", "unresolved"),
        ([10.0, 14.0, 7.0, 12.0], [3.0, 3.5, 2.5, 3.2], "lower", "improved"),
        ([10.0], [9.0], "lower", "ok"),
        ([10.0], [12.0], "lower", "regression"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert verdict(_entry(a), _entry(b), 0.1, better) == expected


def test_compare_without_bound_gives_no_verdict():
    assert verdict(_entry([1.0]), _entry([2.0]), None, "lower") == "-"
