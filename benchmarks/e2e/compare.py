"""Compare two ``run_e2e.py --json`` files, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py parent.json change.json

For every workload and metric in both files it prints each side's
median and quartiles, the ratio B/A, the regression bound from
``BENCHMARK.json`` and a verdict:

* ``regression`` — B is worse than A by more than the bound;
* ``improved`` — B is better by more than the run-to-run spread (which
  needs more than one sample a side);
* ``unresolved`` — the spread (interquartile distance over the median,
  the wider of the two sides) exceeds the bound, so the bound cannot be
  checked; unless every B sample beats every A sample, which counts as
  ``improved``;
* ``ok`` — none of the above;
* ``DRIFT`` — a quality metric, ``failed_frac`` or the ranked output's
  hash differs at all: these are deterministic for a seed, so any
  difference is a behaviour change, not noise.

For quality this is stricter than the bound ``BENCHMARK.json`` gives
(and this table prints): that bound is applied to medians over several
seeds, so it has to leave room for quality moving from seed to seed,
while both files here hold the same seed. Metrics without a bound (the
per-layer ones) get ``-``. Exits 1 when any line reads ``regression``
or ``DRIFT``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

#: Deterministic for a seed: any difference is drift.
EXACT = ("precision", "recall", "f1", "failed_frac")


def _spread(entry: Mapping[str, Any]) -> float:
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / abs(median) if median else 0.0


def verdict(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    bound: Optional[float],
    better: str,
) -> str:
    """The comparison verdict for one metric (see the module docstring)."""
    if bound is None or not a["median"]:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regression"
    # One sample a side says nothing about run-to-run spread.
    if -worse > spread and min(a["n"], b["n"]) > 1:
        return "improved"
    return "ok"


def compare(
    a: Mapping[str, Any], b: Mapping[str, Any], spec: Mapping[str, Any]
) -> List[List[str]]:
    """Table rows: workload, metric, unit, A, B, ratio, bound, verdict."""
    declared: Dict[str, Mapping[str, Any]] = {
        metric["name"]: metric for metric in spec["end_to_end"] + spec["per_layer"]
    }
    rows: List[List[str]] = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            rows.append([workload, "(missing in B)", "", "", "", "", "", "DRIFT"])
            continue
        same = side_a["ranked_sha256"] == side_b["ranked_sha256"]
        rows.append([
            workload, "ranked_sha256", "", str(side_a["ranked_sha256"])[:16],
            str(side_b["ranked_sha256"])[:16], "", "", "ok" if same else "DRIFT",
        ])
        for name, entry_a in side_a["metrics"].items():
            entry_b = side_b["metrics"].get(name)
            if entry_b is None:
                continue
            spec_entry = declared.get(name, {})
            limit = spec_entry.get("bound")
            bound = f"{limit:g}" if limit is not None else "exact" if name in EXACT else "-"
            if name in EXACT:
                outcome = "ok" if entry_a["median"] == entry_b["median"] else "DRIFT"
            else:
                outcome = verdict(entry_a, entry_b, limit, spec_entry.get("better", "lower"))
            ratio = f"{entry_b['median'] / entry_a['median']:.4f}" if entry_a["median"] else "-"
            rows.append([
                workload, name, entry_a["unit"], _cell(entry_a), _cell(entry_b),
                ratio, bound, outcome,
            ])
    return rows


def _cell(entry: Mapping[str, Any]) -> str:
    return f"{entry['median']:.6g} [{entry['q1']:.4g}, {entry['q3']:.4g}] n={entry['n']}"


def render(rows: Sequence[Sequence[str]]) -> str:
    header = ["workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
              "B/A", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in [header, *rows]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline (parent) --json output")
    parser.add_argument("b", type=Path, help="candidate (change) --json output")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(
        json.loads(args.a.read_text(encoding="utf-8")),
        json.loads(args.b.read_text(encoding="utf-8")),
        spec,
    )
    print(render(rows))
    return 1 if any(row[-1] in ("regression", "DRIFT") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
