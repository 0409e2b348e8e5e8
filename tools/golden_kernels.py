"""Golden-vector fixtures pinning the batch similarity kernels.

The batch kernels in ``repro.similarity.batch`` / ``repro.similarity
.features`` / ``repro.blocking.scoring`` promise *bit-identical* output
to their scalar references. ``tests/test_batch_kernels.py`` checks that
promise against the scalar code as it exists today; this module pins it
against the past as well: a committed corpus of record pairs with their
expected 48-column feature matrix and ranked similarity scores, so a
refactor that drifts either side (batch *or* scalar) by even one ULP
fails ``tests/test_golden_kernels.py`` with a per-feature diff.

Fixtures live in ``tests/fixtures/golden_kernels/``:

* ``features.csv`` — one row per pair: ``a,b`` then the 48 features in
  canonical order, floats serialized with ``repr`` (exact round-trip),
  missing features as empty cells;
* ``ranked_pairs.csv`` — the same pairs ranked by descending weighted
  similarity: ``rank,a,b`` then one column per entry of
  :data:`RANKED_COLUMNS` (scorers built by :func:`ranked_scorers`) — all three
  :class:`~repro.blocking.scoring.ScoringMethod` kernels, plus Eq.-1
  soft Jaccard under :data:`~repro.blocking.scoring.DEFAULT_EXPERT_WEIGHTS`
  (the ExpertSim-on-Expert-Weighting condition) without and with a
  gazetteer lookup.

Regenerate after an *intentional* change of kernel semantics with::

    PYTHONPATH=src python -m tools.golden_kernels --write

and review the fixture diff like any other behavior change.
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "golden_kernels"
FEATURES_CSV = FIXTURE_DIR / "features.csv"
RANKED_CSV = FIXTURE_DIR / "ranked_pairs.csv"

#: Corpus shape: large enough for every item type and name-noise mode
#: to appear, small enough to keep the fixtures reviewable.
N_PERSONS = 40
SEED = 97
MV_REPORTS = 6
N_PAIRS = 200

#: Strides over the sorted record ids; small strides hit same-person
#: report pairs, large ones hit unrelated records.
_STRIDES = (1, 2, 3, 5, 7, 11, 19, 31)

Pair = Tuple[int, int]

#: The score columns of ``ranked_pairs.csv``, in column order.
RANKED_COLUMNS = (
    "uniform", "weighted", "soft", "soft_weighted", "soft_geo",
)

#: ``(rank, a, b, *scores)`` with one score per :data:`RANKED_COLUMNS`.
RankedRow = Tuple[object, ...]


def golden_dataset():
    """The deterministic fixture corpus (seeded generator output)."""
    from repro.datagen.corpus import build_corpus

    dataset, _persons = build_corpus(
        n_persons=N_PERSONS,
        seed=SEED,
        mv_reports=MV_REPORTS,
        name="golden-kernels",
    )
    return dataset


def golden_pairs(dataset, count: int = N_PAIRS) -> List[Pair]:
    """``count`` canonical pairs mixing near and far record ids."""
    rids = sorted(dataset.record_ids)
    pairs: List[Pair] = []
    seen = set()
    for stride in _STRIDES:
        for i in range(len(rids) - stride):
            pair = (rids[i], rids[i + stride])
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
            if len(pairs) == count:
                return pairs
    return pairs


def compute_feature_rows(
    dataset, pairs: Sequence[Pair]
) -> List[Dict[str, object]]:
    """The expected feature matrix, via the batch extractor."""
    from repro.similarity.features import extract_features_batch

    return extract_features_batch(dataset, list(pairs))


def ranked_scorers():
    """One :class:`~repro.blocking.scoring.BlockScorer` per ranked column.

    ``soft_weighted`` is the ExpertSim-on-Expert-Weighting scorer the
    pipeline builds for ``expert_weighting=True, expert_sim=True``;
    ``soft_geo`` adds the in-repo gazetteer of every community, so the
    Eq.-1 Geo branch compares coordinates instead of exact names.
    """
    from repro.blocking.scoring import (
        DEFAULT_EXPERT_WEIGHTS,
        BlockScorer,
        ScoringMethod,
    )
    from repro.datagen import build_gazetteer

    weights = dict(DEFAULT_EXPERT_WEIGHTS)
    scorers = {
        "uniform": BlockScorer(method=ScoringMethod.UNIFORM),
        "weighted": BlockScorer(method=ScoringMethod.WEIGHTED),
        "soft": BlockScorer(method=ScoringMethod.EXPERT),
        "soft_weighted": BlockScorer(
            method=ScoringMethod.EXPERT, weights=weights
        ),
        "soft_geo": BlockScorer(
            method=ScoringMethod.EXPERT,
            weights=weights,
            geo_lookup=build_gazetteer().lookup,
        ),
    }
    return [scorers[column] for column in RANKED_COLUMNS]


def compute_ranked_rows(
    dataset, pairs: Sequence[Pair]
) -> List[RankedRow]:
    """``(rank, a, b, *scores)`` ranked by weighted desc."""
    from repro.similarity.interning import InternedCorpus

    corpus = InternedCorpus(dataset.item_bags)
    pair_list = list(pairs)
    columns = [
        scorer.pair_similarity_batch(corpus, pair_list)
        for scorer in ranked_scorers()
    ]
    weighted = RANKED_COLUMNS.index("weighted")
    order = sorted(
        range(len(pair_list)),
        key=lambda i: (-columns[weighted][i], pair_list[i]),
    )
    return [
        (rank, *pair_list[i], *(column[i] for column in columns))
        for rank, i in enumerate(order, start=1)
    ]


def format_cell(value) -> str:
    """Exact-round-trip serialization (empty cell for missing).

    Feature values are floats, ``None``, or the trinary agreement
    strings (``yes``/``partial``/``no``); floats use ``repr`` so the
    committed text round-trips bit-exactly.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def parse_cell(cell: str):
    """Inverse of :func:`format_cell`."""
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def render_features(
    pairs: Sequence[Pair],
    rows: Sequence[Dict[str, object]],
    names: Sequence[str],
) -> str:
    lines = [",".join(["a", "b", *names])]
    for pair, row in zip(pairs, rows):
        cells = [str(pair[0]), str(pair[1])]
        cells.extend(format_cell(row[name]) for name in names)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_ranked(ranked: Sequence[RankedRow]) -> str:
    lines = [",".join(["rank", "a", "b", *RANKED_COLUMNS])]
    for rank, a, b, *scores in ranked:
        lines.append(
            ",".join(
                [str(rank), str(a), str(b)]
                + [format_cell(score) for score in scores]
            )
        )
    return "\n".join(lines) + "\n"


def load_features_csv(
    path: Path = FEATURES_CSV,
) -> Tuple[List[str], List[Pair], List[Dict[str, object]]]:
    """(feature names, pairs, rows) from the committed fixture."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        names = header[2:]
        pairs: List[Pair] = []
        rows: List[Dict[str, object]] = []
        for record in reader:
            pairs.append((int(record[0]), int(record[1])))
            rows.append(
                {
                    name: parse_cell(cell)
                    for name, cell in zip(names, record[2:])
                }
            )
    return names, pairs, rows


def load_ranked_csv(path: Path = RANKED_CSV) -> List[RankedRow]:
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header[3:]) != RANKED_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header!r}")
        return [
            (int(rank), int(a), int(b), *(float(cell) for cell in scores))
            for rank, a, b, *scores in reader
        ]


def regenerate(root: Path = FIXTURE_DIR) -> Tuple[Path, Path]:
    """Write both fixture files; returns their paths."""
    from repro.similarity.features import FEATURE_NAMES

    dataset = golden_dataset()
    pairs = golden_pairs(dataset)
    rows = compute_feature_rows(dataset, pairs)
    ranked = compute_ranked_rows(dataset, pairs)
    root.mkdir(parents=True, exist_ok=True)
    features_path = root / FEATURES_CSV.name
    ranked_path = root / RANKED_CSV.name
    features_path.write_text(
        render_features(pairs, rows, FEATURE_NAMES), encoding="utf-8"
    )
    ranked_path.write_text(render_ranked(ranked), encoding="utf-8")
    return features_path, ranked_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the committed fixtures in place",
    )
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("pass --write to regenerate the fixtures")
    for path in regenerate():
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
