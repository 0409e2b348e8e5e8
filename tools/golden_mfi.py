"""Golden fixtures pinning the FPMax miner's output, order included.

``maximal_frequent_itemsets`` promises more than a set of MFIs: the
serial miner returns them in discovery order, and an iteration budget
cuts that order at a deterministic point. A rewrite of the miner's
internals must keep all three — the sets, their supports, the order —
and :mod:`tests.test_golden_mfi` checks it against these fixtures.

Fixtures live in ``tests/fixtures/golden_mfi/``:

* ``vocabulary.txt`` — the fixture corpus's distinct items (their
  ``str`` form), sorted; an item's id is its line number from 0;
* ``<case>.txt`` — one MFI per line in discovery order:
  ``support<TAB>id id ...`` with the item ids sorted. The cases are
  :data:`CASES`: the corpus unpruned and pruned at minsup 5..2, and
  under iteration budgets that stop the search part-way;
* ``italy_samesrc.sha256`` — ``count<TAB>sha256`` of the MFI list of the
  ``italy_samesrc`` end-to-end workload's first level (seed 1, minsup
  5), serialized as :func:`render_mfis` does with item strings in place
  of ids.

Regenerate after an *intentional* change of the miner's output with::

    PYTHONPATH=src python -m tools.golden_mfi --write

and review the fixture diff like any other behavior change.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "golden_mfi"
VOCABULARY_TXT = FIXTURE_DIR / "vocabulary.txt"
ITALY_SHA256 = FIXTURE_DIR / "italy_samesrc.sha256"
WORKLOADS_PY = REPO_ROOT / "benchmarks" / "e2e" / "workloads.py"

#: Corpus shape: about 300 records, six communities.
N_PERSONS = 150
SEED = 41
#: Fraction of the most frequent items the pruned cases drop.
PRUNE_FRACTION = 0.003
#: ``italy_samesrc`` end-to-end workload, first MFIBlocks level.
ITALY_SEED = 1
ITALY_MINSUP = 5

#: ``name -> (minsup, pruned, max_iterations or None)``.
CASES: Dict[str, Tuple[int, bool, Optional[int]]] = {
    **{
        f"{label}_minsup{minsup}": (minsup, pruned, None)
        for label, pruned in (("unpruned", False), ("pruned", True))
        for minsup in (5, 4, 3, 2)
    },
    "budget40_minsup3": (3, False, 40),
    "budget150_minsup2": (2, False, 150),
}

#: One MFI as ``(sorted item ids, support)``.
Row = Tuple[Tuple[int, ...], int]


def golden_item_bags() -> Dict[int, FrozenSet[object]]:
    """The fixture corpus's item bags (seeded generator output)."""
    from repro.datagen import build_corpus

    dataset, _persons = build_corpus(
        n_persons=N_PERSONS, seed=SEED, name="golden-mfi"
    )
    return dict(dataset.item_bags)


def vocabulary(item_bags: Dict[int, FrozenSet[object]]) -> List[str]:
    """Every distinct item's ``str`` form, sorted."""
    return sorted({str(item) for items in item_bags.values() for item in items})


def case_transactions(
    item_bags: Dict[int, FrozenSet[object]], pruned: bool
) -> List[FrozenSet[object]]:
    if pruned:
        from repro.mining.pruning import prune_frequent_items

        item_bags, _ = prune_frequent_items(item_bags, PRUNE_FRACTION)
    return list(item_bags.values())


def mine_case(
    item_bags: Dict[int, FrozenSet[object]],
    name: str,
    ids: Dict[str, int],
) -> List[Row]:
    """One case's MFIs as rows, in the order the miner returned them."""
    from repro.mining.fpgrowth import maximal_frequent_itemsets
    from repro.resilience.budgets import BudgetMeter, StageBudget

    minsup, pruned, max_iterations = CASES[name]
    budget = None
    if max_iterations is not None:
        budget = BudgetMeter(StageBudget(max_iterations=max_iterations))
    mfis = maximal_frequent_itemsets(
        case_transactions(item_bags, pruned), minsup, budget=budget
    )
    return [
        (tuple(sorted(ids[str(item)] for item in mfi.items)), mfi.support)
        for mfi in mfis
    ]


def render_rows(rows: Sequence[Row]) -> str:
    return "".join(
        f"{support}\t{' '.join(map(str, items))}\n" for items, support in rows
    )


def parse_rows(text: str) -> List[Row]:
    rows: List[Row] = []
    for line in text.splitlines():
        support, _, items = line.partition("\t")
        rows.append((tuple(int(item) for item in items.split()), int(support)))
    return rows


def load_case(name: str, root: Path = FIXTURE_DIR) -> List[Row]:
    return parse_rows((root / f"{name}.txt").read_text(encoding="utf-8"))


def load_vocabulary(path: Path = VOCABULARY_TXT) -> List[str]:
    return path.read_text(encoding="utf-8").splitlines()


def render_mfis(mfis) -> str:
    """``support<TAB>item<TAB>item ...`` per MFI, items' ``str`` sorted."""
    return "".join(
        "\t".join([str(mfi.support), *sorted(str(item) for item in mfi.items)])
        + "\n"
        for mfi in mfis
    )


def italy_transactions() -> List[FrozenSet[object]]:
    """The transactions ``italy_samesrc`` mines at its first level.

    The workload module is loaded from its file (``benchmarks/e2e`` is
    not a package), so the corpus, the seeded relabelling and the
    record order are the benchmark's own.
    """
    from repro.records.dataset import Dataset

    spec = importlib.util.spec_from_file_location("_e2e_workloads", WORKLOADS_PY)
    assert spec is not None and spec.loader is not None
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        # Dataclasses resolve their module through sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    workload = module.ItalySameSrc(seed=ITALY_SEED, scale=1.0)
    records, _mapping = module.relabel(workload.corpus(), ITALY_SEED)
    return list(Dataset(records).item_bags.values())


def italy_digest() -> Tuple[int, str]:
    """``(MFI count, sha256 of render_mfis)`` of the italy_samesrc mine."""
    from repro.mining.fpgrowth import maximal_frequent_itemsets

    mfis = maximal_frequent_itemsets(italy_transactions(), ITALY_MINSUP)
    digest = hashlib.sha256(render_mfis(mfis).encode("utf-8")).hexdigest()
    return len(mfis), digest


def load_italy_digest(path: Path = ITALY_SHA256) -> Tuple[int, str]:
    count, _, digest = path.read_text(encoding="utf-8").strip().partition("\t")
    return int(count), digest


def regenerate(root: Path = FIXTURE_DIR) -> List[Path]:
    """Write every fixture file; returns their paths."""
    item_bags = golden_item_bags()
    names = vocabulary(item_bags)
    ids = {name: index for index, name in enumerate(names)}
    root.mkdir(parents=True, exist_ok=True)
    written = [root / VOCABULARY_TXT.name]
    written[0].write_text("".join(f"{name}\n" for name in names), encoding="utf-8")
    for name in CASES:
        path = root / f"{name}.txt"
        path.write_text(render_rows(mine_case(item_bags, name, ids)), encoding="utf-8")
        written.append(path)
    count, digest = italy_digest()
    path = root / ITALY_SHA256.name
    path.write_text(f"{count}\t{digest}\n", encoding="utf-8")
    written.append(path)
    return written


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
