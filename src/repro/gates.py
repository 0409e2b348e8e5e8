"""One differential harness for every invariance gate.

The paper's output contract is a ranked pair list, and every gate in
this repository checks it the same way: run an *oracle*, run each
*variant* once, byte-compare their ranked text, and keep the first
divergence as a unified diff. This module is that loop, written once.

* A :class:`Variant` is a label plus ``run(workdir)``. It returns the
  ranked text, or ``None`` for a property-only check, and raises
  :class:`GateFailure` when a side invariant breaks (the checkpoint was
  not hit, the crash plan never fired, the wrong batches were dropped).
* :func:`run_gate` runs the oracle, then each variant in order, and
  returns one :class:`GateResult`. A variant that raises — a failed
  invariant, a crash, a child's timeout or non-zero exit — is a FAILED
  row naming its label and the exception. The first diverging variant
  gets its diff and its text written under the gate's workdir.
* :func:`run_gates` is the one printer and exit policy: ``0`` every
  gate held; ``1`` an invariant failed (the artifacts are kept and their
  root printed); ``2`` a vacuous gate, one that compared nothing or
  never reached what it exists to attack. Bad invocation is ``2`` too,
  decided by each entry's argument parser.

The gates are entries over this harness: the hash-seed and schedule
sweeps of ``repro sanitize`` (:mod:`repro.sanitize`) and the seven
fault scenarios of ``repro chaos`` (:mod:`repro.resilience.chaos`). A
new gate is one more :class:`Gate`. All of them resolve one fixed
corpus (:func:`build_dataset`, :func:`pipeline_config`) and render it
one way (:func:`ranked_text`).
"""

from __future__ import annotations

import difflib
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from repro.contracts import impure

if TYPE_CHECKING:
    from repro.core import PipelineConfig
    from repro.core.resolution import ResolutionResult
    from repro.records.dataset import Dataset

__all__ = [
    "Build",
    "Gate",
    "GateConfig",
    "GateFailure",
    "GateResult",
    "Variant",
    "VariantResult",
    "build_dataset",
    "int_list",
    "pipeline_config",
    "ranked_text",
    "require",
    "run_gate",
    "run_gates",
]

#: The one gate corpus: the italy community from generator seed 17,
#: blocked at ng 3.5 with expert weighting on. Only its size varies.
CORPUS_SEED = 17
NG = 3.5


class GateFailure(Exception):
    """A variant's side invariant broke (distinct from a divergence)."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`GateFailure` with ``message`` unless ``condition``."""
    if not condition:
        raise GateFailure(message)


def int_list(text: str, flag: str) -> Tuple[int, ...]:
    """Parse a comma-separated integer flag such as ``--seed 0,1,2``."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            f"{flag} must be comma-separated integers, got {text!r}"
        ) from None


@dataclass(frozen=True)
class GateConfig:
    """The corpus size and the seeds × worker counts a gate sweeps."""

    persons: int = 40
    seeds: Tuple[int, ...] = (1, 2, 3)
    workers: Tuple[int, ...] = (1,)
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.persons < 2:
            raise ValueError(f"persons must be >= 2, got {self.persons}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.workers or min(self.workers) < 1:
            raise ValueError(
                f"worker counts must be >= 1, got {list(self.workers)}"
            )


def build_dataset(persons: int) -> Dataset:
    """The gate corpus at ``persons`` persons (fresh on every call)."""
    from repro.datagen import build_corpus

    dataset, _persons = build_corpus(
        n_persons=persons, communities=("italy",), seed=CORPUS_SEED,
        name="gate",
    )
    return dataset


def pipeline_config(**overrides: Any) -> PipelineConfig:
    """The gate pipeline configuration, plus per-gate ``overrides``."""
    from repro.core import PipelineConfig

    return PipelineConfig(ng=NG, expert_weighting=True, **overrides)


def ranked_text(resolution: ResolutionResult) -> str:
    """Every ranked pair as CSV text, the text every gate compares.

    The four columns of :meth:`ResolutionResult.to_csv`, but unfiltered
    and with both floats at six decimals, so a drift that the product
    CSV would round away still diverges here.
    """
    lines = ["book_id_a,book_id_b,similarity,confidence"]
    for evidence in resolution.ranked():
        confidence = (
            "" if evidence.confidence is None
            else f"{evidence.confidence:.6f}"
        )
        a, b = evidence.pair
        lines.append(f"{a},{b},{evidence.similarity:.6f},{confidence}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Variant:
    """A labelled run: ranked text, ``None`` (property only), or a raise."""

    label: str
    run: Callable[[Path], Optional[str]]


#: A gate's oracle (``None`` when every variant is property-only) and
#: its variants, which may be a generator consumed after the oracle ran.
Build = Tuple[Optional[Variant], Iterable[Variant]]


@dataclass(frozen=True)
class Gate:
    """A gate entry: its name and how to build it in its workdir."""

    name: str
    build: Callable[[Path], Build]


@dataclass(frozen=True)
class VariantResult:
    """One variant's row: identical, held, DIVERGED or FAILED."""

    label: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("identical", "held")


@dataclass
class GateResult:
    """The oracle's text, one row per variant, and the first diff."""

    name: str
    oracle: str = ""
    text: Optional[str] = None
    runs: List[VariantResult] = field(default_factory=list)
    diff: Optional[str] = None
    diff_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)


@impure(reason="appends the traceback to the workdir's failure log")
def _failed(label: str, exc: Exception, workdir: Path) -> VariantResult:
    """A FAILED row; the full traceback goes to ``failures.txt``."""
    workdir.mkdir(parents=True, exist_ok=True)
    trace = traceback.format_exception(type(exc), exc, exc.__traceback__)
    with open(workdir / "failures.txt", "a", encoding="utf-8") as log:
        log.write(f"{label}:\n{''.join(trace)}\n")
    return VariantResult(label, "FAILED", f"{type(exc).__name__}: {exc}")


@impure(reason="runs the variants and writes divergence artifacts")
def _compare(
    result: GateResult, variant: Variant, workdir: Path
) -> VariantResult:
    try:
        text = variant.run(workdir)
    except Exception as exc:  # every raise is a FAILED row, never a traceback
        return _failed(variant.label, exc, workdir)
    if text is None:
        return VariantResult(variant.label, "held")
    if text == result.text:
        return VariantResult(variant.label, "identical")
    if result.diff is None:
        result.diff = "".join(
            difflib.unified_diff(
                (result.text or "").splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=result.oracle,
                tofile=variant.label,
            )
        )
        result.diff_path = workdir / "divergence.patch"
        result.diff_path.write_text(result.diff, encoding="utf-8")
        (workdir / "divergent.txt").write_text(text, encoding="utf-8")
    return VariantResult(variant.label, "DIVERGED")


@impure(reason="runs the oracle and variants in a workdir on disk")
def run_gate(
    name: str,
    oracle: Optional[Variant],
    variants: Iterable[Variant],
    workdir: Path,
) -> GateResult:
    """Run the oracle, then each variant once, in order; compare each."""
    workdir.mkdir(parents=True, exist_ok=True)
    result = GateResult(name, "" if oracle is None else oracle.label)
    if oracle is not None:
        try:
            result.text = oracle.run(workdir)
        except Exception as exc:  # reported as the oracle's FAILED row
            result.runs.append(_failed(oracle.label, exc, workdir))
            return result
    try:
        for variant in variants:
            result.runs.append(_compare(result, variant, workdir))
    except Exception as exc:  # the variant generator itself broke
        result.runs.append(_failed(f"{name} variants", exc, workdir))
    return result


def _print(result: GateResult) -> None:
    statuses = [run.status for run in result.runs]
    parts = []
    if result.text is not None:
        rows = result.text.count("\n") - 1
        parts.append(
            f"{statuses.count('identical')} identical to {result.oracle} "
            f"({rows} ranked rows)"
        )
    if "held" in statuses:
        parts.append(f"{statuses.count('held')} held")
    print(f"{result.name}: {'ok' if result.ok else 'FAILED'} — "
          f"{', '.join(parts) or 'no variants'}")
    for run in result.runs:
        if not run.ok:
            print(f"  {run.label}: {run.status}"
                  + (f" — {run.detail}" if run.detail else ""))
    if result.diff_path is not None:
        print(f"  first divergence: {result.diff_path}")


@impure(reason="creates the artifacts root and prints the gate report")
def run_gates(
    prog: str,
    gates: Iterable[Gate],
    artifacts_dir: Optional[Path] = None,
    diff_out: Optional[Path] = None,
    vacuity: Optional[Callable[[], Optional[str]]] = None,
) -> int:
    """Run every gate under one artifacts root; print; return the exit code.

    Each gate runs in ``<root>/<name>``; the root is ``artifacts_dir``,
    or a temporary directory removed unless a gate failed. ``diff_out``
    receives the first divergence (empty when there is none).
    ``vacuity``, called once every gate held, names what the sweep
    never exercised, if anything.
    """
    root = artifacts_dir or Path(tempfile.mkdtemp(prefix="repro-gates-"))
    results: List[GateResult] = []
    for gate in gates:
        workdir = root / gate.name
        try:
            oracle, variants = gate.build(workdir)
        except Exception as exc:  # a broken entry is a FAILED gate
            result = GateResult(gate.name, runs=[_failed(gate.name, exc, workdir)])
        else:
            result = run_gate(gate.name, oracle, variants, workdir)
        _print(result)
        results.append(result)

    if diff_out is not None:
        first_diff = next((r.diff for r in results if r.diff), "")
        diff_out.write_text(first_diff, encoding="utf-8")
        if first_diff:
            print(f"wrote divergence diff to {diff_out}")
    failed = sum(1 for result in results if not result.ok)
    if failed:
        print(f"{prog}: {failed}/{len(results)} gates failed; artifacts "
              f"kept in {root}", file=sys.stderr)
        return 1
    if artifacts_dir is None:
        shutil.rmtree(root, ignore_errors=True)
    empty = [result.name for result in results if not result.runs]
    reason = (f"{', '.join(empty)} compared nothing" if empty
              else vacuity() if vacuity is not None else None)
    if reason:
        print(f"{prog}: vacuous gate: {reason}", file=sys.stderr)
        return 2
    print(f"{prog}: all {len(results)} gates held "
          f"({sum(len(result.runs) for result in results)} variants)")
    return 0

