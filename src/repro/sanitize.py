"""Hash-order sanitizer: prove resolution output ignores PYTHONHASHSEED.

Python randomizes ``str``/``bytes`` hashing per process unless
``PYTHONHASHSEED`` pins it, so any code path that lets ``set``/``dict``
iteration order reach output produces *different bytes on different
runs*. reprolint's RL002 and the RL100-RL103 contract pass catch such
paths statically; this module is the dynamic counterpart — an
end-to-end experiment:

1. run a small, fully seeded corpus-generation + resolution in a child
   process with a **baseline** ``PYTHONHASHSEED``;
2. repeat under ``n`` further hash seeds, permuting every hash-dependent
   iteration order in the interpreter;
3. assert the ranked resolution output is **byte-identical** across all
   runs, and render a unified diff of the first divergence otherwise.

The child entry point is ``python -m repro.sanitize --emit`` (it prints
the ranked-pairs CSV to stdout); :func:`run_sanitize` drives it through
a pluggable *runner* so tests can exercise the comparison logic without
spawning processes. Exit codes mirror reprolint: 0 identical, 1
divergence, 2 bad invocation.

``--schedule`` runs the *adversarial-schedule* variant instead: the
same seeded resolution executed under
:class:`repro.parallel.AdversarialScheduleExecutor`, which permutes
chunk execution order per ``(schedule seed, dispatch)`` while sweeping
worker counts (and with them chunk boundaries). It is the dynamic
counterpart of reprolint's RL200-RL205 parallel-safety pass: the static
pass proves work functions capture no shared state and merges are
declared order-independent; the schedule sanitizer *executes* a hostile
schedule and requires the ranked CSV to stay byte-identical to the
serial reference across every seed × worker-count cell. A sweep in
which no pair-scoring dispatch ran under a hostile order (a corpus too
small to reach the dispatch threshold) proves nothing about the merge
it exists to attack, so it exits 2 instead of passing.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "SCORING_DISPATCH",
    "SanitizeConfig",
    "SeedRun",
    "SanitizeResult",
    "ScheduleConfig",
    "ScheduleRun",
    "ScheduleResult",
    "emit_resolution",
    "subprocess_runner",
    "run_sanitize",
    "inprocess_schedule_runner",
    "run_schedule_sanitize",
    "main",
]

#: Maps a PYTHONHASHSEED value to the emitted resolution text.
Runner = Callable[[int], str]

#: Maps (schedule seed or None for the serial reference, workers) to the
#: emitted resolution text.
ScheduleRunner = Callable[[Optional[int], int], str]

#: The dispatch the schedule sanitizer exists to attack: MFIBlocks'
#: pair-scoring max-merge. Pair lists below the executor's dispatch
#: threshold are scored inline, never reaching the adversary.
SCORING_DISPATCH = "mfiblocks.score_pairs"


@dataclass(frozen=True)
class SanitizeConfig:
    """What to resolve and under which hash seeds to re-run it."""

    persons: int = 40
    communities: Tuple[str, ...] = ("italy",)
    corpus_seed: int = 17
    ng: float = 3.5
    expert_weighting: bool = True
    baseline_hash_seed: int = 0
    hash_seeds: Tuple[int, ...] = (1, 2, 3)
    timeout: float = 120.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.persons < 2:
            raise ValueError(f"persons must be >= 2, got {self.persons}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.hash_seeds:
            raise ValueError("need at least one non-baseline hash seed")
        if self.baseline_hash_seed in self.hash_seeds:
            raise ValueError(
                f"baseline hash seed {self.baseline_hash_seed} must not "
                "recur in hash_seeds"
            )


@dataclass(frozen=True)
class SeedRun:
    """Outcome of one hash-seed run, compared against the baseline."""

    hash_seed: int
    matches_baseline: bool
    n_lines: int


@dataclass
class SanitizeResult:
    """Baseline plus per-seed comparisons and the first divergence diff."""

    baseline_hash_seed: int
    baseline_output: str
    runs: List[SeedRun] = field(default_factory=list)
    diff: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(run.matches_baseline for run in self.runs)

    @property
    def divergent_seeds(self) -> List[int]:
        return [r.hash_seed for r in self.runs if not r.matches_baseline]

    def write_diff(self, path: Path) -> None:
        """Persist the divergence diff (empty file when clean) for CI."""
        path.write_text(self.diff or "", encoding="utf-8")


def _resolve_ranked(
    persons: int,
    communities: Tuple[str, ...],
    corpus_seed: int,
    ng: float,
    expert_weighting: bool,
    executor: object,
) -> str:
    """Build the sanitizer corpus, resolve it, render the ranked CSV.

    The one resolution both sanitizer modes share; they differ only in
    which executor they hand in and which axis they permute around it.
    """
    # Imported here so the child process pays for the pipeline only when
    # actually resolving and the module stays importable for config/diff
    # logic even in stripped-down environments.
    from repro.core import PipelineConfig, UncertainERPipeline
    from repro.datagen import build_corpus

    dataset, _persons = build_corpus(
        n_persons=persons,
        communities=communities,
        seed=corpus_seed,
        name="sanitize",
    )
    pipeline = UncertainERPipeline(
        PipelineConfig(ng=ng, expert_weighting=expert_weighting),
        executor=executor,
    )
    resolution = pipeline.run(dataset)
    lines = ["book_id_a,book_id_b,similarity"]
    for evidence in resolution.ranked():
        a, b = evidence.pair
        lines.append(f"{a},{b},{evidence.similarity:.6f}")
    return "\n".join(lines) + "\n"


def emit_resolution(config: SanitizeConfig) -> str:
    """Generate the sanitizer corpus, resolve it, render the ranked CSV.

    Everything downstream of the interpreter's hash seed is exercised:
    item-bag construction, MFI mining, blocking, scoring, and ranking.
    All explicit RNG is seeded from ``config``, so the *only* free
    variable across child processes is PYTHONHASHSEED. With
    ``workers > 1`` the resolution runs through the parallel executor,
    which folds the parallel layer's chunking and merging into the same
    byte-identity requirement (hash seeds × worker schedules).
    """
    from repro.parallel import make_executor

    return _resolve_ranked(
        persons=config.persons,
        communities=config.communities,
        corpus_seed=config.corpus_seed,
        ng=config.ng,
        expert_weighting=config.expert_weighting,
        executor=make_executor(config.workers),
    )


def subprocess_runner(config: SanitizeConfig) -> Runner:
    """Real runner: one ``python -m repro.sanitize --emit`` per hash seed."""

    def run(hash_seed: int) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        # The child must resolve `repro` to the same tree as this process.
        package_root = str(Path(__file__).resolve().parents[1])
        previous = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not previous
            else package_root + os.pathsep + previous
        )
        argv = [
            sys.executable,
            "-m",
            "repro.sanitize",
            "--emit",
            "--persons", str(config.persons),
            "--corpus-seed", str(config.corpus_seed),
            "--ng", str(config.ng),
            "--communities", *config.communities,
        ]
        if not config.expert_weighting:
            argv.append("--no-expert-weighting")
        if config.workers != 1:
            argv += ["--workers", str(config.workers)]
        completed = subprocess.run(
            argv,
            env=env,
            capture_output=True,
            text=True,
            timeout=config.timeout,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"sanitizer child (PYTHONHASHSEED={hash_seed}) failed with "
                f"exit code {completed.returncode}:\n{completed.stderr}"
            )
        return completed.stdout

    return run


def run_sanitize(
    config: SanitizeConfig, runner: Optional[Runner] = None
) -> SanitizeResult:
    """Run the baseline plus every configured hash seed and compare."""
    runner = runner if runner is not None else subprocess_runner(config)
    baseline = runner(config.baseline_hash_seed)
    result = SanitizeResult(
        baseline_hash_seed=config.baseline_hash_seed,
        baseline_output=baseline,
    )
    for hash_seed in config.hash_seeds:
        output = runner(hash_seed)
        matches = output == baseline
        result.runs.append(
            SeedRun(
                hash_seed=hash_seed,
                matches_baseline=matches,
                n_lines=output.count("\n"),
            )
        )
        if not matches and result.diff is None:
            result.diff = "".join(
                difflib.unified_diff(
                    baseline.splitlines(keepends=True),
                    output.splitlines(keepends=True),
                    fromfile=f"PYTHONHASHSEED={config.baseline_hash_seed}",
                    tofile=f"PYTHONHASHSEED={hash_seed}",
                )
            )
    return result


@dataclass(frozen=True)
class ScheduleConfig:
    """What to resolve and which hostile schedules to re-run it under.

    The default corpus is large enough that blocking makes a
    :data:`SCORING_DISPATCH` (a minsup level with >= 512 pairs).
    """

    persons: int = 120
    communities: Tuple[str, ...] = ("italy",)
    corpus_seed: int = 17
    ng: float = 3.5
    expert_weighting: bool = True
    schedule_seeds: Tuple[int, ...] = (1, 2, 3)
    worker_counts: Tuple[int, ...] = (1, 2, 4)

    def __post_init__(self) -> None:
        if self.persons < 2:
            raise ValueError(f"persons must be >= 2, got {self.persons}")
        if not self.schedule_seeds:
            raise ValueError("need at least one schedule seed")
        if not self.worker_counts:
            raise ValueError("need at least one worker count")
        bad = [w for w in self.worker_counts if w < 1]
        if bad:
            raise ValueError(f"worker counts must be >= 1, got {bad}")


@dataclass(frozen=True)
class ScheduleRun:
    """One (schedule seed, worker count) cell compared to the baseline."""

    schedule_seed: int
    workers: int
    matches_baseline: bool
    n_lines: int


@dataclass
class ScheduleResult:
    """Serial baseline plus the seeds × workers comparison matrix."""

    baseline_output: str
    runs: List[ScheduleRun] = field(default_factory=list)
    diff: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(run.matches_baseline for run in self.runs)

    @property
    def divergent_cells(self) -> List[Tuple[int, int]]:
        return [
            (r.schedule_seed, r.workers)
            for r in self.runs
            if not r.matches_baseline
        ]

    def write_diff(self, path: Path) -> None:
        """Persist the divergence diff (empty file when clean) for CI."""
        path.write_text(self.diff or "", encoding="utf-8")


def inprocess_schedule_runner(
    config: ScheduleConfig, shuffled: Optional[Set[str]] = None
) -> ScheduleRunner:
    """Real schedule runner: resolve in-process under a chosen executor.

    ``schedule_seed=None`` selects the serial reference executor; any
    integer selects :class:`~repro.parallel.AdversarialScheduleExecutor`
    with that seed. No subprocesses: the adversarial permutation is the
    experiment's only free variable, so PYTHONHASHSEED may stay fixed.

    ``shuffled``, when given, collects the label of every adversarial
    dispatch that had two or more chunks — the dispatches whose merge
    actually saw a hostile order.
    """

    def run(schedule_seed: Optional[int], workers: int) -> str:
        from repro.parallel import AdversarialScheduleExecutor, make_executor

        if schedule_seed is None:
            executor: object = make_executor(workers)
        else:
            executor = AdversarialScheduleExecutor(workers, schedule_seed)
        output = _resolve_ranked(
            persons=config.persons,
            communities=config.communities,
            corpus_seed=config.corpus_seed,
            ng=config.ng,
            expert_weighting=config.expert_weighting,
            executor=executor,
        )
        if shuffled is not None and isinstance(
            executor, AdversarialScheduleExecutor
        ):
            shuffled.update(
                label
                for label, order in zip(
                    executor.label_log, executor.schedule_log
                )
                if len(order) > 1
            )
        return output

    return run


def run_schedule_sanitize(
    config: ScheduleConfig, runner: Optional[ScheduleRunner] = None
) -> ScheduleResult:
    """Serial baseline, then every schedule seed × worker count cell.

    The baseline is ``runner(None, 1)`` — the serial reference path with
    no adversary — so every parallel cell is compared against the output
    the paper-facing CLI produces by default.
    """
    runner = runner if runner is not None else inprocess_schedule_runner(config)
    baseline = runner(None, 1)
    result = ScheduleResult(baseline_output=baseline)
    for schedule_seed in config.schedule_seeds:
        for workers in config.worker_counts:
            output = runner(schedule_seed, workers)
            matches = output == baseline
            result.runs.append(
                ScheduleRun(
                    schedule_seed=schedule_seed,
                    workers=workers,
                    matches_baseline=matches,
                    n_lines=output.count("\n"),
                )
            )
            if not matches and result.diff is None:
                result.diff = "".join(
                    difflib.unified_diff(
                        baseline.splitlines(keepends=True),
                        output.splitlines(keepends=True),
                        fromfile="serial baseline",
                        tofile=(
                            f"schedule_seed={schedule_seed} "
                            f"workers={workers}"
                        ),
                    )
                )
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sanitize",
        description=(
            "re-run a small seeded resolution under permuted "
            "PYTHONHASHSEED values and require byte-identical output"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="number of non-baseline hash seeds to try (default: 3)",
    )
    parser.add_argument(
        "--persons", type=int, default=None,
        help="synthetic-corpus size (default: 40; 120 with --schedule)",
    )
    parser.add_argument("--corpus-seed", type=int, default=17)
    parser.add_argument("--ng", type=float, default=3.5)
    parser.add_argument(
        "--communities", nargs="+", default=["italy"],
        help="synthetic-corpus communities (default: italy)",
    )
    parser.add_argument(
        "--no-expert-weighting", action="store_true",
        help="score blocks with uniform Jaccard instead",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers for each seeded resolution (default: 1)",
    )
    parser.add_argument(
        "--diff-out", type=Path, default=None,
        help="write the first divergence as a unified diff to this file",
    )
    parser.add_argument(
        "--schedule", action="store_true",
        help="run the adversarial-schedule sanitizer instead: permute "
        "chunk execution order under seeded schedules x worker counts "
        "and require byte-identical ranked output",
    )
    parser.add_argument(
        "--schedule-seeds", type=int, default=3,
        help="number of adversarial schedule seeds to try (default: 3)",
    )
    parser.add_argument(
        "--schedule-workers", default="1,2,4",
        help="comma-separated worker counts to sweep under each "
        "schedule seed (default: 1,2,4)",
    )
    parser.add_argument(
        "--emit", action="store_true",
        help=argparse.SUPPRESS,  # internal: child mode, print CSV and exit
    )
    return parser


def _sized(args: argparse.Namespace) -> Dict[str, int]:
    """``persons`` only when given, so each mode keeps its own default."""
    return {} if args.persons is None else {"persons": args.persons}


def _config_from_args(args: argparse.Namespace) -> SanitizeConfig:
    return SanitizeConfig(
        **_sized(args),
        communities=tuple(args.communities),
        corpus_seed=args.corpus_seed,
        ng=args.ng,
        expert_weighting=not args.no_expert_weighting,
        hash_seeds=tuple(range(1, args.seeds + 1)),
        workers=args.workers,
    )


def _schedule_config_from_args(args: argparse.Namespace) -> ScheduleConfig:
    try:
        worker_counts = tuple(
            int(token)
            for token in args.schedule_workers.split(",")
            if token.strip()
        )
    except ValueError:
        raise ValueError(
            f"--schedule-workers must be comma-separated integers, "
            f"got {args.schedule_workers!r}"
        ) from None
    return ScheduleConfig(
        **_sized(args),
        communities=tuple(args.communities),
        corpus_seed=args.corpus_seed,
        ng=args.ng,
        expert_weighting=not args.no_expert_weighting,
        schedule_seeds=tuple(range(1, args.schedule_seeds + 1)),
        worker_counts=worker_counts,
    )


def _main_schedule(args: argparse.Namespace) -> int:
    if args.schedule_seeds < 1:
        print("repro-sanitize: --schedule-seeds must be >= 1", file=sys.stderr)
        return 2
    try:
        config = _schedule_config_from_args(args)
    except ValueError as exc:
        print(f"repro-sanitize: {exc}", file=sys.stderr)
        return 2

    shuffled: Set[str] = set()
    result = run_schedule_sanitize(
        config, runner=inprocess_schedule_runner(config, shuffled)
    )
    n_pairs = result.baseline_output.count("\n") - 1
    print(f"serial baseline: {n_pairs} ranked pairs")
    for run in result.runs:
        status = "identical" if run.matches_baseline else "DIVERGED"
        print(
            f"schedule_seed={run.schedule_seed} workers={run.workers}: "
            f"{status}"
        )
    if args.diff_out is not None:
        result.write_diff(args.diff_out)
        if result.diff:
            print(f"wrote divergence diff to {args.diff_out}")
    if not result.ok:
        print(
            "adversarial-schedule sanitizer: output depends on chunk "
            f"schedule (diverging (seed, workers): {result.divergent_cells})",
            file=sys.stderr,
        )
        return 1
    if SCORING_DISPATCH not in shuffled:
        print(
            f"repro-sanitize: no {SCORING_DISPATCH} dispatch ran under a "
            "hostile schedule (every pair list was scored inline); raise "
            "--persons or add a worker count > 1",
            file=sys.stderr,
        )
        return 2
    print(
        f"adversarial-schedule sanitizer: {len(result.runs)} "
        "schedule cells byte-identical to the serial baseline "
        f"(shuffled dispatches: {', '.join(sorted(shuffled))})"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.sanitize`` and ``repro sanitize``."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    if args.schedule:
        return _main_schedule(args)
    if args.seeds < 1:
        print("repro-sanitize: --seeds must be >= 1", file=sys.stderr)
        return 2
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"repro-sanitize: {exc}", file=sys.stderr)
        return 2

    if args.emit:
        sys.stdout.write(emit_resolution(config))
        return 0

    result = run_sanitize(config)
    n_pairs = result.baseline_output.count("\n") - 1
    print(
        f"baseline PYTHONHASHSEED={result.baseline_hash_seed}: "
        f"{n_pairs} ranked pairs"
    )
    for run in result.runs:
        status = "identical" if run.matches_baseline else "DIVERGED"
        print(f"PYTHONHASHSEED={run.hash_seed}: {status}")
    if args.diff_out is not None:
        result.write_diff(args.diff_out)
        if result.diff:
            print(f"wrote divergence diff to {args.diff_out}")
    if result.ok:
        print(f"hash-order sanitizer: {len(result.runs)} seeds byte-identical")
        return 0
    print(
        "hash-order sanitizer: output depends on PYTHONHASHSEED "
        f"(diverging seeds: {result.divergent_seeds})",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
