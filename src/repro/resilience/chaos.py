"""Chaos harness: seeded fault injection against the live pipeline.

Resilience claims that are not exercised are hopes, not properties.
This module drives the whole resilience layer end to end with
deterministically seeded faults and asserts the recovery invariants of
``docs/RESILIENCE.md``:

``corrupt-rows``
    Inject :data:`~repro.resilience.faults.CORRUPT_MARKER` rows into a
    CSV corpus at a seeded 5% (configurable) and require that ingestion
    under ``QuarantinePolicy.QUARANTINE`` (a) completes, (b) loads
    exactly the clean rows, and (c) quarantines **exactly** the
    injected line numbers.

``crash-resume``
    For every stage boundary in turn, crash the pipeline with a
    :class:`~repro.resilience.faults.SimulatedCrash` right after the
    stage's checkpoint is durable, resume from disk, and require the
    resumed ranked CSV to be **byte-identical** to an uninterrupted
    run's.

``truncated-checkpoint``
    Truncate one checkpoint file (stage chosen by the fault seed) and
    delete the deeper ones, then resume: the store must record a miss
    for the damaged stage, fall back to the deepest intact ancestor,
    and still reproduce the uninterrupted bytes.

``budget``
    Run under an instantly exhausted
    :class:`~repro.resilience.budgets.StageBudget` and require graceful
    degradation: the run completes, ``ResolutionResult.degraded`` is
    set, and the run report carries the flag.

``worker-crash``
    Kill one process-pool worker mid-chunk (the seed picks which
    parallel dispatch dies) and require that the executor's
    deterministic chunk retry reproduces output **byte-identical** to a
    serial run — the parallel layer's recovery invariant
    (``docs/PARALLELISM.md``).

``crash-mid-batch``
    Stream the second half of the corpus into a WAL-backed
    :class:`~repro.core.incremental.IncrementalResolver` (batch size
    varies with the seed) and kill the process at **every** WAL append
    boundary in turn. Recovery must replay exactly the committed
    prefix, report exactly the batches a crash legitimately loses (one
    after a ``begin``, none after a ``commit``), and — once the dropped
    batches are re-ingested — reproduce the uninterrupted ranked CSV
    **byte-identically**.

``torn-wal``
    Truncate the live WAL segment at **every** byte offset inside its
    final record (the last batch's commit marker), as a torn write
    would. Every tear must scan down to the same committed prefix with
    the last batch reported dropped; full recoveries at sampled tear
    points must re-ingest to byte-identical output.

Faults are injected *deterministically* from ``--seed``, so a failing
scenario replays exactly. On failure the harness keeps its artifacts
(quarantine JSONL, output diffs, checkpoint directories) for posthoc
debugging — CI uploads them; locally the path is printed.

Usage: ``repro chaos --seed 0,1,2`` or ``python -m
repro.resilience.chaos``. Exit codes: 0 all invariants held, 1 a
scenario failed, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import difflib
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.contracts import impure
from repro.core import PipelineConfig, UncertainERPipeline
from repro.core.incremental import IncrementalResolver
from repro.core.pipeline import PIPELINE_STAGES
from repro.core.resolution import ResolutionResult
from repro.datagen import build_corpus
from repro.obs import Tracer
from repro.parallel.adversarial import AdversarialScheduleExecutor
from repro.parallel.executor import MultiprocessExecutor
from repro.records.dataset import Dataset
from repro.records.io import read_csv, write_csv
from repro.records.schema import VictimRecord
from repro.resilience.budgets import StageBudget
from repro.resilience.checkpoints import CheckpointStore
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    WorkerCrashPlan,
    corrupt_csv_rows,
    truncate_file,
)
from repro.resilience.quarantine import Quarantine, QuarantinePolicy
from repro.resilience.wal import WalFaultPlan, WriteAheadLog

__all__ = [
    "ChaosConfig",
    "ScenarioOutcome",
    "SCENARIOS",
    "run_chaos",
    "main",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Which faults to inject, against what corpus."""

    seeds: Tuple[int, ...] = (0,)
    scenario: str = "all"
    persons: int = 40
    corpus_seed: int = 17
    ng: float = 3.5
    corrupt_fraction: float = 0.05
    artifacts_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one fault seed")
        if self.persons < 2:
            raise ValueError(f"persons must be >= 2, got {self.persons}")
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ValueError(
                f"corrupt_fraction must be in (0, 1], "
                f"got {self.corrupt_fraction}"
            )
        if self.scenario not in ("all", *SCENARIOS):
            raise ValueError(f"unknown scenario: {self.scenario!r}")


@dataclass(frozen=True)
class ScenarioOutcome:
    """Pass/fail of one (scenario, seed) combination."""

    scenario: str
    seed: int
    ok: bool
    detail: str


def _build_dataset(config: ChaosConfig) -> Dataset:
    dataset, _persons = build_corpus(
        n_persons=config.persons,
        communities=("italy",),
        seed=config.corpus_seed,
        name="chaos",
    )
    return dataset


def _pipeline_config(config: ChaosConfig) -> PipelineConfig:
    return PipelineConfig(ng=config.ng, expert_weighting=True)


def _ranked_bytes(resolution: ResolutionResult, path: Path) -> bytes:
    """Write the ranked CSV (the determinism artifact) and read it back."""
    resolution.to_csv(path)
    return path.read_bytes()


def _diff(expected: bytes, actual: bytes, label: str) -> str:
    return "".join(
        difflib.unified_diff(
            expected.decode("utf-8").splitlines(keepends=True),
            actual.decode("utf-8").splitlines(keepends=True),
            fromfile="uninterrupted",
            tofile=label,
        )
    )


@impure(reason="writes corrupted corpus and quarantine artifacts to disk")
def _scenario_corrupt_rows(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """Seeded corrupt rows must be quarantined exactly, never fatally."""
    dataset = _build_dataset(config)
    clean_path = workdir / "corpus.csv"
    corrupt_path = workdir / "corpus-corrupted.csv"
    write_csv(dataset, clean_path)
    injected = corrupt_csv_rows(
        clean_path, corrupt_path, config.corrupt_fraction, seed
    )

    quarantine = Quarantine()
    loaded = read_csv(
        corrupt_path, policy=QuarantinePolicy.QUARANTINE,
        quarantine=quarantine,
    )
    quarantine.to_jsonl(workdir / f"quarantine-seed{seed}.jsonl")
    resolution = UncertainERPipeline(_pipeline_config(config)).run(loaded)

    quarantined = quarantine.line_numbers()
    if quarantined != injected:
        return ScenarioOutcome(
            "corrupt-rows", seed, False,
            f"quarantined lines {quarantined} != injected {injected}",
        )
    if len(loaded) != len(dataset) - len(injected):
        return ScenarioOutcome(
            "corrupt-rows", seed, False,
            f"loaded {len(loaded)} records, expected "
            f"{len(dataset) - len(injected)}",
        )
    return ScenarioOutcome(
        "corrupt-rows", seed, True,
        f"{len(injected)} rows quarantined exactly; "
        f"{len(resolution)} pairs resolved from the remainder",
    )


@impure(reason="kills and resumes pipeline runs via on-disk checkpoints")
def _scenario_crash_resume(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """Crash after every stage in turn; resume must reproduce the bytes."""
    dataset = _build_dataset(config)
    pipeline_config = _pipeline_config(config)
    fresh = UncertainERPipeline(pipeline_config).run(dataset)
    expected = _ranked_bytes(fresh, workdir / "uninterrupted.csv")

    for stage in PIPELINE_STAGES:
        store_dir = workdir / f"checkpoints-{stage}"
        try:
            UncertainERPipeline(pipeline_config).run(
                dataset,
                checkpoints=CheckpointStore(store_dir),
                faults=FaultInjector(FaultPlan(crash_after_stage=stage)),
            )
            return ScenarioOutcome(
                "crash-resume", seed, False,
                f"SimulatedCrash after {stage!r} did not fire",
            )
        except SimulatedCrash:
            pass
        store = CheckpointStore(store_dir)
        resumed = UncertainERPipeline(pipeline_config).run(
            dataset, checkpoints=store, resume=True
        )
        actual = _ranked_bytes(resumed, workdir / f"resumed-{stage}.csv")
        if stage not in store.hits:
            return ScenarioOutcome(
                "crash-resume", seed, False,
                f"resume after {stage!r} crash did not hit its checkpoint",
            )
        if actual != expected:
            diff_path = workdir / f"diff-{stage}.patch"
            diff_path.write_text(
                _diff(expected, actual, f"resumed-after-{stage}")
            )
            return ScenarioOutcome(
                "crash-resume", seed, False,
                f"resumed output diverged after {stage!r} crash "
                f"(diff: {diff_path})",
            )
    return ScenarioOutcome(
        "crash-resume", seed, True,
        f"byte-identical resume at all {len(PIPELINE_STAGES)} "
        "stage boundaries",
    )


@impure(reason="truncates checkpoint files on disk to simulate torn writes")
def _scenario_truncated_checkpoint(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """A torn checkpoint must be detected, skipped, and recovered from."""
    dataset = _build_dataset(config)
    pipeline_config = _pipeline_config(config)
    store_dir = workdir / "checkpoints"
    fresh = UncertainERPipeline(pipeline_config).run(
        dataset, checkpoints=CheckpointStore(store_dir)
    )
    expected = _ranked_bytes(fresh, workdir / "uninterrupted.csv")

    # Damage the seed-chosen stage; delete the deeper checkpoints so the
    # resume scan actually reaches the torn file instead of hitting a
    # deeper intact one first.
    index = seed % len(PIPELINE_STAGES)
    stage = PIPELINE_STAGES[index]
    store = CheckpointStore(store_dir)
    truncate_file(store.path_for(stage))
    for deeper in PIPELINE_STAGES[index + 1:]:
        store.path_for(deeper).unlink()

    resumed = UncertainERPipeline(pipeline_config).run(
        dataset, checkpoints=store, resume=True
    )
    actual = _ranked_bytes(resumed, workdir / f"resumed-torn-{stage}.csv")
    missed_stages = [miss.stage for miss in store.misses]
    if stage not in missed_stages:
        return ScenarioOutcome(
            "truncated-checkpoint", seed, False,
            f"torn {stage!r} checkpoint was not recorded as a miss "
            f"(misses: {missed_stages})",
        )
    if actual != expected:
        diff_path = workdir / f"diff-torn-{stage}.patch"
        diff_path.write_text(_diff(expected, actual, f"torn-{stage}"))
        return ScenarioOutcome(
            "truncated-checkpoint", seed, False,
            f"recovery from torn {stage!r} checkpoint diverged "
            f"(diff: {diff_path})",
        )
    return ScenarioOutcome(
        "truncated-checkpoint", seed, True,
        f"torn {stage!r} checkpoint detected and recovered byte-identically",
    )


@impure(reason="exhausts stage budgets against a real pipeline run")
def _scenario_budget(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """An exhausted budget must degrade gracefully, loudly, and completely."""
    dataset = _build_dataset(config)
    tracer = Tracer()
    pipeline_config = PipelineConfig(
        ng=config.ng,
        expert_weighting=True,
        blocking_budget=StageBudget(max_iterations=1),
    )
    resolution = UncertainERPipeline(pipeline_config, tracer=tracer).run(
        dataset
    )
    tracer.close()
    if not resolution.degraded:
        return ScenarioOutcome(
            "budget", seed, False,
            "budget of 1 iteration did not mark the resolution degraded",
        )
    report = resolution.report
    if report is None or not report.resilience.get("degraded"):
        return ScenarioOutcome(
            "budget", seed, False,
            "degraded flag missing from the run report resilience block",
        )
    return ScenarioOutcome(
        "budget", seed, True,
        f"degraded best-so-far run completed with {len(resolution)} pairs",
    )


@impure(reason="kills a live pool worker to exercise the chunk retry path")
def _scenario_worker_crash(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """A killed worker's chunks must be retried to byte-identical output."""
    dataset = _build_dataset(config)
    pipeline_config = _pipeline_config(config)
    serial = UncertainERPipeline(pipeline_config).run(dataset)
    expected = _ranked_bytes(serial, workdir / "serial.csv")

    # The seed picks which parallel dispatch loses a worker, among the
    # dispatches this workload really makes (pair lists below
    # MIN_DISPATCH_PAIRS never dispatch); the in-process adversarial
    # executor makes the same dispatch decisions as the pool. Chunk 0
    # always exists, and every dispatch has >= 2 chunks at 2 workers,
    # so the plan is guaranteed to arm.
    probe = AdversarialScheduleExecutor(2, schedule_seed=seed)
    UncertainERPipeline(pipeline_config, executor=probe).run(dataset)
    plan = WorkerCrashPlan(map_call=seed % probe.stats.map_calls, chunk=0)
    executor = MultiprocessExecutor(workers=2, worker_fault=plan)
    survived = UncertainERPipeline(pipeline_config, executor=executor).run(
        dataset
    )
    actual = _ranked_bytes(survived, workdir / "worker-crash.csv")

    if not plan.fired:
        return ScenarioOutcome(
            "worker-crash", seed, False,
            f"crash plan (map call {plan.map_call}, chunk {plan.chunk}) "
            f"never armed — only {executor.stats.map_calls} parallel "
            "dispatches ran",
        )
    if executor.stats.worker_retries < 1:
        return ScenarioOutcome(
            "worker-crash", seed, False,
            "worker was killed but no chunk retry was recorded",
        )
    if actual != expected:
        diff_path = workdir / "diff-worker-crash.patch"
        diff_path.write_text(_diff(expected, actual, "after-worker-crash"))
        return ScenarioOutcome(
            "worker-crash", seed, False,
            f"output diverged from serial after the worker kill "
            f"(diff: {diff_path})",
        )
    return ScenarioOutcome(
        "worker-crash", seed, True,
        f"worker killed at dispatch {plan.map_call}; "
        f"{executor.stats.worker_retries} chunk(s) retried in-process; "
        "output byte-identical to serial",
    )


def _split_corpus(
    config: ChaosConfig,
) -> Tuple[Dataset, List[VictimRecord]]:
    """Corpus split into a resolved base and a stream of arrivals."""
    records = sorted(_build_dataset(config), key=lambda rec: rec.book_id)
    half = len(records) // 2
    return Dataset(records[:half], name="chaos-base"), records[half:]


def _batched(
    arrivals: Sequence[VictimRecord], size: int
) -> List[List[VictimRecord]]:
    return [
        list(arrivals[start:start + size])
        for start in range(0, len(arrivals), size)
    ]


@impure(reason="kills WAL-backed ingestion at every append boundary")
def _scenario_crash_mid_batch(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """A crash at any WAL write boundary must recover the committed prefix."""
    base, arrivals = _split_corpus(config)
    pipeline_config = _pipeline_config(config)
    batches = _batched(arrivals, 6 + seed)

    reference = IncrementalResolver(base, pipeline_config)
    for batch in batches:
        reference.add_records(batch)
    expected = _ranked_bytes(
        reference.resolution(), workdir / "uninterrupted.csv"
    )

    # Two appends per batch (begin, commit) — crash after each in turn.
    # Even boundaries die with a begin on disk and no commit, so exactly
    # that batch must be reported dropped; odd boundaries die after the
    # commit is durable, so recovery must lose nothing.
    for boundary in range(2 * len(batches)):
        wal_dir = workdir / f"wal-append{boundary}"
        plan = WalFaultPlan(crash_after_append=boundary)
        doomed = IncrementalResolver(
            base, pipeline_config, wal=WriteAheadLog(wal_dir, fault=plan)
        )
        try:
            for batch in batches:
                doomed.add_records(batch)
        except SimulatedCrash:
            pass
        assert doomed.wal is not None
        doomed.wal.close()
        if not plan.fired:
            return ScenarioOutcome(
                "crash-mid-batch", seed, False,
                f"crash at WAL append {boundary} never fired",
            )

        recovered, report = IncrementalResolver.recover(
            wal_dir, base, pipeline_config
        )
        expected_drops = 1 if boundary % 2 == 0 else 0
        if len(report.dropped_batches) != expected_drops:
            return ScenarioOutcome(
                "crash-mid-batch", seed, False,
                f"crash after append {boundary} dropped batches "
                f"{report.dropped_batches}, expected {expected_drops}",
            )
        reingested = 0
        for batch in batches:
            if batch[0].book_id not in recovered:
                recovered.add_records(batch)
                reingested += 1
        if reingested != len(batches) - report.batches_replayed:
            return ScenarioOutcome(
                "crash-mid-batch", seed, False,
                f"replayed {report.batches_replayed} + re-ingested "
                f"{reingested} != {len(batches)} batches",
            )
        actual = _ranked_bytes(
            recovered.resolution(), workdir / f"recovered-{boundary}.csv"
        )
        assert recovered.wal is not None
        recovered.wal.close()
        if actual != expected:
            diff_path = workdir / f"diff-append{boundary}.patch"
            diff_path.write_text(
                _diff(expected, actual, f"recovered-after-append-{boundary}")
            )
            return ScenarioOutcome(
                "crash-mid-batch", seed, False,
                f"recovery after append {boundary} diverged "
                f"(diff: {diff_path})",
            )
    return ScenarioOutcome(
        "crash-mid-batch", seed, True,
        f"byte-identical recovery at all {2 * len(batches)} WAL append "
        f"boundaries ({len(batches)} batches of <= {6 + seed})",
    )


@impure(reason="truncates the live WAL segment at every tail byte offset")
def _scenario_torn_wal(
    config: ChaosConfig, seed: int, workdir: Path
) -> ScenarioOutcome:
    """Every torn tail must scan to the committed prefix and recover."""
    base, arrivals = _split_corpus(config)
    pipeline_config = _pipeline_config(config)
    batches = _batched(arrivals, 6 + seed)
    pristine = workdir / "wal-pristine"
    resolver = IncrementalResolver(
        base, pipeline_config, wal=WriteAheadLog(pristine)
    )
    for batch in batches:
        resolver.add_records(batch)
    expected = _ranked_bytes(
        resolver.resolution(), workdir / "uninterrupted.csv"
    )
    assert resolver.wal is not None
    resolver.wal.close()

    live = sorted(pristine.glob("wal-*.log"))[-1]
    data = live.read_bytes()
    # The segment's final line is the last batch's commit marker; every
    # proper prefix of it is a torn write a real crash could leave.
    tail_start = data.rstrip(b"\n").rfind(b"\n") + 1
    last_id = len(batches) - 1
    offsets = range(tail_start, len(data))
    sampled = {tail_start, (tail_start + len(data)) // 2, len(data) - 1}
    recoveries = 0
    for offset in offsets:
        torn_dir = workdir / "wal-torn"
        if torn_dir.exists():
            shutil.rmtree(torn_dir)
        shutil.copytree(pristine, torn_dir)
        with open(torn_dir / live.name, "r+b") as handle:
            handle.truncate(offset)
        if offset in sampled:
            recovered, report = IncrementalResolver.recover(
                torn_dir, base, pipeline_config
            )
            ok = (
                report.batches_replayed == last_id
                and report.dropped_batches == (last_id,)
            )
            if ok:
                recovered.add_records(batches[-1])
                actual = _ranked_bytes(
                    recovered.resolution(),
                    workdir / f"recovered-offset{offset}.csv",
                )
                ok = actual == expected
                if not ok:
                    diff_path = workdir / f"diff-offset{offset}.patch"
                    diff_path.write_text(
                        _diff(expected, actual, f"torn-at-{offset}")
                    )
            assert recovered.wal is not None
            recovered.wal.close()
            recoveries += 1
            if not ok:
                return ScenarioOutcome(
                    "torn-wal", seed, False,
                    f"tear at byte {offset}: replayed "
                    f"{report.batches_replayed}, dropped "
                    f"{report.dropped_batches} — full recovery diverged "
                    f"or lost the wrong batches",
                )
        else:
            wal = WriteAheadLog(torn_dir)
            ok = (
                len(wal.committed_batches()) == last_id
                and tuple(wal.recovery.uncommitted_batches) == (last_id,)
            )
            wal.close()
            if not ok:
                return ScenarioOutcome(
                    "torn-wal", seed, False,
                    f"tear at byte {offset} did not scan down to "
                    f"{last_id} committed batches + batch {last_id} dropped",
                )
    return ScenarioOutcome(
        "torn-wal", seed, True,
        f"{len(offsets)} tear offsets scanned clean; {recoveries} full "
        f"recoveries byte-identical after re-ingesting the dropped batch",
    )


_Scenario = Callable[[ChaosConfig, int, Path], ScenarioOutcome]

#: Scenario registry, in execution order.
SCENARIOS: Dict[str, _Scenario] = {
    "corrupt-rows": _scenario_corrupt_rows,
    "crash-resume": _scenario_crash_resume,
    "truncated-checkpoint": _scenario_truncated_checkpoint,
    "budget": _scenario_budget,
    "worker-crash": _scenario_worker_crash,
    "crash-mid-batch": _scenario_crash_mid_batch,
    "torn-wal": _scenario_torn_wal,
}


@impure(reason="creates artifact directories and drives faulted runs")
def run_chaos(config: ChaosConfig) -> int:
    """Run the selected scenarios under every fault seed; 0 iff all held."""
    if config.artifacts_dir is not None:
        root = config.artifacts_dir
        root.mkdir(parents=True, exist_ok=True)
        ephemeral = False
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        ephemeral = True

    names = (
        list(SCENARIOS) if config.scenario == "all" else [config.scenario]
    )
    outcomes: List[ScenarioOutcome] = []
    for seed in config.seeds:
        for name in names:
            workdir = root / f"{name}-seed{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            outcome = SCENARIOS[name](config, seed, workdir)
            outcomes.append(outcome)
            status = "ok" if outcome.ok else "FAILED"
            print(f"chaos {name} (seed {seed}): {status} — {outcome.detail}")

    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        print(
            f"chaos: {len(failures)}/{len(outcomes)} scenario runs failed; "
            f"artifacts kept in {root}",
            file=sys.stderr,
        )
        print(
            "chaos: kept checkpoint directories accumulate — prune with "
            "`repro checkpoint gc <dir> --keep N` (add --dry-run to list)",
            file=sys.stderr,
        )
        return 1
    if ephemeral:
        shutil.rmtree(root, ignore_errors=True)
    print(f"chaos: all {len(outcomes)} scenario runs held their invariants")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="seeded fault injection against the resilience layer",
    )
    parser.add_argument("--seed", default="0",
                        help="comma-separated fault seeds (default: 0)")
    parser.add_argument("--scenario", default="all",
                        choices=("all", *SCENARIOS))
    parser.add_argument("--persons", type=int, default=40)
    parser.add_argument("--corpus-seed", type=int, default=17)
    parser.add_argument("--ng", type=float, default=3.5)
    parser.add_argument("--corrupt-fraction", type=float, default=0.05)
    parser.add_argument("--artifacts-dir", type=Path, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.resilience.chaos``."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        seeds = tuple(
            int(part) for part in str(args.seed).split(",")
            if part.strip() != ""
        )
        config = ChaosConfig(
            seeds=seeds,
            scenario=args.scenario,
            persons=args.persons,
            corpus_seed=args.corpus_seed,
            ng=args.ng,
            corrupt_fraction=args.corrupt_fraction,
            artifacts_dir=args.artifacts_dir,
        )
    except ValueError as exc:
        print(f"repro-chaos: {exc}", file=sys.stderr)
        return 2
    return run_chaos(config)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
