"""The determinism sanitizers: hash-seed and schedule gates.

Two gates over the differential harness of :mod:`repro.gates`, each an
oracle and a sweep of cells that must render the same ranked text:

``hash-seed`` (default)
    Python randomizes ``str`` hashing per process, so any path that
    lets ``set``/``dict`` iteration order reach output produces
    different bytes on different runs. reprolint's RL002 and RL100-RL103
    catch such paths statically; this is the dynamic counterpart. The
    oracle is a ``python -m repro.sanitize --emit`` child under
    ``PYTHONHASHSEED=0``; the variants are children under seeds 1..n.
    ``--workers`` is passed to every child, folding the parallel layer's
    chunking and merging into the same requirement.

``schedule`` (``--schedule``)
    The dynamic counterpart of reprolint's RL200-RL205 parallel-safety
    pass, in-process. The oracle is the serial run; the variants run
    under :class:`~repro.parallel.AdversarialScheduleExecutor`, which
    permutes chunk execution order per ``(schedule seed, dispatch)``,
    for every seed × worker count, plus a :class:`~repro.obs.Tracer` on
    at workers 1 and 2 (tracing must not change what it measures). A
    second gate, ``schedule-expertsim``, compares the Eq.-1 ExpertSim
    serial run with one hostile ExpertSim cell per seed: its greedy
    claim loop is the order-sensitive kernel the pair-table fill
    dispatches. There is one scoring dispatch, MFIBlocks' pair scoring
    (:data:`SCORING_DISPATCHES`; the classifier ranks serially under
    every executor), so the two gates attack its max-merge under both
    scorers. A sweep in which that merge, or its ExpertSim fill
    (:data:`EXPERTSIM_DISPATCH`), never ran in a hostile order proves
    nothing about it, so it exits 2 instead of passing.

Both resolve the fixed gate corpus; only ``--persons`` sizes it. Exit
codes are the harness's: 0 every gate held, 1 an invariant failed, 2 bad
invocation or a vacuous sweep.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.gates import (
    Gate,
    GateConfig,
    GateFailure,
    Variant,
    build_dataset,
    int_list,
    pipeline_config,
    ranked_text,
    require,
    run_gates,
)

__all__ = [
    "EXPERTSIM_DISPATCH",
    "EXPERTSIM_SUFFIX",
    "SCORING_DISPATCHES",
    "Cell",
    "hash_seed_gate",
    "inprocess_runner",
    "main",
    "resolve_cell",
    "schedule_gates",
    "subprocess_runner",
]

#: The merge the schedule sweep exists to attack: MFIBlocks' pair-
#: scoring max-merge, the one scoring dispatch. Pair lists below the
#: executor's dispatch threshold are scored inline, out of reach.
SCORING_DISPATCHES = ("mfiblocks.score_pairs",)

#: Dispatch labels of an ``expert_sim`` cell carry this suffix, so the
#: vacuity check can tell the ExpertSim pair-table fill apart.
EXPERTSIM_SUFFIX = " (expert_sim)"

#: The ExpertSim fill that ``schedule-expertsim`` exists to attack.
EXPERTSIM_DISPATCH = SCORING_DISPATCHES[0] + EXPERTSIM_SUFFIX

#: Worker counts of the traced cells (serial, and one real pool).
TRACED_WORKERS = (1, 2)

#: Default corpus sizes: the schedule sweep needs a minsup level with
#: >= 512 pairs to dispatch any scoring at all.
HASH_PERSONS = 40
SCHEDULE_PERSONS = 120


@dataclass(frozen=True)
class Cell:
    """One seeded resolution: the seed is PYTHONHASHSEED for the hash
    gate and the adversary's schedule seed (``None``: the production
    executor) for the schedule gates."""

    seed: Optional[int] = None
    workers: int = 1
    traced: bool = False
    expert_sim: bool = False


#: Renders one cell's ranked text.
Runner = Callable[[Cell], str]


def resolve_cell(
    persons: int, cell: Cell, shuffled: Optional[Set[str]] = None
) -> str:
    """Resolve the gate corpus in this process as ``cell`` says.

    ``shuffled`` collects the label of every adversarial dispatch that
    had two or more chunks — the merges that really saw a hostile
    order — with :data:`EXPERTSIM_SUFFIX` appended for an
    ``expert_sim`` cell.
    """
    from repro.core import UncertainERPipeline
    from repro.obs import Tracer
    from repro.parallel import AdversarialScheduleExecutor, make_executor

    executor = (
        make_executor(cell.workers) if cell.seed is None
        else AdversarialScheduleExecutor(cell.workers, cell.seed)
    )
    tracer = Tracer() if cell.traced else None
    pipeline = UncertainERPipeline(
        pipeline_config(expert_sim=cell.expert_sim),
        tracer=tracer, executor=executor,
    )
    try:
        resolution = pipeline.run(build_dataset(persons))
    finally:
        executor.close()
        if tracer is not None:
            tracer.close()
    if shuffled is not None and isinstance(
        executor, AdversarialScheduleExecutor
    ):
        suffix = EXPERTSIM_SUFFIX if cell.expert_sim else ""
        shuffled.update(
            label + suffix
            for label, order in zip(executor.label_log, executor.schedule_log)
            if len(order) > 1
        )
    return ranked_text(resolution)


def subprocess_runner(config: GateConfig) -> Runner:
    """One ``python -m repro.sanitize --emit`` child per cell, run under
    the cell's seed as PYTHONHASHSEED. A timeout or non-zero exit raises
    :class:`~repro.gates.GateFailure` with the tail of the child's
    stderr."""

    def run(cell: Cell) -> str:
        # The child must resolve `repro` to the same tree as this process.
        path = [str(Path(__file__).resolve().parents[1])]
        path += filter(None, [os.environ.get("PYTHONPATH")])
        env = dict(
            os.environ, PYTHONHASHSEED=str(cell.seed),
            PYTHONPATH=os.pathsep.join(path),
        )
        argv = [
            sys.executable, "-m", "repro.sanitize", "--emit",
            "--persons", str(config.persons), "--workers", str(cell.workers),
        ]
        child = f"child (PYTHONHASHSEED={cell.seed})"
        try:
            completed = subprocess.run(
                argv, env=env, capture_output=True, text=True,
                timeout=config.timeout,
            )
        except subprocess.TimeoutExpired:
            raise GateFailure(
                f"{child} timed out after {config.timeout:g} s"
            ) from None
        tail = "\n".join(completed.stderr.splitlines()[-20:])
        require(
            completed.returncode == 0,
            f"{child} exited {completed.returncode}:\n{tail}",
        )
        return completed.stdout

    return run


def inprocess_runner(
    persons: int, shuffled: Optional[Set[str]] = None
) -> Runner:
    """Resolve each cell in-process through :func:`resolve_cell`."""
    return partial(resolve_cell, persons, shuffled=shuffled)


def _sweep(
    name: str, runner: Runner, cells: Sequence[Tuple[str, Cell]]
) -> Gate:
    """A gate whose first cell is the oracle and the rest its variants."""
    variants = [
        Variant(label, lambda workdir, cell=cell: runner(cell))
        for label, cell in cells
    ]
    return Gate(name, lambda workdir: (variants[0], variants[1:]))


def hash_seed_gate(
    config: GateConfig, runner: Optional[Runner] = None
) -> Gate:
    """The PYTHONHASHSEED=0 child against every seed × worker count."""
    if 0 in config.seeds:
        raise ValueError("baseline hash seed 0 must not recur in the seeds")
    cells = [Cell(0, config.workers[0])] + [
        Cell(seed, workers)
        for workers in config.workers for seed in config.seeds
    ]
    return _sweep(
        "hash-seed",
        runner or subprocess_runner(config),
        [(f"PYTHONHASHSEED={c.seed} workers={c.workers}", c) for c in cells],
    )


def schedule_gates(config: GateConfig, runner: Runner) -> List[Gate]:
    """The serial oracle against every hostile seed × worker count cell
    and the traced cells; the ExpertSim serial oracle against one
    hostile ExpertSim cell per seed, at the widest worker count."""
    widest = max(config.workers)
    return [
        _sweep("schedule", runner, [("serial", Cell())] + [
            (f"schedule_seed={seed} workers={workers}", Cell(seed, workers))
            for seed in config.seeds for workers in config.workers
        ] + [
            (f"traced workers={workers}", Cell(workers=workers, traced=True))
            for workers in TRACED_WORKERS
        ]),
        _sweep("schedule-expertsim", runner, [
            ("expertsim serial", Cell(expert_sim=True)),
        ] + [
            (f"expertsim schedule_seed={seed} workers={widest}",
             Cell(seed, widest, expert_sim=True))
            for seed in config.seeds
        ]),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="re-run a small seeded resolution under permuted "
        "PYTHONHASHSEED values (or, with --schedule, hostile chunk "
        "schedules) and require byte-identical ranked output",
    )
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="number of non-baseline hash seeds to try (default: 3)",
    )
    parser.add_argument(
        "--persons", type=int, default=None,
        help=f"synthetic-corpus size (default: {HASH_PERSONS}; "
        f"{SCHEDULE_PERSONS} with --schedule)",
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


def _config(args: argparse.Namespace) -> GateConfig:
    flag, seeds = (
        ("--schedule-seeds", args.schedule_seeds) if args.schedule
        else ("--seeds", args.seeds)
    )
    if seeds < 1:
        raise ValueError(f"{flag} must be >= 1")
    default_persons = SCHEDULE_PERSONS if args.schedule else HASH_PERSONS
    return GateConfig(
        persons=default_persons if args.persons is None else args.persons,
        seeds=tuple(range(1, seeds + 1)),
        workers=(
            int_list(args.schedule_workers, "--schedule-workers")
            if args.schedule else (args.workers,)
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.sanitize`` and ``repro sanitize``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    if args.emit:
        cell = Cell(workers=args.workers)
        sys.stdout.write(resolve_cell(config.persons, cell))
        return 0
    if not args.schedule:
        return run_gates(
            parser.prog, [hash_seed_gate(config)], diff_out=args.diff_out
        )

    shuffled: Set[str] = set()

    def unshuffled() -> Optional[str]:
        missing = [
            d for d in (*SCORING_DISPATCHES, EXPERTSIM_DISPATCH)
            if d not in shuffled
        ]
        return (
            f"no {' or '.join(missing)} dispatch ran under a hostile "
            "schedule (those pair lists were scored inline); raise "
            "--persons or add a worker count > 1"
        ) if missing else None

    code = run_gates(
        parser.prog,
        schedule_gates(config, inprocess_runner(config.persons, shuffled)),
        diff_out=args.diff_out,
        vacuity=unshuffled,
    )
    print(f"shuffled dispatches: {', '.join(sorted(shuffled)) or 'none'}")
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
