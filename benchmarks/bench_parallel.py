"""Parallel executor — speedup and byte-identity vs. serial resolution.

The parallel layer (docs/PARALLELISM.md) promises two things at once:
``--workers N`` output is *byte-identical* to ``--workers 1``, and on a
multi-core box the pairwise-scoring fan-out buys wall-clock time.
This benchmark measures both on one corpus: it resolves the same
dataset at 1, 2, and 4 workers, requires identical ranked output, and
emits a speedup table plus one run report per worker count.

The paper ran on a 24-core server; CI and laptops vary, so the speedup
*target* (>= 1.8x at 4 workers) is reported, not asserted: each run
report carries a ``speedup_ok`` verdict (``null`` when the process has
fewer than 4 usable CPUs and the claim is vacuous) and a miss warns on
stderr; sweeping more workers than usable CPUs also warns, since such a
table measures queue wait, not throughput.
Passing ``--assert-speedup`` turns the miss into a failure — the opt-in
for machines where the throughput claim is meant to hold. The parity
assertion always runs — determinism must not depend on core count.
"""

from __future__ import annotations

import os
import sys
import time

import pytest
from bench_common import emit, emit_report

from repro.core import PipelineConfig, UncertainERPipeline
from repro.datagen import build_corpus
from repro.evaluation import format_series
from repro.obs import Tracer
from repro.parallel import make_executor, partition_evenly

WORKER_COUNTS = (1, 2, 4)
SPEEDUP_TARGET = 1.8

#: The seed baseline for the batch-scoring throughput lane: before the
#: batch kernels, the 1-CPU reference container scored 10,699 pairs in
#: 0.1424 s inside ``mfiblocks.score`` (PR-7 ledger baseline,
#: parallel_w1.report.json at commit e7c34cf) — about 75k pairs/s. The
#: vectorized kernels must clear 5x that in the same lane.
SEED_SCORE_PAIRS_PER_SEC = 75_000.0
THROUGHPUT_TARGET = 5.0


@pytest.fixture(scope="module")
def corpus():
    dataset, _persons = build_corpus(
        n_persons=350, seed=11, name="parallel-bench"
    )
    return dataset


def _ranked_lines(resolution):
    # Format before comparing: raw float equality is banned outside
    # tests/ (reprolint RL003), and the CLI contract is about emitted
    # bytes anyway.
    lines = []
    for evidence in resolution.ranked():
        a, b = evidence.pair
        lines.append(f"{a},{b},{evidence.similarity:.6f}")
    return lines


def _cpu_counts():
    """(total CPUs, CPUs this process may use) — they differ in cgroups.

    ``os.cpu_count()`` reports the machine; ``sched_getaffinity`` (where
    the platform has it) reports what the scheduler will actually give
    us, which is what a speedup table should be read against.
    """
    total = os.cpu_count() or 1
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity is not None else total
    return total, usable


def _resolve(dataset, workers):
    tracer = Tracer()
    executor = make_executor(workers)
    pipeline = UncertainERPipeline(
        PipelineConfig(ng=3.5, expert_weighting=True),
        tracer=tracer,
        executor=executor,
    )
    start = time.perf_counter()
    resolution = pipeline.run(dataset)
    elapsed = time.perf_counter() - start
    executor.close()
    return _ranked_lines(resolution), elapsed, tracer, executor


def _score_throughput(tracer):
    """(pairs, seconds, pairs/s) of the batch-scoring compute lane.

    ``mfiblocks.score`` times *only* kernel scoring (support
    enumeration is in ``mfiblocks.support``) and ``mfiblocks.pairs_scored``
    counts distinct kernel evaluations, not pair-table reads, so
    pairs_scored / span-seconds is a clean throughput for the compute
    lane.
    """
    from repro.obs import RunReport

    report = RunReport.build(tracer.aggregate)
    seconds = sum(
        stage.total_seconds
        for stage in report.stages
        if stage.name == "mfiblocks.score"
    )
    pairs = report.counters.get("mfiblocks.pairs_scored", 0)
    rate = pairs / seconds if seconds > 0 else 0.0
    return pairs, seconds, rate


def _shared_stats(executor):
    """The shared-dispatch counters for a report's parallel block."""
    stats = executor.stats
    return {
        "shared_dispatches": stats.shared_dispatches,
        "pools_created": stats.pools_created,
    }


def test_parallel_speedup_and_parity(corpus, benchmark, request):
    lines = {}
    timings = {}
    tracers = {}
    executors = {}
    for workers in WORKER_COUNTS:
        (lines[workers], timings[workers], tracers[workers],
         executors[workers]) = _resolve(corpus, workers)

    # Byte-identity first: a fast wrong answer is not a speedup.
    for workers in WORKER_COUNTS[1:]:
        assert lines[workers] == lines[1], (
            f"--workers {workers} diverged from serial output"
        )

    speedups = {w: timings[1] / timings[w] for w in WORKER_COUNTS}
    cpu_count, cpu_usable = _cpu_counts()
    if max(WORKER_COUNTS) > cpu_usable:
        # An oversubscribed sweep measures queue wait, not throughput;
        # say so where the table is read.
        print(
            f"WARNING: sweeping up to {max(WORKER_COUNTS)} workers on "
            f"{cpu_usable} usable CPUs - expect queue-wait-bound "
            "slowdowns, not speedups (see repro profile --timeline)",
            file=sys.stderr,
        )
    # The throughput claim needs cores to be real; on a 1-2 CPU runner
    # the pool only adds pickling overhead and the claim is vacuous.
    speedup_ok = (
        speedups[4] >= SPEEDUP_TARGET if cpu_usable >= 4 else None
    )

    # The batch-scoring throughput lane: serial-run kernel pairs/sec
    # against the pre-vectorization seed baseline. This is the verdict
    # that holds on any box, 1-CPU CI included — it measures the
    # kernels, not the pool.
    pairs, score_seconds, pairs_per_sec = _score_throughput(tracers[1])
    throughput_gain = pairs_per_sec / SEED_SCORE_PAIRS_PER_SEC
    throughput_ok = throughput_gain >= THROUGHPUT_TARGET
    batch_throughput = {
        "pairs_scored": pairs,
        "score_seconds": round(score_seconds, 6),
        "pairs_per_second": round(pairs_per_sec, 1),
        "baseline_pairs_per_second": SEED_SCORE_PAIRS_PER_SEC,
        "throughput_gain": round(throughput_gain, 2),
        "throughput_target": THROUGHPUT_TARGET,
        "throughput_ok": throughput_ok,
    }

    for workers in WORKER_COUNTS:
        parallel_block = {
            "workers": workers,
            "cpu_count": cpu_count,
            "cpu_usable": cpu_usable,
            "wall_seconds": round(timings[workers], 4),
            "speedup_vs_serial": round(speedups[workers], 3),
            "speedup_target": SPEEDUP_TARGET,
            "speedup_ok": speedup_ok,
            **_shared_stats(executors[workers]),
        }
        if workers == 1:
            parallel_block["batch_throughput"] = batch_throughput
        emit_report(
            f"parallel_w{workers}", tracers[workers],
            config={"label": f"resolve --workers {workers}"},
            corpus={"name": corpus.name, "n_records": len(corpus)},
            parallel=parallel_block,
            parallel_profile=executors[workers].profile_echo(),
        )

    table = format_series(
        "workers", list(WORKER_COUNTS),
        [
            ("wall s", [timings[w] for w in WORKER_COUNTS]),
            ("speedup", [speedups[w] for w in WORKER_COUNTS]),
        ],
        title=(
            f"Parallel resolution - {len(corpus)} records, "
            f"{cpu_count} CPUs ({cpu_usable} usable), "
            f"{len(lines[1])} ranked pairs "
            "(byte-identical across worker counts)"
        ),
    )
    emit("parallel_speedup", table)

    if speedup_ok is False:
        message = (
            f"expected >= {SPEEDUP_TARGET}x at 4 workers on "
            f"{cpu_usable} usable CPUs, got {speedups[4]:.2f}x"
        )
        if request.config.getoption("--assert-speedup"):
            pytest.fail(message)
        # Timing is machine-dependent: report the miss, don't gate on it.
        print(f"WARNING: speedup target missed: {message}", file=sys.stderr)

    if not throughput_ok:
        message = (
            f"batch scoring expected >= {THROUGHPUT_TARGET}x the seed "
            f"baseline ({SEED_SCORE_PAIRS_PER_SEC:.0f} pairs/s), got "
            f"{throughput_gain:.2f}x ({pairs_per_sec:.0f} pairs/s)"
        )
        if request.config.getoption("--assert-speedup"):
            pytest.fail(message)
        print(
            f"WARNING: throughput target missed: {message}", file=sys.stderr
        )

    # Kernel for pytest-benchmark: the chunk-planning step that every
    # parallel dispatch pays, independent of pool scheduling noise.
    benchmark(partition_evenly, list(range(10_000)), 8)
