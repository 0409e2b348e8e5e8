"""End-to-end benchmark: every workload, every metric, outputs checked.

Run from the repository root::

    python3 benchmarks/e2e/run_e2e.py                      # all workloads
    python3 benchmarks/e2e/run_e2e.py --workload random_cls --seed 3
    python3 benchmarks/e2e/run_e2e.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run_e2e.py --json set_a.json    # keep every sample

Each workload runs in a fresh child process (``PYTHONHASHSEED=0``, one
BLAS/OpenMP thread), one after another. The child builds its inputs
from ``--seed``, sets up several times (``setup_s`` is the median),
then repeats the workload's operation closed-loop — one
caller, each repetition starting when the previous one returned —
until ``--seconds`` have passed. Every repetition's ranked CSV is
hashed. An operation that raises, or never runs because an earlier
one in its repetition raised, fails; so does a repetition whose hash
differs from the first one's, or whose output checks fail.

``--trace 1`` is a separate run: a third of the time untraced, a third
under the benchmark's probes (``probes.py``), a third with the
program's own tracer on. It prints the per-layer metrics and writes
``results/<workload>.trace.json`` (probe spans) and
``results/<workload>.report.json`` (the program's run report).

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics of this mode
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``), each
``{"value": median, "unit": ...}``.

``--workload``, ``--seed``, ``--seconds`` and ``--trace`` are the
interface ``BENCHMARK.json`` declares: its ``command`` is called as
``<command> --workload W --seed N --seconds S --trace 0|1`` with ``S``
its ``run_seconds``, which is also the default here. ``--repeat`` and
``--scale`` exist for smoke tests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from stats import summarize, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

#: An untraced run sets up once to warm up and calibrate, then takes
#: ``SETUP_SAMPLES`` samples; ``setup_s`` is their median. Each sample is
#: the mean of ``k`` back-to-back set-ups, ``k`` chosen from the warm-up
#: so that a sample lasts at least ``SETUP_SAMPLE_SECONDS`` (at most
#: ``SETUP_BATCH_MAX`` set-ups): a single 0.08 s set-up samples the
#: processor's speed over too short a moment, and the first set-up after
#: process start runs slower than the rest.
SETUP_SAMPLES = 5
SETUP_SAMPLE_SECONDS = 0.4
SETUP_BATCH_MAX = 10
#: A child that runs longer than this is killed (with its process group).
CHILD_TIMEOUT_S = 170.0
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

RankedHook = Callable[[int, bytes], bytes]


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a measurement."""


def load_spec(path: Path = BENCHMARK) -> Dict[str, Any]:
    spec: Dict[str, Any] = json.loads(path.read_text(encoding="utf-8"))
    return spec


def metric_units(spec: Mapping[str, Any], trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics one mode must print, in file order."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


# -- the child: one workload in this process ------------------------------------


@dataclass
class Rep:
    phase: str
    run: int
    #: Operations attempted, and how many returned before a raise.
    ops: int
    done: int
    result: Any = None  # workloads.OpResult; None when the repetition raised
    sha: Optional[str] = None

    def failed_ops(self, reference: Optional[str]) -> int:
        """Operations of this repetition that failed.

        A raise fails every operation that had not returned (at least
        one). Otherwise failed output checks fail one operation and a
        ranked hash that differs from ``reference`` another.
        """
        if self.result is None:
            return max(1, self.ops - self.done)
        failures = int(bool(self.result.problems)) + int(self.sha != reference)
        return min(self.ops, failures)


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setup(workload: Any, trace: bool) -> List[float]:
    """Set up; return the seconds per set-up of each sample.

    A traced run sets up once and returns that time.
    """
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    warm_up = time.perf_counter() - start
    if trace:
        return [warm_up]
    batch = min(SETUP_BATCH_MAX, max(1, math.ceil(SETUP_SAMPLE_SECONDS / warm_up)))
    samples: List[float] = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        start = time.perf_counter()
        for _ in range(batch):
            workload.setup()
        samples.append((time.perf_counter() - start) / batch)
    return samples


def _measure(
    workload: Any,
    workdir: Path,
    phase: str,
    seconds: float,
    repeat: Optional[int],
    reps: List[Rep],
    recorder: Any = None,
    program_tracer: bool = False,
    ranked_hook: Optional[RankedHook] = None,
) -> List[Rep]:
    """Closed-loop repetitions until ``seconds`` pass (or ``repeat`` done)."""
    from workloads import Progress, ranked_csv

    done: List[Rep] = []
    start = time.perf_counter()
    while True:
        if repeat is not None:
            if len(done) >= repeat:
                break
        elif done and time.perf_counter() - start >= seconds:
            break
        run = len(reps)
        rep = Rep(phase, run, ops=workload.ops_per_run, done=0)
        progress = Progress()
        around = recorder.recording(run) if recorder is not None else nullcontext()
        try:
            result = workload.run_once(progress, around, program_tracer, workdir)
            ranked = ranked_csv(result.resolution, workdir)
        except Exception:  # failed operations are counted, not fatal
            traceback.print_exc(file=sys.stderr)
        else:
            if ranked_hook is not None:
                ranked = ranked_hook(run, ranked)
            rep.result = result
            rep.sha = hashlib.sha256(ranked).hexdigest()
        rep.done = progress.done
        reps.append(rep)
        done.append(rep)
    return done


def _median_seconds(reps: Sequence[Rep]) -> Optional[float]:
    """Median timed seconds of the repetitions that did not raise."""
    seconds = [rep.result.seconds for rep in reps if rep.result is not None]
    return statistics.median(seconds) if seconds else None


def _ingest_samples(results: Sequence[Any]) -> Dict[str, List[float]]:
    """Batch latency and recovery numbers (zeros when nothing was ingested)."""
    latencies = [1000.0 * seconds for result in results for seconds in result.batch_seconds]
    if not latencies:
        return {
            "core.ingest_batch_p50_ms": [0.0],
            "core.ingest_batch_tail_ms": [0.0],
            "core.ingest_batch_tail_pct": [0.0],
            "core.ingest_batch_samples": [0.0],
            "resilience.recover_s": [0.0],
        }
    tail = tail_percentile(latencies)
    return {
        "core.ingest_batch_p50_ms": latencies,
        # 0 when there are too few batches for any percentile to have
        # ten samples beyond it.
        "core.ingest_batch_tail_ms": [tail.value if tail else 0.0],
        "core.ingest_batch_tail_pct": [tail.pct if tail else 0.0],
        "core.ingest_batch_samples": [float(len(latencies))],
        "resilience.recover_s": [result.phases["recover_s"] for result in results],
    }


def run_workload(
    name: str,
    seed: int,
    scale: float,
    seconds: float,
    trace: bool,
    repeat: Optional[int] = None,
    ranked_hook: Optional[RankedHook] = None,
    results_dir: Path = RESULTS,
) -> Dict[str, Any]:
    """Set up, measure and check one workload in this process.

    ``ranked_hook(run, csv_bytes)`` may replace a repetition's ranked
    bytes before hashing; tests use it to inject a divergence.
    """
    from probes import Recorder, installed, layer_metrics, probe_table
    from workloads import make_workload

    workload = make_workload(name, seed, scale)
    workdir = results_dir / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_seconds = _time_setup(workload, trace)
        reps: List[Rep] = []
        budget = seconds / 3 if trace else seconds
        untraced = _measure(workload, workdir, "untraced", budget, repeat, reps,
                            ranked_hook=ranked_hook)
        probed: List[Rep] = []
        traced: List[Rep] = []
        if trace:
            recorder = Recorder()
            origin = time.perf_counter()
            with installed(recorder, probe_table(recorder)):
                probed = _measure(workload, workdir, "probed", budget, repeat, reps,
                                  recorder=recorder, ranked_hook=ranked_hook)
            traced = _measure(workload, workdir, "tracer", budget, repeat, reps,
                              program_tracer=True, ranked_hook=ranked_hook)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems: List[str] = []
    shas = [rep.sha for rep in reps if rep.sha is not None]
    reference = shas[0] if shas else None
    for rep in reps:
        where = f"{rep.phase} repetition {rep.run}"
        if rep.result is None:
            problems.append(f"{where} raised after {rep.done} of {rep.ops} operations")
            continue
        problems.extend(f"{where}: {problem}" for problem in rep.result.problems)
        if rep.sha != reference:
            problems.append(f"{where}: ranked output differs")
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed_ops(reference) for rep in reps)

    ok = [rep.result for rep in untraced if rep.result is not None]
    if not ok or (trace and not any(rep.result is not None for rep in probed)):
        raise BenchmarkError(f"{name}: no repetition of a measured phase returned: {problems}")
    samples: Dict[str, List[float]] = {}
    if not trace:
        samples["setup_s"] = setup_seconds
        samples["run_s"] = [result.seconds for result in ok]
        samples["records_per_s"] = [
            workload.records_per_op / result.phases.get("ingest_s", result.seconds)
            for result in ok
        ]
        samples["peak_rss_mb"] = [_peak_rss_mb()]
        for metric in ("precision", "recall", "f1"):
            samples[metric] = []
        for result in ok:
            quality = workload.gold.evaluate(result.resolution.pairs)
            samples["precision"].append(quality.precision)
            samples["recall"].append(quality.recall)
            samples["f1"].append(quality.f1)
        if any(result.batch_seconds for result in ok):
            samples.update(_ingest_samples(ok))
    else:
        for rep in probed:
            if rep.result is None:
                continue
            layer = layer_metrics(recorder, rep.run, rep.result.seconds, rep.result.executor_stats)
            layer["resilience.wal_bytes"] = float(rep.result.wal_bytes)
            for metric, value in layer.items():
                samples.setdefault(metric, []).append(value)
        # Batch latencies come from the untraced repetitions; recovery
        # time stays the probed one, beside the replay time derived from it.
        for metric, values in _ingest_samples(ok).items():
            samples.setdefault(metric, values)
        untraced_s = _median_seconds(untraced)
        for metric, phase in (("obs.probe_overhead_frac", probed),
                              ("obs.tracer_overhead_frac", traced)):
            phase_s = _median_seconds(phase)
            # 0 when no repetition of the phase returned; its failures
            # are counted in ``failed``.
            samples[metric] = [phase_s / untraced_s - 1.0 if phase_s and untraced_s else 0.0]
        _write_trace(results_dir, name, seed, scale, recorder, origin, probed, traced)
    # Not in BENCHMARK.json (a good run reads 0), but printed and kept.
    samples["failed_frac"] = [failed / attempted]

    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "ranked_sha256": reference,
        "phase_sha256": {
            phase: [rep.sha for rep in reps if rep.phase == phase]
            for phase in ("untraced", "probed", "tracer")
            if any(rep.phase == phase for rep in reps)
        },
        "samples": samples,
    }


def _write_trace(
    results_dir: Path,
    name: str,
    seed: int,
    scale: float,
    recorder: Any,
    origin: float,
    probed: Sequence[Rep],
    traced: Sequence[Rep],
) -> None:
    results_dir.mkdir(parents=True, exist_ok=True)
    trace = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "op_seconds": {str(rep.run): rep.result.seconds for rep in probed if rep.result},
        **recorder.to_json(origin),
    }
    (results_dir / f"{name}.trace.json").write_text(json.dumps(trace, indent=1) + "\n")
    reports = [rep.result.report for rep in traced if rep.result and rep.result.report]
    if reports:
        reports[-1].to_json(results_dir / f"{name}.report.json")


def child_main(args: argparse.Namespace, spec: Mapping[str, Any]) -> int:
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.scale, args.seconds, bool(args.trace), args.repeat,
    )
    missing = sorted(set(metric_units(spec, bool(args.trace))) - set(result["samples"]))
    if missing:
        raise BenchmarkError(f"{args.workload} computed no value for {missing}")
    print(json.dumps(result))
    return 0


# -- the parent: spawn, summarize, print --------------------------------------------


def _spawn(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.repeat is not None:
        command += ["--repeat", str(args.repeat)]
    env = dict(os.environ, **CHILD_ENV)
    # Own process group, so a child that has to be stopped is stopped
    # together with its pool workers.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:  # timeout, Ctrl-C, or SIGTERM (see main)
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s"
            ) from None
        raise
    lines = stdout.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: child exited with code {process.returncode}")
    result: Dict[str, Any] = json.loads(lines[-1])
    return result


def _summaries(result: Mapping[str, Any], units: Mapping[str, str]) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    names = list(units) + sorted(set(result["samples"]) - set(units))
    for name in names:
        samples = result["samples"].get(name)
        if samples is None:
            continue
        summary = summarize(samples)
        out[name] = {
            "unit": units.get(name, ""),
            "median": summary.median,
            "q1": summary.q1,
            "q3": summary.q3,
            "n": summary.n,
            "samples": samples,
        }
    return out


def _print_table(result: Mapping[str, Any], metrics: Mapping[str, Mapping[str, Any]]) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
        f"attempted={result['attempted']}  failed={result['failed']}  "
        f"correct={'yes' if result['correct'] else 'NO'}"
    )
    print(f"   ranked_sha256={result['ranked_sha256']}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    print(f"   {'metric':<34} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'n':>6}")
    for name, entry in metrics.items():
        print(
            f"   {name:<34} {entry['unit']:<10} {entry['median']:>14.6g} "
            f"{entry['q1']:>14.6g} {entry['q3']:>14.6g} {entry['n']:>6}"
        )


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    # Part of the command interface BENCHMARK.json declares (see the
    # module docstring); --repeat is the smoke tests' way to shorten a run.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: separate traced run printing per-layer metrics")
    parser.add_argument("--json", type=Path, help="write every sample to this file")
    parser.add_argument("--repeat", type=int, help="smoke tests: exactly N repetitions")
    parser.add_argument("--scale", type=float, default=1.0, help="smoke tests: input size factor")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminated(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.repeat is not None and args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args, spec)
    # Unwind through _spawn's cleanup instead of dying with a child running.
    signal.signal(signal.SIGTERM, _terminated)

    wanted = metric_units(spec, bool(args.trace))
    units = dict(wanted)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        units.setdefault(metric["name"], metric["unit"])
    units["failed_frac"] = "fraction"
    selected = [args.workload] if args.workload else names
    report: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "workloads": {},
    }
    try:
        results = [_spawn(args, name) for name in selected]
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    line_metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        metrics = _summaries(result, units)
        _print_table(result, metrics)
        report["workloads"][result["workload"]] = {
            key: result[key]
            for key in ("correct", "attempted", "failed", "problems", "ranked_sha256",
                        "phase_sha256")
        }
        report["workloads"][result["workload"]]["metrics"] = metrics
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name, unit in wanted.items():
            line_metrics[prefix + name] = {"value": metrics[name]["median"], "unit": unit}
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": line_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
