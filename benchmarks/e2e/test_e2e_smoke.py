"""Smoke tests of the end-to-end benchmark at a twentieth of its size.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import run_e2e
from probes import Recorder, _raw_attribute, installed, probe_table
from stats import summarize

SCALE = "0.05"
SPEC = run_e2e.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCRIPT = str(run_e2e.HERE / "run_e2e.py")


def _cli(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args], cwd=run_e2e.ROOT, capture_output=True, text=True,
        timeout=600,
    )


def _table_units(stdout):
    """metric -> unit as printed in the per-workload tables."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 6 and not line.startswith("==") and fields[0] != "metric":
            units.setdefault(fields[0], set()).add(fields[1])
    return units


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "set.json"
    proc = _cli("--scale", SCALE, "--repeat", "2", "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(path.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "trace.json"
    proc = _cli("--scale", SCALE, "--repeat", "1", "--trace", "1", "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(path.read_text())


def _check_printed(stdout, report, section):
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= len(WORKLOADS)
    printed = _table_units(stdout)
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in WORKLOADS for metric in SPEC[section]
    }
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == expected
    for metric in SPEC[section]:
        assert printed[metric["name"]] == {metric["unit"]}
    # The --json file carries the same medians, and its samples reproduce them.
    for name, entry in line["metrics"].items():
        workload, metric = name.split("/", 1)
        kept = report["workloads"][workload]["metrics"][metric]
        assert kept["median"] == entry["value"]
        assert summarize(kept["samples"]).median == kept["median"]
    assert json.loads(json.dumps(report)) == report


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    stdout, report = untraced
    _check_printed(stdout, report, "end_to_end")
    for workload in WORKLOADS:
        assert report["workloads"][workload]["metrics"]["failed_frac"]["median"] == 0


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    stdout, report = traced
    _check_printed(stdout, report, "per_layer")
    for workload in WORKLOADS:
        assert (run_e2e.RESULTS / f"{workload}.trace.json").is_file()
        assert (run_e2e.RESULTS / f"{workload}.report.json").is_file()


def test_traced_and_untraced_ranked_output_is_identical(traced):
    _stdout, report = traced
    for workload in WORKLOADS:
        phases = report["workloads"][workload]["phase_sha256"]
        assert set(phases) == {"untraced", "probed", "tracer"}
        assert len({sha for shas in phases.values() for sha in shas}) == 1


def test_layers_light_up_only_where_they_run(traced):
    _stdout, report = traced
    for workload in WORKLOADS:
        metrics = report["workloads"][workload]["metrics"]
        parallel = metrics["parallel.map_calls"]["median"]
        wal = metrics["resilience.wal_appends"]["median"]
        assert (parallel > 0) == (workload == "expertsim_w2")
        assert (wal > 0) == (workload == "ingest_wal")


def test_a_diverging_repetition_counts_as_a_failed_operation(tmp_path):
    result = run_e2e.run_workload(
        "italy_samesrc", seed=1, scale=float(SCALE), seconds=0.0, trace=False, repeat=3,
        ranked_hook=lambda run, data: data + b"#" if run == 1 else data,
        results_dir=tmp_path,
    )
    assert result["failed"] == 1
    assert result["samples"]["failed_frac"][0] > 0
    assert result["correct"] is False


def _raise_on_call(monkeypatch, owner, attr, calls):
    """Make ``owner.attr`` raise on the listed call numbers (1-based)."""
    original = getattr(owner, attr)
    seen = []

    def flaky(*args, **kwargs):
        seen.append(None)
        if len(seen) in calls:
            raise RuntimeError(f"injected failure in call {len(seen)}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, flaky)


def test_a_raised_run_is_one_failed_operation(monkeypatch, tmp_path):
    from repro.core import UncertainERPipeline

    _raise_on_call(monkeypatch, UncertainERPipeline, "run", {1})
    result = run_e2e.run_workload(
        "italy_samesrc", seed=1, scale=float(SCALE), seconds=0.0, trace=False, repeat=2,
        results_dir=tmp_path,
    )
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["samples"]["failed_frac"] == [0.5]


def test_a_raise_mid_ingest_fails_the_rest_of_the_repetition(monkeypatch, tmp_path):
    from repro.core.incremental import IncrementalResolver
    from workloads import make_workload

    # The third batch of the first repetition raises: two batches done,
    # the remaining batches and the recovery never run.
    _raise_on_call(monkeypatch, IncrementalResolver, "add_records", {3})
    workload = make_workload("ingest_wal", 1, float(SCALE))
    workload.setup()
    result = run_e2e.run_workload(
        "ingest_wal", seed=1, scale=float(SCALE), seconds=0.0, trace=False, repeat=2,
        results_dir=tmp_path,
    )
    assert result["attempted"] == 2 * workload.ops_per_run
    assert result["failed"] == workload.ops_per_run - 2
    assert result["correct"] is False


def test_a_traced_phase_that_always_raises_is_counted_not_fatal(monkeypatch, tmp_path):
    import workloads

    def no_tracer():
        raise RuntimeError("injected failure starting the program tracer")

    monkeypatch.setattr(workloads, "Tracer", no_tracer)
    result = run_e2e.run_workload(
        "italy_samesrc", seed=1, scale=float(SCALE), seconds=0.0, trace=True, repeat=1,
        results_dir=tmp_path,
    )
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert result["samples"]["obs.tracer_overhead_frac"] == [0.0]
    assert result["samples"]["mining.calls"][0] > 0


def test_probes_restore_every_patched_attribute():
    recorder = Recorder()
    probes = probe_table(recorder)
    before = [(probe, _raw_attribute(probe.owner, probe.attr)) for probe in probes]
    with pytest.raises(RuntimeError):
        with installed(recorder, probes):
            for probe, raw in before:
                assert _raw_attribute(probe.owner, probe.attr) is not raw
            raise RuntimeError("leave the block abnormally")
    for probe, raw in before:
        assert _raw_attribute(probe.owner, probe.attr) is raw


_RECORDER = Recorder()


def _mine_in_worker(_payload):
    import repro.blocking.mfiblocks as mfiblocks

    before = len(_RECORDER.spans)
    mfiblocks.maximal_frequent_itemsets([["a", "b"], ["a", "b"]], 2)
    return os.getpid(), len(_RECORDER.spans) - before


def test_probes_record_nothing_in_forked_workers():
    from repro.parallel.executor import MultiprocessExecutor

    executor = MultiprocessExecutor(2)
    try:
        with installed(_RECORDER, probe_table(_RECORDER)), _RECORDER.recording(0):
            results = executor.map_chunks(_mine_in_worker, [0, 1])
    finally:
        executor.close()
    assert any(pid != os.getpid() for pid, _ in results)
    assert [recorded for _pid, recorded in results] == [0, 0]
    assert [span.name for span in _RECORDER.spans] == ["parallel.map_chunks"]


def test_without_the_program_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run_e2e.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run_e2e.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run_e2e.py", "--workload", WORKLOADS[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
