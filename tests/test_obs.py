"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.blocking.baselines.token_based import StandardBlocking
from repro.cli import main as cli_main
from repro.core import PipelineConfig, UncertainERPipeline
from repro.core.pipeline import corpus_stats
from repro.datagen import build_corpus
from repro.obs import (
    NULL_TRACER,
    SCHEMA_VERSION,
    Aggregator,
    InMemorySink,
    JsonlSink,
    ManualClock,
    MonotonicClock,
    NullSink,
    RunReport,
    Tracer,
    strip_timestamps,
    strip_volatile,
)
from repro.version import repro_version


@pytest.fixture(scope="module")
def small_corpus():
    dataset, _ = build_corpus(n_persons=50, communities=("italy",), seed=29)
    return dataset


class TestClocks:
    def test_monotonic_clock_is_monotone(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(5)]
        assert readings == sorted(readings)

    def test_manual_clock_advances_only_when_told(self):
        clock = ManualClock(start=10.0)
        assert clock.now() == 10.0
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_manual_clock_tick(self):
        clock = ManualClock(tick=1.0)
        assert [clock.now() for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_manual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            ManualClock(tick=-1.0)
        with pytest.raises(ValueError):
            ManualClock().advance(-0.1)


class TestDisabledTracer:
    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.aggregate is None

    def test_span_is_shared_noop(self):
        first = NULL_TRACER.span("a", key=1)
        second = NULL_TRACER.span("b")
        assert first is second  # one shared instance, no allocation
        with first:
            with second:
                pass

    def test_counters_and_gauges_are_noops(self):
        NULL_TRACER.count("x", 5)
        NULL_TRACER.gauge("y", 1.0)
        assert NULL_TRACER.aggregate is None


class TestTracer:
    def test_nested_spans_paths_and_depths(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
        with tracer.span("outer"):
            with tracer.span("inner", minsup=4):
                pass
        kinds = [event["event"] for event in sink.events]
        assert kinds == [
            "trace_start", "span_start", "span_start", "span_end", "span_end",
        ]
        inner_end = sink.events[3]
        assert inner_end["path"] == "outer/inner"
        assert inner_end["depth"] == 2
        assert inner_end["attrs"] == {"minsup": 4}
        outer_end = sink.events[4]
        assert outer_end["path"] == "outer"
        assert outer_end["depth"] == 1

    def test_trace_start_carries_schema_and_version(self):
        sink = InMemorySink()
        Tracer(clock=ManualClock(), sinks=[sink])
        head = sink.events[0]
        assert head["event"] == "trace_start"
        assert head["schema"] == SCHEMA_VERSION
        assert head["version"] == repro_version()

    def test_sequence_numbers_are_contiguous(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(), sinks=[sink])
        with tracer.span("a"):
            tracer.count("c")
            tracer.gauge("g", 2.0)
        assert [event["seq"] for event in sink.events] == list(
            range(len(sink.events))
        )

    def test_span_end_emitted_on_exception(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert sink.events[-1]["event"] == "span_end"
        assert tracer._stack == []  # stack unwound

    def test_error_span_records_exception_type(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
        with pytest.raises(KeyError):
            with tracer.span("doomed", minsup=3):
                raise KeyError("gone")
        end = sink.events[-1]
        assert end["event"] == "span_end"
        assert end["attrs"] == {"minsup": 3, "error": "KeyError"}
        # A clean exit of the same span carries no error attr.
        with tracer.span("fine", minsup=3):
            pass
        assert sink.events[-1]["attrs"] == {"minsup": 3}

    def test_error_span_flushes_jsonl_sink(self, tmp_path):
        # The crash-forensics contract: everything emitted up to and
        # including the failing span_end is on disk before the
        # exception propagates, even though the sink is never closed.
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("doomed"):
                    raise RuntimeError("boom")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        ends = [e for e in lines if e["event"] == "span_end"]
        assert [e["name"] for e in ends] == ["doomed", "outer"]
        assert all(e["attrs"]["error"] == "RuntimeError" for e in ends)

    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("a"):
            pass
        stats = tracer.aggregate.stages["a"]
        assert stats.calls == 1
        # tick=1.0 and exactly two reads (start, end) => duration 1.0
        assert stats.total_seconds == pytest.approx(1.0)

    def test_counter_accumulates_and_gauge_overwrites(self):
        tracer = Tracer(clock=ManualClock())
        tracer.count("pairs", 3)
        tracer.count("pairs", 4)
        tracer.gauge("size", 1.0)
        tracer.gauge("size", 9.0)
        assert tracer.aggregate.counters["pairs"] == 7
        assert tracer.aggregate.gauges["size"] == pytest.approx(9.0)


class TestSinks:
    def test_null_sink_discards(self):
        sink = NullSink()
        sink.emit({"event": "counter"})
        sink.close()

    def test_jsonl_sink_writes_sorted_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"b": 2, "a": 1})
        sink.close()
        assert path.read_text() == '{"a": 1, "b": 2}\n'

    def test_jsonl_sink_rejects_emit_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"a": 1})

    def test_jsonl_sink_leaves_foreign_handle_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as handle:
            sink = JsonlSink(handle)
            sink.emit({"a": 1})
            sink.close()
            assert not handle.closed

    def test_jsonl_sink_flush_makes_lines_visible(self, tmp_path):
        # Flush is the abnormal-exit story: events written so far must
        # reach disk without closing the sink.
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"a": 1})
        sink.flush()
        assert path.read_text() == '{"a": 1}\n'
        sink.emit({"b": 2})
        sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"a": 1})
        sink.close()
        sink.close()  # second close must be a no-op, not an error

    def test_jsonl_sink_flush_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.flush()

    def test_jsonl_sink_close_flushes_foreign_handle(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as handle:
            sink = JsonlSink(handle)
            sink.emit({"a": 1})
            sink.close()
            # Left open for the caller, but flushed: the line is on disk.
            assert not handle.closed
            assert path.read_text() == '{"a": 1}\n'

    def test_base_sink_flush_is_a_noop(self):
        NullSink().flush()

    def test_strip_timestamps(self):
        event = {"event": "span_end", "t": 1.5, "duration": 0.5, "name": "x"}
        assert strip_timestamps(event) == {"event": "span_end", "name": "x"}

    def test_strip_volatile_removes_schedule_attrs(self):
        event = {
            "event": "span_end", "t": 1.5, "duration": 0.5, "name": "x",
            "attrs": {"worker": 1234, "chunk": 2},
        }
        assert strip_volatile(event) == {
            "event": "span_end", "name": "x", "attrs": {"chunk": 2},
        }

    def test_strip_volatile_drops_empty_attrs(self):
        event = {"event": "span_start", "name": "x",
                 "attrs": {"worker": 99}}
        assert strip_volatile(event) == {"event": "span_start", "name": "x"}


class TestAggregator:
    def test_stage_order_is_tree_order(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("root"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        paths = list(tracer.aggregate.stages)
        assert paths == ["root", "root/first", "root/second"]

    def test_total_seconds_sums_depth_one_only(self):
        agg = Aggregator()
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[agg])
        with tracer.span("a"):
            with tracer.span("nested"):
                pass
        with tracer.span("b"):
            pass
        # a spans 3 ticks (start..end with nested inside), b spans 1.
        assert agg.total_seconds() == pytest.approx(
            agg.stages["a"].total_seconds + agg.stages["b"].total_seconds
        )
        assert "a/nested" not in ("a", "b")  # nested excluded from total


class TestRunReport:
    def _traced_report(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("stage.one"):
            tracer.count("things", 2)
        with tracer.span("stage.two"):
            tracer.gauge("level", 4.0)
        return RunReport.build(
            tracer.aggregate,
            config={"label": "Base"},
            corpus={"n_records": 10},
        )

    def test_build_snapshots_aggregate(self):
        report = self._traced_report()
        assert report.version == repro_version()
        assert report.schema_version == SCHEMA_VERSION
        assert [s.path for s in report.stages] == ["stage.one", "stage.two"]
        assert report.counters == {"things": 2}
        assert report.gauges == {"level": 4.0}
        assert report.total_seconds == pytest.approx(
            sum(s.total_seconds for s in report.stages if s.depth == 1)
        )

    def test_json_round_trip(self, tmp_path):
        report = self._traced_report()
        path = tmp_path / "report.json"
        report.to_json(path)
        loaded = RunReport.from_json(path)
        assert loaded.to_dict() == report.to_dict()

    def test_json_schema_fields(self, tmp_path):
        report = self._traced_report()
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["version"] == repro_version()
        assert set(payload) == {
            "schema", "version", "total_seconds", "stages",
            "counters", "gauges", "config", "corpus", "resilience",
            "parallel", "parallel_profile",
        }

    def test_format_table_lists_stages_and_counters(self):
        text = self._traced_report().format_table()
        assert "stage.one" in text
        assert "stage.two" in text
        assert "things" in text
        assert "total" in text
        assert repro_version() in text

    # -- forward compatibility: parallel_profile is additive in v1 ----------

    def _legacy_payload(self):
        """A report JSON as written before the parallel_profile block."""
        payload = self._traced_report().to_dict()
        del payload["parallel_profile"]
        return payload

    def test_legacy_payload_without_profile_loads(self):
        report = RunReport.from_dict(self._legacy_payload())
        assert report.parallel_profile == {}
        assert report.schema_version == SCHEMA_VERSION

    def test_legacy_payload_renders_table_and_timeline(self):
        # Old reports must keep rendering: the table without a profile
        # line, the timeline as a notice — never a KeyError.
        report = RunReport.from_dict(self._legacy_payload())
        table = report.format_table()
        assert "stage.one" in table
        assert "parallel profile:" not in table
        timeline = report.format_timeline()
        assert "no parallel profile recorded" in timeline

    def test_report_with_profile_round_trips(self, tmp_path):
        profile = {
            "executor": "multiprocess",
            "workers": 2,
            "parent_pid": 100,
            "profile_memory": False,
            "dispatches": [{
                "label": "parallel.map", "map_call": 0, "chunks": 1,
                "wall_seconds": 1.0, "compute_seconds": 0.6,
                "queue_seconds": 0.2, "pickle_seconds": 0.1,
                "payload_bytes_in": 2048, "accounted_fraction": 0.95,
            }],
            "chunks": [{
                "chunk": 0, "worker": 101, "compute_seconds": 0.6,
            }],
            "lanes": [{
                "worker": 101, "role": "worker", "chunks": 1,
                "compute_seconds": 0.6, "queue_seconds": 0.2,
                "pickle_seconds": 0.1, "payload_bytes_in": 2048,
                "payload_bytes_out": 512,
            }],
            "totals": {
                "dispatches": 1, "chunks": 1, "wall_seconds": 1.0,
                "compute_seconds": 0.6, "queue_seconds": 0.2,
                "pickle_seconds": 0.1, "accounted_seconds": 0.95,
                "accounted_fraction": 0.95,
                "tracemalloc_peak_bytes": None,
            },
        }
        payload = self._traced_report().to_dict()
        payload["parallel_profile"] = profile
        path = tmp_path / "profiled.report.json"
        path.write_text(json.dumps(payload))
        loaded = RunReport.from_json(path)
        assert loaded.parallel_profile == profile
        assert "parallel profile: 1 dispatches" in loaded.format_table()
        timeline = loaded.format_timeline()
        assert "parallel timeline" in timeline
        assert "accounting: 95.0%" in timeline

    def test_timeline_tolerates_sparse_profile_keys(self):
        # A block from a different build missing optional keys must
        # still render — every access is defensive.
        report = RunReport.from_dict(self._legacy_payload())
        report.parallel_profile = {
            "chunks": [{"chunk": 0}],
            "lanes": [{}],
            "dispatches": [{}],
        }
        timeline = report.format_timeline()
        assert "parallel timeline" in timeline
        assert "accounting:" in timeline


class TestPipelineInstrumentation:
    CONFIG = PipelineConfig(max_minsup=4, ng=3.0, expert_weighting=True)

    def test_default_run_has_no_report(self, small_corpus):
        resolution = UncertainERPipeline(self.CONFIG).run(small_corpus)
        assert resolution.report is None

    def test_traced_run_attaches_report(self, small_corpus):
        tracer = Tracer()
        resolution = UncertainERPipeline(self.CONFIG, tracer=tracer).run(
            small_corpus
        )
        report = resolution.report
        assert report is not None
        stage_names = {s.name for s in report.stages}
        assert {"pipeline.run", "pipeline.block", "mfiblocks.run",
                "mfiblocks.minsup", "fpgrowth.fpmax"} <= stage_names
        assert report.counters["pipeline.records"] == len(small_corpus)
        assert report.counters["pipeline.candidate_pairs"] == len(resolution)
        assert report.config["label"] == self.CONFIG.describe()
        assert report.corpus["n_records"] == len(small_corpus)

    def test_traced_output_matches_untraced(self, small_corpus):
        plain = UncertainERPipeline(self.CONFIG).run(small_corpus)
        traced = UncertainERPipeline(self.CONFIG, tracer=Tracer()).run(
            small_corpus
        )
        assert plain.pairs == traced.pairs
        assert [e.similarity for e in plain.ranked()] == [
            e.similarity for e in traced.ranked()
        ]

    def test_stage_times_cover_pipeline_total(self, small_corpus):
        """Acceptance: per-stage times sum to within 10% of the total.

        The direct children of ``pipeline.run`` must account for at
        least 90% of its wall time — the instrumentation covers the hot
        path, not a sliver of it.
        """
        tracer = Tracer()
        UncertainERPipeline(self.CONFIG, tracer=tracer).run(small_corpus)
        stages = tracer.aggregate.stages
        total = stages["pipeline.run"].total_seconds
        children = sum(
            stats.total_seconds
            for path, stats in stages.items()
            if stats.depth == 2 and path.startswith("pipeline.run/")
        )
        assert total > 0
        assert abs(total - children) <= 0.1 * total

    def test_same_source_counter(self, small_corpus):
        config = PipelineConfig(
            max_minsup=4, ng=3.0, same_source_discard=True
        )
        tracer = Tracer()
        resolution = UncertainERPipeline(config, tracer=tracer).run(
            small_corpus
        )
        counters = resolution.report.counters
        dropped = counters["pipeline.pairs_dropped_same_source"]
        assert dropped >= 0
        assert counters["pipeline.candidate_pairs"] == dropped + len(resolution)
        assert not any(evidence.same_source for evidence in resolution)

    def test_corpus_stats(self, small_corpus):
        stats = corpus_stats(small_corpus)
        assert stats["n_records"] == len(small_corpus)
        assert 0 < stats["n_sources"] <= len(small_corpus)
        assert stats["n_items"] == sum(
            len(bag) for bag in small_corpus.item_bags.values()
        )


class TestBaselineBlockerTracing:
    def test_run_traced_emits_span_and_counters(self, small_corpus):
        tracer = Tracer()
        blocker = StandardBlocking()
        result = blocker.run_traced(small_corpus, tracer)
        agg = tracer.aggregate
        assert f"blocking.{blocker.name}" in agg.stages
        assert agg.counters["blocking.blocks"] == len(result.blocks)
        assert agg.counters["blocking.candidate_pairs"] == len(
            result.pair_scores
        )

    def test_run_traced_defaults_to_noop(self, small_corpus):
        plain = StandardBlocking().run(small_corpus)
        traced = StandardBlocking().run_traced(small_corpus)
        assert plain.pair_scores == traced.pair_scores


class TestCliObservability:
    @pytest.fixture()
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.json"
        assert cli_main([
            "generate", "--persons", "50", "--communities", "italy",
            "--seed", "29", "--out", str(path),
        ]) == 0
        return path

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro_version()}"

    def test_profile_prints_stage_table(self, corpus_path, capsys):
        assert cli_main([
            "profile", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4", "--expert-weighting",
        ]) == 0
        output = capsys.readouterr().out
        assert "pipeline.run" in output
        assert "mfiblocks.minsup" in output
        assert "counters:" in output
        assert "total" in output

    def test_profile_timeline_serial_prints_notice(self, corpus_path,
                                                   capsys):
        assert cli_main([
            "profile", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4", "--timeline",
        ]) == 0
        output = capsys.readouterr().out
        assert "no parallel profile recorded" in output

    @pytest.mark.usefixtures("dispatch_small_scoring")
    def test_profile_timeline_parallel_prints_lanes(self, corpus_path,
                                                    capsys):
        assert cli_main([
            "profile", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4", "--workers", "2", "--timeline",
        ]) == 0
        output = capsys.readouterr().out
        assert "parallel timeline" in output
        assert "overhead vs compute" in output
        assert "accounting:" in output

    def test_profile_writes_report_and_trace(self, corpus_path, tmp_path,
                                             capsys):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        assert cli_main([
            "profile", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4",
            "--report", str(report_path), "--trace", str(trace_path),
        ]) == 0
        report = RunReport.from_json(report_path)
        assert report.schema_version == SCHEMA_VERSION
        assert report.version == repro_version()
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "trace_start"

    def test_resolve_trace_and_report(self, corpus_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        assert cli_main([
            "resolve", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4", "--expert-weighting",
            "--trace", str(trace_path), "--report", str(report_path),
        ]) == 0
        assert report_path.is_file()
        assert trace_path.is_file()
        payload = json.loads(report_path.read_text())
        assert payload["counters"]["pipeline.records"] > 0
