"""Tests for the RL200-series parallel-safety pass.

Positive fixtures (must flag) and negative fixtures (must stay quiet)
per rule, the committed violation fixtures under
``tests/fixtures/parallel_safety/``, the repo-wide clean sweep that is
the acceptance gate, and the call-graph edge cases the pass leans on
(lambdas, ``functools.partial``, decorated nested functions, re-exports
through ``repro.parallel``).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tools.reprolint.callgraph import build_call_graph
from tools.reprolint.config import load_config
from tools.reprolint.engine import (
    analyze_parallel_paths,
    analyze_parallel_sources,
)
from tools.reprolint.parallel_safety import PARALLEL_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "parallel_safety"


def parallel_findings(source, rule=None, path="src/module.py", config=None):
    """Run the RL200-RL205 pass over one fixture module."""
    found = analyze_parallel_sources(
        [(path, textwrap.dedent(source))], config=config
    )
    if rule is not None:
        found = [finding for finding in found if finding.rule == rule]
    return found


class TestRL200WorkCapturesState:
    def test_nonpicklable_global_capture_flagged(self):
        source = """
            import threading

            LOCK = threading.Lock()

            def work(payload):
                with LOCK:
                    return payload

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        found = parallel_findings(source, "RL200")
        assert len(found) == 1
        assert "LOCK" in found[0].message

    def test_mutable_global_read_flagged(self):
        source = """
            CACHE = {}

            def work(payload):
                return CACHE.get(payload, payload)

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        found = parallel_findings(source, "RL200")
        assert len(found) == 1
        assert "CACHE" in found[0].message

    def test_immutable_global_ok(self):
        source = """
            SCALE = 2.5
            LABEL = "score"

            def work(payload):
                return [(LABEL, x * SCALE) for x in payload]

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        assert parallel_findings(source, "RL200") == []

    def test_payload_determined_work_ok(self):
        source = """
            def work(payload):
                scorer, pairs = payload
                return [(p, scorer.score(p)) for p in pairs]

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        assert parallel_findings(source, "RL200") == []

    def test_lambda_submission_flagged(self):
        source = """
            def driver(executor, items):
                return sorted(executor.map_chunks(lambda x: x + 1, items))
        """
        found = parallel_findings(source, "RL200")
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_nested_function_submission_flagged(self):
        source = """
            def driver(executor, items):
                def work(x):
                    return x + 1
                return sorted(executor.map_chunks(work, items))
        """
        assert len(parallel_findings(source, "RL200")) == 1

    def test_bound_method_submission_flagged(self):
        source = """
            class Scorer:
                def work(self, payload):
                    return payload

            def driver(executor, items):
                scorer = Scorer()
                return sorted(executor.map_chunks(scorer.work, items))
        """
        assert len(parallel_findings(source, "RL200")) == 1

    def test_decorator_marks_work_root_without_submission_site(self):
        source = """
            from contracts import picklable_work

            STATE = {}

            @picklable_work
            def work(payload):
                return STATE.get(payload)
        """
        assert len(parallel_findings(source, "RL200")) == 1

    def test_shared_readonly_exempts_mutable_read(self):
        source = """
            from contracts import shared_readonly

            TABLE = {"a": 1}

            @shared_readonly
            def work(payload):
                return TABLE.get(payload, 0)

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        assert parallel_findings(source, "RL200") == []


class TestRL201WorkerGlobalMutation:
    def test_mutator_method_on_global_flagged(self):
        source = """
            SEEN = []

            def work(payload):
                SEEN.append(payload)
                return payload

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        found = parallel_findings(source, "RL201")
        assert len(found) == 1
        assert "SEEN" in found[0].message

    def test_global_rebind_flagged(self):
        source = """
            TOTAL = 0

            def work(payload):
                global TOTAL
                TOTAL = TOTAL + len(payload)
                return payload

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        assert len(parallel_findings(source, "RL201")) == 1

    def test_transitive_mutation_through_helper_flagged(self):
        source = """
            SEEN = []

            def work(payload):
                return tally(payload)

            def tally(payload):
                SEEN.append(payload)
                return len(payload)

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        found = parallel_findings(source, "RL201")
        assert len(found) == 1
        assert "tally" in found[0].message

    def test_shared_readonly_does_not_license_mutation(self):
        source = """
            from contracts import shared_readonly

            TABLE = {}

            @shared_readonly
            def work(payload):
                TABLE[payload] = True
                return payload
        """
        assert len(parallel_findings(source, "RL201")) == 1

    def test_local_mutation_ok(self):
        source = """
            def work(payload):
                seen = []
                seen.append(payload)
                return seen

            def driver(executor, items):
                return sorted(executor.map_chunks(work, items))
        """
        assert parallel_findings(source, "RL201") == []


class TestRL202MergeNotOrderIndependent:
    def test_unsanctioned_reduction_flagged(self):
        source = """
            def work(payload):
                return payload

            def driver(executor, chunks):
                results = executor.map_chunks(work, chunks)
                merged = []
                for result in results:
                    merged.extend(result)
                return merged
        """
        found = parallel_findings(source, "RL202")
        assert len(found) == 1
        assert "results" in found[0].message

    def test_commutative_merge_consumer_ok(self):
        source = """
            from contracts import commutative_merge

            @commutative_merge
            def fold(chunks):
                merged = {}
                for chunk in chunks:
                    for key, score in chunk:
                        current = merged.get(key)
                        if current is None or score > current:
                            merged[key] = score
                return merged

            def work(payload):
                return payload

            def driver(executor, chunks):
                results = executor.map_chunks(work, chunks)
                return fold(results)
        """
        assert parallel_findings(source, "RL202") == []

    def test_per_chunk_commutative_merge_loop_ok(self):
        source = """
            from contracts import commutative_merge

            @commutative_merge
            def fold_into(target, chunk):
                for key, score in chunk:
                    current = target.get(key)
                    if current is None or score > current:
                        target[key] = score
                return target

            def work(payload):
                return payload

            def driver(executor, chunks):
                results = executor.map_chunks(work, chunks)
                merged = {}
                for result in results:
                    fold_into(merged, result)
                return merged
        """
        assert parallel_findings(source, "RL202") == []

    def test_order_insensitive_builtin_ok(self):
        source = """
            def work(payload):
                return payload

            def driver(executor, chunks):
                return sorted(executor.map_chunks(work, chunks))
        """
        assert parallel_findings(source, "RL202") == []


class TestRL203ForkUnsafeResource:
    def test_fork_safe_with_resource_global_flagged(self):
        source = """
            import sqlite3

            from contracts import fork_safe

            DB = sqlite3.connect(":memory:")

            @fork_safe
            def work(payload):
                return DB.execute(payload).fetchall()
        """
        found = parallel_findings(source, "RL203")
        assert len(found) == 1
        assert "DB" in found[0].message

    def test_transitive_resource_flagged(self):
        source = """
            from contracts import fork_safe

            HANDLE = open("data.csv")

            @fork_safe
            def work(payload):
                return helper(payload)

            def helper(payload):
                return HANDLE.readline()
        """
        found = parallel_findings(source, "RL203")
        assert len(found) == 1
        assert "helper" in found[0].message

    def test_resource_outside_worker_code_ok(self):
        source = """
            import sqlite3

            DB = sqlite3.connect(":memory:")

            def query(payload):
                return DB.execute(payload).fetchall()
        """
        assert parallel_findings(source, "RL203") == []

    def test_clean_fork_safe_ok(self):
        source = """
            from contracts import fork_safe

            @fork_safe
            def work(payload):
                return [x * 2 for x in payload]
        """
        assert parallel_findings(source, "RL203") == []


class TestRL204SharedMemoryOwnership:
    def test_missing_both_teardowns_flagged(self):
        source = """
            from multiprocessing import shared_memory

            def leak(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                return shm.name
        """
        found = parallel_findings(source, "RL204")
        assert len(found) == 1
        assert ".close()" in found[0].message
        assert ".unlink()" in found[0].message

    def test_missing_unlink_only_flagged(self):
        source = """
            from multiprocessing import shared_memory

            def half(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                shm.close()
                return size
        """
        found = parallel_findings(source, "RL204")
        assert len(found) == 1
        assert ".unlink()" in found[0].message
        assert ".close()" not in found[0].message

    def test_paired_teardown_ok(self):
        source = """
            from multiprocessing import shared_memory

            def roundtrip(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                try:
                    return bytes(shm.buf[:4])
                finally:
                    shm.close()
                    shm.unlink()
        """
        assert parallel_findings(source, "RL204") == []

    def test_self_attribute_with_teardown_elsewhere_in_class_ok(self):
        source = """
            from multiprocessing import shared_memory

            class Arena:
                def open(self, size):
                    self.shm = shared_memory.SharedMemory(
                        create=True, size=size
                    )

                def close(self):
                    self.shm.close()
                    self.shm.unlink()
        """
        assert parallel_findings(source, "RL204") == []


class TestRL205ScheduleInFingerprint:
    def test_worker_keyword_into_pipeline_config_flagged(self):
        source = """
            def build(ng, workers):
                return PipelineConfig(ng=ng, workers=workers)
        """
        assert len(parallel_findings(source, "RL205")) == 1

    def test_executor_workers_into_fingerprint_flagged(self):
        source = """
            def fingerprint_inputs(ng, workers):
                return (ng, workers)

            def stage_key(config, executor):
                return fingerprint_inputs(config.ng, executor.workers)
        """
        found = parallel_findings(source, "RL205")
        assert len(found) == 1
        assert ".workers" in found[0].message

    def test_workers_in_config_echo_flagged(self):
        source = """
            class PipelineEchoConfig:
                def to_echo(self):
                    return {"ng": self.ng, "workers": self.workers}
        """
        assert len(parallel_findings(source, "RL205")) == 1

    def test_schedule_free_fingerprint_ok(self):
        source = """
            def fingerprint_inputs(ng, minsup):
                return (ng, minsup)

            def stage_key(config):
                return fingerprint_inputs(config.ng, config.max_minsup)
        """
        assert parallel_findings(source, "RL205") == []

    def test_workers_outside_sinks_ok(self):
        source = """
            def plan(executor, n_items):
                return min(executor.workers, n_items)
        """
        assert parallel_findings(source, "RL205") == []


class TestViolationFixtures:
    @pytest.mark.parametrize(
        "fixture", sorted(FIXTURES.glob("rl2*.py")), ids=lambda p: p.stem
    )
    def test_every_rule_fires_on_its_fixture(self, fixture):
        expected = fixture.stem.split("_")[0].upper()
        findings = analyze_parallel_sources(
            [(f"src/{fixture.name}", fixture.read_text(encoding="utf-8"))]
        )
        fired = {finding.rule for finding in findings}
        assert expected in fired
        # Fixtures are rule-isolated: nothing else may fire, so a
        # regression in one rule cannot hide behind another.
        assert fired == {expected}

    def test_fixture_set_covers_every_rule(self):
        prefixes = {
            path.stem.split("_")[0].upper()
            for path in FIXTURES.glob("rl2*.py")
        }
        assert prefixes == set(PARALLEL_RULES)


class TestRepoSweep:
    def test_parallel_pass_clean_on_repo(self):
        # The acceptance gate: zero RL20x over the configured contract
        # packages; every exemption is an explicit contract decorator.
        root = Path(__file__).resolve().parents[1]
        config = load_config()
        roots = [
            root / prefix
            for prefix in config.contract_packages
            if (root / prefix).is_dir()
        ]
        if not roots:
            pytest.skip("repository checkout required")
        assert analyze_parallel_paths(roots, config=config, root=root) == []

    def test_repo_work_functions_carry_parallel_contracts(self):
        from repro.contracts import contracts_of
        from repro.parallel.merge import max_merge_into
        from repro.parallel.work import score_pair_chunk

        assert {"picklable_work", "fork_safe"} <= set(
            contracts_of(score_pair_chunk)
        )
        assert "commutative_merge" in contracts_of(max_merge_into)


class TestCallGraphEdges:
    def test_lambda_body_calls_attributed_to_enclosing_function(self):
        source = textwrap.dedent(
            """
            def helper(x):
                return x + 1

            def outer(items):
                fn = lambda x: helper(x)
                return [fn(i) for i in items]
            """
        )
        graph = build_call_graph([("src/mod.py", source)])
        callees = {callee for callee, _ in graph.callees("mod:outer")}
        assert "mod:helper" in callees

    def test_partial_wrapped_work_function_resolved(self):
        source = """
            import functools

            SEEN = []

            def work(config, payload):
                SEEN.append(payload)
                return payload

            def driver(executor, config, items):
                bound = functools.partial(work, config)
                return sorted(executor.map_chunks(bound, items))
        """
        # The partial unwraps to `work`, which is then analyzed as a
        # work root — proven by RL201 firing on its global mutation.
        assert len(parallel_findings(source, "RL201")) == 1

    def test_decorated_nested_function_registered_with_parent_edge(self):
        source = textwrap.dedent(
            """
            def decorate(fn):
                return fn

            def outer(items):
                @decorate
                def inner(x):
                    return x + 1
                return [inner(i) for i in items]
            """
        )
        graph = build_call_graph([("src/mod.py", source)])
        assert "mod:outer.inner" in graph.functions
        callees = {callee for callee, _ in graph.callees("mod:outer")}
        assert "mod:outer.inner" in callees

    def test_reexport_through_parallel_init_resolves_to_definition(self):
        root = Path(__file__).resolve().parents[1]
        package = root / "src" / "repro" / "parallel"
        if not package.is_dir():
            pytest.skip("repository checkout required")
        sources = [
            (
                f"src/repro/parallel/{name}",
                (package / name).read_text(encoding="utf-8"),
            )
            for name in ("__init__.py", "merge.py", "work.py")
        ]
        caller = textwrap.dedent(
            """
            from repro.parallel import max_merge_into, score_pair_chunk

            def combine(target, payload):
                return max_merge_into(target, score_pair_chunk(payload))
            """
        )
        graph = build_call_graph(sources + [("src/repro/uses.py", caller)])
        callees = {callee for callee, _ in graph.callees("repro.uses:combine")}
        assert {
            "repro.parallel.merge:max_merge_into",
            "repro.parallel.work:score_pair_chunk",
        } <= callees
