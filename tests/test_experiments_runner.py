"""Tests for the sweep orchestrator (repro.experiments.orchestrator).

The sweeps here run a synthetic ``_test_echo`` executor registered just for
the test session, so the resume/chaos properties are exercised on
millisecond-cheap specs rather than real solver runs.  The contract pinned
down: a sweep executes *exactly* the specs missing from the store (Hypothesis
property over random matrices and random pre-populated subsets), injected
transient faults are retried while persistent ones are reported-not-recorded,
and a hard-killed run (child process exiting mid-sweep) leaves no row behind
-- so the resumed sweep completes exactly the remainder.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.core import DOTSolver
from repro.experiments import orchestrator, specs as spec_registry
from repro.experiments.store import ExperimentSpec, ResultsStore
from repro.obs import recorder, trace
from repro.resilience.faults import FaultPlan, FaultSpec


def _echo_executor(spec: ExperimentSpec, checkpoint_dir=None):
    return {
        "data": {"echo": dict(spec.knobs), "seed": spec.seed},
        "timing": {"elapsed_s": 0.0},
        "text": f"echo {spec.signature[:8]}",
    }


@pytest.fixture()
def echo_executor():
    """Register the synthetic executor for the duration of one test."""
    spec_registry.EXECUTORS["_test_echo"] = _echo_executor
    try:
        yield
    finally:
        spec_registry.EXECUTORS.pop("_test_echo", None)


def echo_spec(i: int, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="_test_echo", solver="echo", seed=0, knobs={"i": i, **extra}
    )


# ---------------------------------------------------------------------------
# plan(): the matrix/store diff
# ---------------------------------------------------------------------------

class TestPlan:
    def test_plan_splits_missing_from_present_in_matrix_order(self, tmp_path,
                                                              echo_executor):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(i) for i in range(6)]
        for present in (matrix[0], matrix[4]):
            store.record(present, _echo_executor(present))
        missing, present = orchestrator.plan(matrix, store)
        assert missing == [matrix[1], matrix[2], matrix[3], matrix[5]]
        assert present == [matrix[0], matrix[4]]

    def test_empty_store_means_everything_is_missing(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(i) for i in range(3)]
        missing, present = orchestrator.plan(matrix, store)
        assert missing == matrix
        assert present == []


# ---------------------------------------------------------------------------
# run_specs(): run only what's missing
# ---------------------------------------------------------------------------

class TestRunOnlyMissing:
    def test_fresh_store_runs_everything_second_sweep_runs_nothing(
        self, tmp_path, echo_executor
    ):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(i) for i in range(5)]

        first = orchestrator.run_specs(matrix, store, workers=2)
        assert first.complete
        assert sorted(s.signature for s in first.executed) == sorted(
            s.signature for s in matrix
        )
        assert first.skipped == []

        second = orchestrator.run_specs(matrix, store, workers=2)
        assert second.complete
        assert second.executed == []
        assert len(second.skipped) == len(matrix)

    def test_duplicate_specs_in_the_matrix_run_once(self, tmp_path, echo_executor):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(0), echo_spec(1), echo_spec(0), echo_spec(1)]
        report = orchestrator.run_specs(matrix, store)
        assert report.complete
        assert len(report.executed) == 2
        assert len(store) == 2

    def test_concurrent_specs_keep_their_own_span_trees(self, tmp_path):
        """At two workers each row holds the same tree as at one: its spec's
        span over its own three solves, none of the other spec's."""
        def shape(span):
            return span["name"], [shape(child) for child in span["children"]]

        trees = {}
        for workers in (1, 2):
            store = ResultsStore(tmp_path / f"workers{workers}.sqlite")
            with trace.tracing():
                report = orchestrator.run_specs(
                    spec_registry.matrix("small", ["fig8"]), store, workers=workers)
            assert report.complete
            trees[workers] = {row.signature: shape(row.record.spans) for row in store}
        assert trees[2] == trees[1]
        assert list(trees[1].values()) == [
            ("experiment:fig8_box", [("solve:dot", [])] * 3)] * 2

    @pytest.mark.timeout(120)
    def test_threads_under_stress_keep_spans_depths_and_run_ids_apart(self, tmp_path):
        """Eight specs on four threads, switching every microsecond: each
        experiment row holds exactly its own flat solves, and every outermost
        solve is recorded once under a run id of its own, labelled with its
        spec's scenario and seed."""
        def solves(spec, checkpoint_dir=None):
            bundle = scenarios.build("synthetic_sanity")
            for _ in range(spec.knobs["solves"]):
                DOTSolver().solve(bundle.context(estimator=bundle.fresh_estimator()))
            return {"data": {"i": spec.knobs["i"]}, "timing": {"elapsed_s": 0.0}}

        spec_registry.EXECUTORS["_test_solves"] = solves
        matrix = [ExperimentSpec(experiment="_test_solves", scenario=f"scenario-{i}",
                                 seed=100 + i, knobs={"i": i, "solves": 1 + i % 3})
                  for i in range(8)]
        path = tmp_path / "exp.sqlite"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with trace.tracing(), recorder.recording(path):
                report = orchestrator.run_specs(matrix, ResultsStore(path), workers=4)
        finally:
            sys.setswitchinterval(interval)
            spec_registry.EXECUTORS.pop("_test_solves", None)
        assert report.complete
        rows = ResultsStore(path).load_all()
        trees = {row.spec.knobs["i"]: row.record.spans for row in rows
                 if row.experiment == "_test_solves"}
        for spec in matrix:
            children = trees[spec.knobs["i"]]["children"]
            assert [(child["name"], child["children"]) for child in children] == [
                ("solve:dot", [])] * spec.knobs["solves"]
        recorded = [row.record for row in rows if row.experiment == "solve"]
        assert len(recorded) == sum(spec.knobs["solves"] for spec in matrix)
        assert all(record.spans["name"] == "solve:dot" for record in recorded)
        assert Counter((record.scenario, record.seed) for record in recorded) == {
            (spec.scenario, spec.seed): spec.knobs["solves"] for spec in matrix}

    def test_recorded_provenance_carries_attempts_and_weight(
        self, tmp_path, echo_executor
    ):
        store = ResultsStore(tmp_path / "exp.sqlite")
        spec = echo_spec(0)
        orchestrator.run_specs([spec], store)
        stored = store.get(spec)
        assert stored.record.stats["attempts"] == 1
        assert stored.record.stats["weight"] == 1
        assert stored.record.kind == "experiment"
        assert stored.record.git_rev  # provenance pins the code revision

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        matrix_ids=st.lists(st.integers(min_value=0, max_value=11),
                            min_size=1, max_size=12),
        prepopulated_mask=st.lists(st.booleans(), min_size=12, max_size=12),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_property_sweep_executes_exactly_the_missing_specs(
        self, tmp_path_factory, echo_executor, matrix_ids, prepopulated_mask, workers
    ):
        store = ResultsStore(tmp_path_factory.mktemp("prop") / "exp.sqlite")
        matrix = [echo_spec(i) for i in matrix_ids]
        prepopulated = {
            spec.signature
            for spec in matrix
            if prepopulated_mask[spec.knobs["i"]]
        }
        for spec in matrix:
            if spec.signature in prepopulated:
                store.record(spec, _echo_executor(spec))

        report = orchestrator.run_specs(matrix, store, workers=workers)

        assert report.complete
        unique = {spec.signature for spec in matrix}
        executed = {spec.signature for spec in report.executed}
        # Executed exactly the unique missing signatures: no re-runs, no gaps.
        assert executed == unique - prepopulated
        assert len(report.executed) == len(executed)
        assert {spec.signature for spec in report.skipped} == prepopulated
        # And afterwards the store holds the whole matrix.
        assert store.missing(matrix) == []


# ---------------------------------------------------------------------------
# Chaos: injected faults
# ---------------------------------------------------------------------------

class TestChaos:
    def test_transient_fault_is_retried_and_the_retry_is_recorded(
        self, tmp_path, echo_executor
    ):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(i) for i in range(3)]
        plan = FaultPlan().add_shard_fault(
            1, FaultSpec(kind="shard_exception"), attempt=0
        )
        report = orchestrator.run_specs(
            matrix, store, fault_plan=plan, allow_process_kill=False
        )
        assert report.complete
        assert store.missing(matrix) == []
        assert store.get(matrix[1]).record.stats["attempts"] == 2
        assert store.get(matrix[0]).record.stats["attempts"] == 1

    def test_persistent_fault_is_reported_not_recorded(self, tmp_path, echo_executor):
        store = ResultsStore(tmp_path / "exp.sqlite")
        matrix = [echo_spec(i) for i in range(3)]
        plan = FaultPlan()
        for attempt in range(3):
            plan.add_shard_fault(
                1, FaultSpec(kind="shard_exception"), attempt=attempt
            )
        report = orchestrator.run_specs(
            matrix, store, fault_plan=plan, max_attempts=3, allow_process_kill=False
        )
        assert not report.complete
        assert [spec.signature for spec, _ in report.failed] == [matrix[1].signature]
        # The doomed spec left no row; the healthy ones all landed.
        assert matrix[1] not in store
        assert matrix[0] in store and matrix[2] in store
        assert "FAILED" in report.summary()

        # A later fault-free sweep heals the store: only the gap re-runs.
        healed = orchestrator.run_specs(matrix, store, allow_process_kill=False)
        assert healed.complete
        assert [s.signature for s in healed.executed] == [matrix[1].signature]

    def test_straggler_delay_does_not_consume_a_retry(self, tmp_path, echo_executor):
        store = ResultsStore(tmp_path / "exp.sqlite")
        spec = echo_spec(0)
        plan = FaultPlan().add_shard_fault(
            0, FaultSpec(kind="straggler_delay", delay_s=0.01), attempt=0
        )
        report = orchestrator.run_specs(
            [spec], store, fault_plan=plan, allow_process_kill=False
        )
        assert report.complete
        assert store.get(spec).record.stats["attempts"] == 1

    def test_worker_crash_without_kill_permission_is_a_retryable_fault(
        self, tmp_path, echo_executor
    ):
        store = ResultsStore(tmp_path / "exp.sqlite")
        spec = echo_spec(0)
        plan = FaultPlan().add_shard_fault(
            0, FaultSpec(kind="worker_crash"), attempt=0
        )
        report = orchestrator.run_specs(
            [spec], store, fault_plan=plan, allow_process_kill=False
        )
        assert report.complete
        assert store.get(spec).record.stats["attempts"] == 2


# ---------------------------------------------------------------------------
# Hard kill: a crashed sweep records nothing for the killed run, resume
# completes exactly the remainder
# ---------------------------------------------------------------------------

_CRASHING_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
from repro import scenarios
from repro.core import DOTSolver
from repro.experiments import orchestrator, specs as spec_registry
from repro.experiments.store import ExperimentSpec, ResultsStore
from repro.obs import recorder, trace
from repro.resilience.faults import FaultPlan, FaultSpec

def echo(spec, checkpoint_dir=None):
    return {"data": {"i": spec.knobs["i"]}, "timing": {"elapsed_s": 0.0}}

spec_registry.EXECUTORS["_test_echo"] = echo
matrix = [
    ExperimentSpec(experiment="_test_echo", solver="echo", seed=0, knobs={"i": i})
    for i in range(5)
]
store = ResultsStore(sys.argv[2])
# worker_crash at matrix index 2, attempt 0: the process dies via os._exit(17)
# before that spec's executor runs.
plan = FaultPlan().add_shard_fault(2, FaultSpec(kind="worker_crash"), attempt=0)
orchestrator.run_specs(matrix, store, workers=1, fault_plan=plan,
                       allow_process_kill=True)
print("unreachable: the sweep should have died at index 2")
sys.exit(0)
"""


class TestHardKillAndResume:
    def test_killed_sweep_records_nothing_for_the_dead_run_and_resumes(
        self, tmp_path, echo_executor
    ):
        path = tmp_path / "exp.sqlite"
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", _CRASHING_SWEEP, src, str(path)],
            capture_output=True, text=True, timeout=120,
        )
        # The injected worker_crash hard-kills the child mid-sweep.
        assert result.returncode == 17, result.stderr
        assert "unreachable" not in result.stdout

        matrix = [echo_spec(i) for i in range(5)]
        store = ResultsStore(path)
        # Sequential sweep (workers=1): specs 0 and 1 were recorded before the
        # kill; the killed spec and everything after it left no rows.
        assert matrix[0] in store and matrix[1] in store
        assert store.missing(matrix) == matrix[2:]

        resumed = orchestrator.run_specs(matrix, store, allow_process_kill=False)
        assert resumed.complete
        assert [s.signature for s in resumed.executed] == [
            s.signature for s in matrix[2:]
        ]
        assert len(resumed.skipped) == 2
        assert store.missing(matrix) == []


# ---------------------------------------------------------------------------
# Scheduling weights
# ---------------------------------------------------------------------------

class TestWeights:
    def test_fig9_arms_weigh_their_es_workers(self):
        arm = spec_registry.fig9_arm_spec(None, es_workers=3)
        assert spec_registry.spec_weight(arm) == 3
        assert spec_registry.spec_weight(spec_registry.table1_spec()) == 1
        assert spec_registry.spec_weight(echo_spec(0)) == 1

    def test_heavy_specs_never_run_beside_each_other(self, tmp_path, echo_executor):
        import threading

        active = set()
        overlaps = []
        lock = threading.Lock()

        def heavy(spec, checkpoint_dir=None):
            with lock:
                active.add(spec.signature)
                if len(active) > 1:
                    overlaps.append(set(active))
            import time
            time.sleep(0.02)
            with lock:
                active.discard(spec.signature)
            return {"data": {"i": spec.knobs["i"]}, "timing": {"elapsed_s": 0.0}}

        spec_registry.EXECUTORS["_test_heavy"] = heavy
        original_weight = spec_registry.spec_weight
        spec_registry_weight_patch = (
            lambda spec: 2 if spec.experiment == "_test_heavy"
            else original_weight(spec)
        )
        spec_registry.spec_weight = spec_registry_weight_patch
        orchestrator.spec_registry.spec_weight = spec_registry_weight_patch
        try:
            store = ResultsStore(tmp_path / "exp.sqlite")
            matrix = [
                ExperimentSpec(experiment="_test_heavy", solver="echo", seed=0,
                               knobs={"i": i})
                for i in range(4)
            ]
            # Pool of 2 slots, each spec weighs 2: they must serialize.
            report = orchestrator.run_specs(matrix, store, workers=2)
            assert report.complete
            assert overlaps == []
        finally:
            spec_registry.spec_weight = original_weight
            orchestrator.spec_registry.spec_weight = original_weight
            spec_registry.EXECUTORS.pop("_test_heavy", None)
