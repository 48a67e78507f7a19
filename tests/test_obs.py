"""The observability layer: tracing, metrics, run records, and the perf gate.

Four contracts are locked here:

* **Inertness** -- with tracing disabled every span call is a no-op on the
  shared ``NULL_SPAN`` and the instrumented solvers stay within a small
  overhead budget of the uninstrumented wall time.
* **Fidelity** -- with tracing *enabled* the three ES paths still produce
  bitwise-identical layouts/TOCs (spans observe, never perturb), parallel
  worker spans merge into the coordinator's tree (including a
  killed-and-retried shard), and a solve/online run's span tree accounts
  for >= 95% of its wall time.
* **Durability** -- run records survive a JSONL round-trip bitwise; a torn
  final append is skipped and a line damaged at rest is refused by name.
* **The gate** -- the regression check passes a run against its own
  baseline and fails when a gated metric degrades 2x (or a required bench
  output is missing).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import scenarios
from repro.core import DOTSolver, ExhaustiveSolver
from repro.exceptions import CheckpointCorruptionError
from repro.obs import log as obs_log
from repro.obs import metrics, recorder, report, trace
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.online.controller import OnlineAdvisor
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sla.constraints import RelativeSLA


@pytest.fixture(scope="module")
def sanity_bundle():
    """The plan-stable tiny scenario (scan/join only, 6 objects x 3 classes)."""
    return scenarios.build("synthetic_sanity")


def make_context(bundle, **kwargs):
    return bundle.context(estimator=bundle.fresh_estimator(), **kwargs)


@pytest.fixture(autouse=True)
def _clean_observability_state():
    """Every test starts from a disabled tracer and an empty registry."""
    trace.set_tracer(Tracer(enabled=False))
    metrics.set_metrics(metrics.MetricsRegistry())
    recorder.set_store(None)
    yield
    trace.set_tracer(Tracer(enabled=False))
    metrics.set_metrics(metrics.MetricsRegistry())
    recorder.set_store(None)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        registry = metrics.MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc(2)
        registry.gauge("a.depth").set(3)
        for value in (1.0, 2.0, 9.0):
            registry.histogram("a.lat").observe(value)
        snap = registry.snapshot()
        assert snap["a.hits"]["value"] == 3
        assert snap["a.depth"]["value"] == 3
        assert snap["a.lat"]["count"] == 3
        assert snap["a.lat"]["min"] == 1.0
        assert snap["a.lat"]["max"] == 9.0
        assert snap["a.lat"]["mean"] == pytest.approx(4.0)
        assert list(snap) == sorted(snap)

    def test_name_reuse_across_types_is_an_error(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_fresh_metrics_scopes_the_global_registry(self):
        outer = metrics.get_metrics()
        with metrics.fresh_metrics() as registry:
            registry.counter("scoped").inc()
            assert metrics.get_metrics() is registry
        assert metrics.get_metrics() is outer
        assert "scoped" not in metrics.get_metrics()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_tracer_hands_out_the_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_span("anything", attr=1)
        assert span is NULL_SPAN
        span.set(x=1).event("noop")  # all no-ops, chainable
        tracer.end_span(span)
        assert tracer.roots == []

    def test_nesting_and_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", kind="test"):
            with tracer.span("child"):
                tracer.current().event("tick", n=1)
        (root,) = tracer.roots
        assert root.name == "root"
        assert root.attrs["kind"] == "test"
        (child,) = root.children
        assert child.events[0][1] == "tick"
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.to_dict() == root.to_dict()

    def test_adopt_grafts_a_worker_tree(self):
        worker = Tracer(enabled=True)
        with worker.span("shard[0]", shard_id=0):
            pass
        (payload,) = worker.drain_roots()

        coordinator = Tracer(enabled=True)
        parent = coordinator.start_span("es.enumerate")
        coordinator.adopt(payload)
        coordinator.end_span(parent)
        (root,) = coordinator.roots
        assert [c.name for c in root.children] == ["shard[0]"]

    def test_tracing_context_manager_swaps_the_global_tracer(self):
        assert not trace.get_tracer().enabled
        with trace.tracing() as tracer:
            assert trace.get_tracer() is tracer
            with trace.span("inside"):
                assert trace.current_span().name == "inside"
        assert not trace.get_tracer().enabled


class TestDisabledOverhead:
    def test_disabled_instrumentation_is_under_two_percent(self, sanity_bundle):
        """The per-solve span/metric cost must stay < 2% of a sanity ES solve.

        Measured as a stable proxy (cost of the actual disabled-path calls a
        solve performs, many times over, against the solve's wall time)
        instead of a flaky A/B wall-clock diff.
        """
        started = time.perf_counter()
        ExhaustiveSolver().solve(make_context(sanity_bundle))
        solve_wall = time.perf_counter() - started

        tracer = trace.get_tracer()
        assert not tracer.enabled
        rounds = 2_000
        started = time.perf_counter()
        for _ in range(rounds):
            span = tracer.start_span("solve:es", solver="es", budget_s=None)
            span.set(elapsed_s=0.0, evaluated=0)
            span.event("noop")
            tracer.end_span(span)
        per_solve = (time.perf_counter() - started) / rounds
        assert per_solve < 0.02 * solve_wall


# ---------------------------------------------------------------------------
# Instrumented solves stay bitwise-identical
# ---------------------------------------------------------------------------

class TestBitwiseIdentityUnderTracing:
    def test_three_es_paths_agree_with_tracing_on(self, sanity_bundle):
        with trace.tracing():
            batch = ExhaustiveSolver(max_layouts=1_000_000).solve(
                make_context(sanity_bundle))
            scalar = ExhaustiveSolver(max_layouts=1_000_000, batch=False).solve(
                make_context(sanity_bundle))
            parallel = ExhaustiveSolver(max_layouts=1_000_000, workers=2).solve(
                make_context(sanity_bundle))
        assert batch.layout == scalar.layout == parallel.layout
        assert batch.toc_cents == scalar.toc_cents == parallel.toc_cents

    def test_solve_span_covers_the_solve(self, sanity_bundle):
        with trace.tracing() as tracer:
            ExhaustiveSolver().solve(make_context(sanity_bundle))
            (root,) = tracer.drain_roots()
        assert root["name"] == "solve:es"
        names = [child["name"] for child in root["children"]]
        assert "es.build" in names
        assert "es.enumerate" in names
        assert report.span_coverage(root) >= 0.95

    def test_solver_metrics_fold_at_the_boundary(self, sanity_bundle):
        with metrics.fresh_metrics() as registry:
            result = ExhaustiveSolver().solve(make_context(sanity_bundle))
            snap = registry.snapshot()
        assert snap["solver.solves"]["value"] == 1
        assert snap["solver.es.solves"]["value"] == 1
        assert snap["solver.evaluated_layouts"]["value"] == result.evaluated_layouts
        assert snap["solver.es.solve_s"]["count"] == 1
        assert snap["batch.chunks"]["value"] == result.stats.batch.chunks

    def test_dot_move_counters(self, sanity_bundle):
        with metrics.fresh_metrics() as registry:
            result = DOTSolver().solve(make_context(sanity_bundle))
            snap = registry.snapshot()
        assert snap["dot.moves_evaluated"]["value"] == result.evaluated_layouts
        assert snap["dot.moves_accepted"]["value"] == result.stats.moves_accepted


# ---------------------------------------------------------------------------
# Parallel worker span merge
# ---------------------------------------------------------------------------

class TestParallelSpanMerge:
    @pytest.mark.timeout(180)
    def test_worker_spans_merge_into_the_coordinator_tree(self, sanity_bundle):
        with trace.tracing() as tracer:
            ExhaustiveSolver(workers=2).solve(make_context(sanity_bundle))
            (root,) = tracer.drain_roots()
        (enumerate_span,) = [c for c in root["children"]
                             if c["name"] == "es.enumerate"]
        shards = [c for c in enumerate_span["children"]
                  if c["name"].startswith("shard[")]
        assert shards, "no worker shard spans were merged"
        shard_ids = {s["attrs"]["shard_id"] for s in shards}
        assert len(shard_ids) == len(shards)  # one adopted span per shard
        assert all(s["duration_s"] > 0 for s in shards)

    @pytest.mark.timeout(180)
    def test_killed_and_retried_shard_leaves_both_traces(self, sanity_bundle):
        """A crashed shard must surface a retry event AND its attempt-1 span."""
        plan = FaultPlan().add_shard_fault(0, FaultSpec(kind="worker_crash"))
        with trace.tracing() as tracer:
            # shard_timeout_s bounds the watchdog's kill detection, exactly
            # like the chaos-identity tests in test_resilience.py.
            result = ExhaustiveSolver(
                workers=2, shard_timeout_s=1.0, fault_plan=plan
            ).solve(make_context(sanity_bundle))
            (root,) = tracer.drain_roots()
        reference = ExhaustiveSolver().solve(make_context(sanity_bundle))
        assert result.layout == reference.layout
        assert result.toc_cents == reference.toc_cents

        (enumerate_span,) = [c for c in root["children"]
                             if c["name"] == "es.enumerate"]
        events = [e["name"] for e in enumerate_span["events"]]
        assert "shard_retry" in events
        retried = [c for c in enumerate_span["children"]
                   if c["name"] == "shard[0]"]
        assert retried, "retried shard produced no span"
        assert any(c["attrs"]["attempt"] >= 1 for c in retried)


# ---------------------------------------------------------------------------
# Run recorder
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_record_round_trips_bitwise(self, tmp_path):
        record = recorder.RunRecord(
            run_id="run-test-1", kind="solve", solver="es",
            scenario="synthetic_sanity", git_rev="abc1234", seed=7,
            created_unix_s=1_700_000_000.25, elapsed_s=0.125, wall_s=0.25,
            stats={"evaluated_layouts": 729, "toc_cents": 1.5e-6},
            metrics={"solver.solves": {"type": "counter", "value": 1}},
            spans={"name": "solve:es", "duration_s": 0.125,
                   "attrs": {}, "events": [], "children": []},
            extra={"note": "round-trip"},
        )
        store = recorder.RunStore(tmp_path)
        store.append(record)
        (loaded,) = store.load()
        assert loaded == record
        assert loaded.to_json_line() == record.to_json_line()

    def test_torn_final_append_loads_the_intact_records(self, tmp_path):
        store = recorder.RunStore(tmp_path)
        for run_id in ("run-1", "run-2"):
            store.append(recorder.RunRecord(run_id=run_id, kind="solve", solver="es"))
        store.path.write_bytes(store.path.read_bytes()[:-20])
        assert [record.run_id for record in store.load()] == ["run-1"]

    def test_appends_after_a_torn_final_append_keep_every_intact_record(self, tmp_path):
        store = recorder.RunStore(tmp_path)
        for run_id in ("run-1", "run-2"):
            store.append(recorder.RunRecord(run_id=run_id, kind="solve", solver="es"))
        store.path.write_bytes(store.path.read_bytes()[:-20])  # crash mid-append
        store = recorder.RunStore(tmp_path)  # the next process's store
        for run_id in ("run-3", "run-4"):
            store.append(recorder.RunRecord(run_id=run_id, kind="solve", solver="es"))
        assert [record.run_id for record in store.load()] == ["run-1", "run-3", "run-4"]

    def test_damaged_middle_line_raises_naming_the_store(self, tmp_path):
        store = recorder.RunStore(tmp_path)
        for run_id in ("run-1", "run-2", "run-3"):
            store.append(recorder.RunRecord(run_id=run_id, kind="solve", solver="es"))
        lines = store.path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][:40] + "\n"
        store.path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CheckpointCorruptionError, match="line 2") as info:
            store.load()
        assert str(store.path) in str(info.value)

    def test_solve_records_when_recording(self, sanity_bundle, tmp_path):
        with recorder.recording(tmp_path), trace.tracing():
            with recorder.run_context(scenario="synthetic_sanity", seed=7):
                result = ExhaustiveSolver().solve(make_context(sanity_bundle))
        (rec,) = recorder.RunStore(tmp_path).load()
        assert rec.kind == "solve"
        assert rec.solver == "es"
        assert rec.scenario == "synthetic_sanity"
        assert rec.seed == 7
        assert rec.stats["toc_cents"] == result.toc_cents
        assert rec.metrics["solver.solves"]["value"] >= 1
        assert rec.spans["name"] == "solve:es"
        assert report.span_coverage(rec.spans) >= 0.95

    def test_fallback_chain_records_once(self, sanity_bundle, tmp_path):
        """Nested solves (fallback chain) produce ONE record, at the outside."""
        from repro.core import FallbackSolver
        with recorder.recording(tmp_path):
            FallbackSolver([ExhaustiveSolver()]).solve(make_context(sanity_bundle))
        records = recorder.RunStore(tmp_path).load()
        assert len(records) == 1

    @pytest.mark.timeout(180)
    def test_online_run_records_with_full_span_coverage(self, tmp_path):
        bundle = scenarios.build("synthetic_sanity")
        advisor = OnlineAdvisor(
            bundle.objects, bundle.get_system(), bundle.fresh_estimator(),
            sla=RelativeSLA(0.5),
        )
        with recorder.recording(tmp_path), trace.tracing():
            result = advisor.run([bundle.workload] * 10)
        (rec,) = recorder.RunStore(tmp_path).load()
        assert rec.kind == "online"
        assert rec.stats["num_epochs"] == result.num_epochs == 10
        assert rec.spans["name"] == "online.run"
        assert len(rec.spans["children"]) == 10
        assert report.span_coverage(rec.spans) >= 0.95
        assert rec.metrics["online.epochs"]["value"] == 10

    def test_no_store_no_files(self, sanity_bundle, tmp_path):
        assert recorder.active_store() is None
        ExhaustiveSolver().solve(make_context(sanity_bundle))
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------

PARALLEL_ES_PAYLOAD = {
    "bench": "parallel_es", "elapsed_s": 0.5, "space": 531441,
    "objects": 12, "classes": 3, "toc_cents": 2.8e-06,
}


class TestGate:
    def _write(self, directory, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_parallel_es.json").write_text(json.dumps(payload))

    def test_gate_passes_against_identical_baseline(self, tmp_path, capsys):
        self._write(tmp_path / "out", PARALLEL_ES_PAYLOAD)
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        failures = report.check_regressions(
            tmp_path / "out", tmp_path / "baselines", require=["parallel_es"])
        assert failures == 0

    def test_gate_fails_on_2x_cost_inflation(self, tmp_path):
        current = dict(PARALLEL_ES_PAYLOAD, toc_cents=2 * PARALLEL_ES_PAYLOAD["toc_cents"])
        self._write(tmp_path / "out", current)
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        failures = report.check_regressions(
            tmp_path / "out", tmp_path / "baselines", require=["parallel_es"])
        assert failures == 1

    def test_gate_fails_on_timing_blowup_but_tolerates_noise(self, tmp_path):
        noisy = dict(PARALLEL_ES_PAYLOAD, elapsed_s=1.4 * PARALLEL_ES_PAYLOAD["elapsed_s"])
        self._write(tmp_path / "out", noisy)
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        assert report.check_regressions(
            tmp_path / "out", tmp_path / "baselines", timing_factor=3.0) == 0
        blown = dict(PARALLEL_ES_PAYLOAD, elapsed_s=4 * PARALLEL_ES_PAYLOAD["elapsed_s"])
        self._write(tmp_path / "out", blown)
        assert report.check_regressions(
            tmp_path / "out", tmp_path / "baselines", timing_factor=3.0) == 1

    def test_gate_fails_when_required_bench_is_missing(self, tmp_path):
        (tmp_path / "out").mkdir()
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        failures = report.check_regressions(
            tmp_path / "out", tmp_path / "baselines", require=["parallel_es"])
        assert failures == 1
        # ... but a missing non-required bench only skips.
        assert report.check_regressions(
            tmp_path / "out", tmp_path / "baselines") == 0

    def test_cli_exit_codes(self, tmp_path):
        self._write(tmp_path / "out", PARALLEL_ES_PAYLOAD)
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        argv = ["--check-regressions", "--bench-dir", str(tmp_path / "out"),
                "--baselines", str(tmp_path / "baselines")]
        assert report.main(argv) == 0
        inflated = dict(PARALLEL_ES_PAYLOAD, toc_cents=5.6e-06)
        self._write(tmp_path / "baselines", inflated)
        assert report.main(argv) != 0

    def test_committed_baselines_gate_green(self, tmp_path):
        """The baselines we ship must pass their own gate (reflexivity)."""
        baselines = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
        assert report.check_regressions(baselines, baselines) == 0

    def test_module_entry_point_imports_the_report_once(self):
        """Importing the package must not import the report: ``-m`` would run it twice."""
        src = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs.report",
             "--help"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert completed.returncode == 0, completed.stderr


class TestSpanCoverage:
    def test_leaf_spans_are_fully_covered(self):
        leaf = {"name": "x", "duration_s": 1.0, "children": []}
        assert report.span_coverage(leaf) == 1.0

    def test_partial_coverage(self):
        tree = {"name": "root", "duration_s": 2.0, "children": [
            {"name": "a", "duration_s": 0.5, "children": []},
            {"name": "b", "duration_s": 0.4, "children": []},
        ]}
        assert report.span_coverage(tree) == pytest.approx(0.45)
        assert report.span_coverage(None) == 0.0


# ---------------------------------------------------------------------------
# Logging context injection
# ---------------------------------------------------------------------------

class TestLogContext:
    def test_run_and_span_ids_are_stamped(self, capsys):
        import io
        import logging
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.addFilter(obs_log.ContextFilter())
        handler.setFormatter(logging.Formatter(obs_log.DEFAULT_FORMAT))
        logger = obs_log.get_logger("test_obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        try:
            with trace.tracing(), recorder.run_context(run_id="run-log-test"):
                with trace.span("phase.one"):
                    logger.info("inside")
            logger.info("outside")
        finally:
            logger.removeHandler(handler)
        first, second = stream.getvalue().strip().splitlines()
        assert "[run-log-test phase.one]" in first
        assert "inside" in first
        assert "phase.one" not in second
