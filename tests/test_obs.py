"""The observability layer: tracing, run records, and the perf gate.

Four contracts are locked here:

* **Inertness** -- with tracing disabled every span call is a no-op on the
  shared ``NULL_SPAN`` and the instrumented solvers stay within a small
  overhead budget of the uninstrumented wall time.
* **Fidelity** -- with tracing *enabled* the three ES paths still produce
  bitwise-identical layouts/TOCs (spans observe, never perturb), parallel
  worker spans merge into the coordinator's tree (including a
  killed-and-retried shard), and a solve/online run's span tree accounts
  for >= 95% of its wall time.
* **One store** -- run records are rows of the SQLite results store: they
  read back bitwise, the row checksum covers them, recording never makes a
  run raise, a declared run context labels only its own thread's records,
  and the report lists and draws experiment rows and recorded solves,
  online runs and service sessions alike.
* **The gate** -- the regression check passes a run against its own
  baseline and fails when a gated metric degrades 2x (or a required bench
  output is missing).
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import scenarios
from repro.core import ExhaustiveSolver
from repro.exceptions import CheckpointCorruptionError
from repro.experiments import orchestrator
from repro.experiments import specs as spec_registry
from repro.experiments.store import ExperimentSpec, ResultsStore, dump_payload
from repro.obs import log as obs_log
from repro.obs import recorder, report, trace
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.online.controller import OnlineAdvisor
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service import AdvisorService, ServiceConfig, TenantSpec
from repro.sla.constraints import RelativeSLA


@pytest.fixture(scope="module")
def sanity_bundle():
    """The plan-stable tiny scenario (scan/join only, 6 objects x 3 classes)."""
    return scenarios.build("synthetic_sanity")


def make_context(bundle, **kwargs):
    return bundle.context(estimator=bundle.fresh_estimator(), **kwargs)


@pytest.fixture(autouse=True)
def _clean_observability_state():
    """Every test starts from a disabled tracer and recording off."""
    trace.set_tracer(Tracer(enabled=False))
    recorder.set_store(None)
    yield
    trace.set_tracer(Tracer(enabled=False))
    recorder.set_store(None)


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
    def test_three_es_paths_agree_with_tracing_on(self, pool_always, sanity_bundle):
        with trace.tracing():
            batch = ExhaustiveSolver(max_layouts=1_000_000).solve(
                make_context(sanity_bundle))
            scalar = ExhaustiveSolver(max_layouts=1_000_000, batch=False).solve(
                make_context(sanity_bundle))
            parallel = ExhaustiveSolver(max_layouts=1_000_000, workers=2).solve(
                make_context(sanity_bundle))
        assert parallel.stats.workers == 2  # the pool ran
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


# ---------------------------------------------------------------------------
# Parallel worker span merge
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("pool_always")
class TestParallelSpanMerge:
    @pytest.mark.timeout(180)
    def test_worker_spans_merge_into_the_coordinator_tree(self, sanity_bundle):
        with trace.tracing() as tracer:
            ExhaustiveSolver(workers=2).solve(make_context(sanity_bundle))
            (root,) = tracer.drain_roots()
        (enumerate_span,) = [c for c in root["children"]
                             if c["name"] == "es.enumerate"]
        assert enumerate_span["attrs"]["workers"] == 2  # the pool ran
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
            result = ExhaustiveSolver(workers=2, fault_plan=plan).solve(
                make_context(sanity_bundle)
            )
            (root,) = tracer.drain_roots()
        reference = ExhaustiveSolver().solve(make_context(sanity_bundle))
        assert result.stats.workers == 2  # the pool ran
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

def recorded(path):
    """The run records of the store at ``path``, oldest first."""
    return [row.record for row in ResultsStore(path)]


class TestRecorder:
    def test_record_round_trips_bitwise(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path), recorder.run_context(
                scenario="synthetic_sanity", seed=7, note="round-trip"):
            record = recorder.record_run(
                "solve", "es", elapsed_s=0.125, wall_s=0.1 + 0.2,
                stats={"evaluated_layouts": 729, "toc_cents": 1.5e-6,
                       "ratio": 1 / 3},
                spans={"name": "solve:es", "duration_s": 0.125, "attrs": {},
                       "events": [], "children": []},
            )
        (row,) = ResultsStore(path)
        assert row.experiment == "solve"
        assert row.spec == ExperimentSpec(experiment="solve", scenario="synthetic_sanity",
                                          solver="es", seed=7,
                                          knobs={"run_id": record.run_id})
        assert row.record == record
        assert row.record.to_json_line() == record.to_json_line()
        assert row.record.stats["ratio"].hex() == (1 / 3).hex()
        assert row.record.wall_s.hex() == (0.1 + 0.2).hex()
        assert row.record.extra == {"note": "round-trip"}

    def test_the_row_checksum_covers_a_recorded_run(self, sanity_bundle, tmp_path):
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path):
            ExhaustiveSolver().solve(make_context(sanity_bundle))
        (row,) = ResultsStore(path)
        with sqlite3.connect(path) as conn:
            (payload_json,) = conn.execute("SELECT payload_json FROM runs").fetchone()
            flipped = payload_json.replace('"solver": "es"', '"solver": "et"', 1)
            assert flipped != payload_json
            conn.execute("UPDATE runs SET payload_json = ?", (flipped,))
        with pytest.raises(CheckpointCorruptionError, match="checksum") as info:
            ResultsStore(path).get(row.signature)
        assert str(path) in str(info.value)

    def test_values_json_cannot_hold_still_record(self, sanity_bundle, tmp_path):
        """An infinite budget and a non-JSON annotation record as ``None`` and text."""
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path), recorder.run_context(tags={"b", "a"}):
            result = ExhaustiveSolver().solve(make_context(sanity_bundle),
                                              budget=float("inf"))
        assert result.stats.deadline_s == float("inf")
        (rec,) = recorded(path)
        assert rec.stats["deadline_s"] is None
        assert rec.extra["tags"] in ("{'a', 'b'}", "{'b', 'a'}")
        assert dump_payload({"record": vars(rec)})  # what the store refuses is gone

    def test_solve_records_when_recording(self, sanity_bundle, tmp_path):
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path), trace.tracing():
            with recorder.run_context(scenario="synthetic_sanity", seed=7):
                result = ExhaustiveSolver().solve(make_context(sanity_bundle))
        (rec,) = recorded(path)
        assert rec.kind == "solve"
        assert rec.solver == "es"
        assert rec.scenario == "synthetic_sanity"
        assert rec.seed == 7
        assert rec.stats["toc_cents"] == result.toc_cents
        assert rec.stats["evaluated_layouts"] == result.evaluated_layouts
        assert rec.stats["batch"]["chunks"] == result.stats.batch.chunks
        assert rec.spans["name"] == "solve:es"
        assert report.span_coverage(rec.spans) >= 0.95

    def test_a_run_context_stays_on_its_own_thread(self):
        """Two threads interleave their blocks -- A enters, B enters, A exits,
        B exits: each thread's records carry its own scenario and seed, and
        the main thread is left declaring nothing."""
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        records, waits = {}, []

        def thread_a():
            with recorder.run_context(scenario="a", seed=1):
                a_entered.set()
                waits.append(b_entered.wait(30))
                records["a"] = recorder.new_record("solve", "dot")
            a_exited.set()

        def thread_b():
            waits.append(a_entered.wait(30))
            with recorder.run_context(scenario="b", seed=2):
                b_entered.set()
                waits.append(a_exited.wait(30))
                records["b"] = recorder.new_record("solve", "dot")

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert waits == [True] * 3  # the blocks interleaved as intended
        assert (records["a"].scenario, records["a"].seed) == ("a", 1)
        assert (records["b"].scenario, records["b"].seed) == ("b", 2)
        main = recorder.new_record("solve", "dot")
        assert (main.scenario, main.seed) == (None, None)

    def test_fallback_chain_records_once(self, sanity_bundle, tmp_path):
        """Nested solves (fallback chain) produce ONE record, at the outside."""
        from repro.core import FallbackSolver
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path):
            FallbackSolver([ExhaustiveSolver()]).solve(make_context(sanity_bundle))
        assert len(recorded(path)) == 1

    @pytest.mark.timeout(180)
    def test_online_run_records_with_full_span_coverage(self, tmp_path):
        bundle = scenarios.build("synthetic_sanity")
        advisor = OnlineAdvisor(
            bundle.objects, bundle.get_system(), bundle.fresh_estimator(),
            sla=RelativeSLA(0.5),
        )
        path = tmp_path / "runs.sqlite"
        with recorder.recording(path), trace.tracing():
            result = advisor.run([bundle.workload] * 10)
        (rec,) = recorded(path)
        assert rec.kind == "online"
        assert rec.stats["num_epochs"] == result.num_epochs == 10
        assert rec.spans["name"] == "online.run"
        assert len(rec.spans["children"]) == 10
        assert report.span_coverage(rec.spans) >= 0.95
        assert (rec.stats["cache_hits"], rec.stats["cache_misses"]) == (
            result.cache_hits, result.cache_misses)

    def test_no_store_no_files(self, sanity_bundle, tmp_path):
        assert recorder.store_path() is None
        ExhaustiveSolver().solve(make_context(sanity_bundle))
        with recorder.recording(tmp_path / "runs.sqlite"):
            pass  # the store opens at the first record, not before
        assert list(tmp_path.iterdir()) == []

    def test_import_loads_no_sqlite_even_when_recording(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; assert 'sqlite3' not in sys.modules"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src), REPRO_OBS_RECORD="1"),
        )
        assert completed.returncode == 0, completed.stderr
        assert list(tmp_path.iterdir()) == []


def _echo(spec, checkpoint_dir=None):
    return {"data": {"i": spec.knobs["i"]}, "timing": {"elapsed_s": 0.0}}


class TestOneStore:
    """Experiment rows and recorded runs share one store and one report."""

    @pytest.fixture()
    def store(self, tmp_path, sanity_bundle):
        spec_registry.EXECUTORS["_test_echo"] = _echo
        path = tmp_path / "experiments.sqlite"
        try:
            with trace.tracing(), recorder.recording(path):
                orchestrator.run_specs(
                    [ExperimentSpec(experiment="_test_echo", knobs={"i": 0})],
                    ResultsStore(path))
                ExhaustiveSolver().solve(make_context(sanity_bundle))
                OnlineAdvisor(
                    sanity_bundle.objects, sanity_bundle.get_system(),
                    sanity_bundle.fresh_estimator(), sla=RelativeSLA(0.5),
                ).run([sanity_bundle.workload] * 2)
                service = AdvisorService(tmp_path / "state", ServiceConfig())
                service.register(TenantSpec(tenant_id="t", num_epochs=2, drift="steady"))
                service.run(max_ticks=32)
                service.shutdown()
        finally:
            spec_registry.EXECUTORS.pop("_test_echo", None)
        return ResultsStore(path)

    def test_summary_lists_every_kind_of_row(self, store, capsys):
        assert [row.experiment for row in store] == [
            "_test_echo", "solve", "online", "service"]
        assert report.main(["--store", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert "4 row(s)" in out
        for row in store:
            assert row.record.run_id in out
        service = store.load_all()[-1].record
        assert service.kind == "service"
        assert service.stats["completed_epochs"] == 2
        assert service.spans["name"] == "service.run"

    def test_flame_renders_the_recorded_solve(self, store, capsys):
        solve = store.load_all()[1].record
        assert report.main(["--store", str(store.path), "--flame", solve.run_id]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[1].startswith("solve:es")
        assert any(line.startswith("  es.enumerate") for line in lines)
        assert any(line.startswith("  es.build") for line in lines)

    def test_flame_of_an_unknown_run_exits_1(self, store, capsys):
        assert report.main(["--store", str(store.path), "--flame", "run-nope"]) == 1

    def test_an_experiment_row_holds_one_span_tree(self, store):
        experiment = store.load_all()[0].record
        assert experiment.kind == "experiment"
        assert experiment.spans["name"] == "experiment:_test_echo"

    @pytest.mark.parametrize("flame", [[], ["--flame"], ["--flame", "run-x"]])
    def test_read_only_views_name_a_missing_store_and_create_nothing(
            self, tmp_path, capsys, flame):
        missing = tmp_path / "typo.sqlite"
        assert report.main(["--store", str(missing), *flame]) == 1
        assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rows_written_before_spans_had_one_shape_still_list(self, tmp_path, capsys):
        """An experiment row holding bare span roots and a recorded solve
        whose record still carries a ``metrics`` snapshot both load, list
        and draw."""
        path = tmp_path / "old.sqlite"
        store = ResultsStore(path)
        legacy = recorder.RunRecord(
            run_id="exp-0123456789ab", kind="experiment", solver="dot", wall_s=2.0,
            spans={"roots": [{"name": "solve:dot", "duration_s": 1.5, "attrs": {},
                              "events": [], "children": []}]})
        store.record(ExperimentSpec(experiment="fig8"), {"data": {}}, legacy)
        old_solve = {
            "run_id": "run-0-1-1", "kind": "solve", "solver": "dot",
            "scenario": "synthetic_sanity", "git_rev": "abc1234", "seed": 7,
            "created_unix_s": 1.0, "elapsed_s": 0.5, "wall_s": 0.5,
            "stats": {"evaluated_layouts": 12},
            "metrics": {"solver.solves": {"kind": "counter", "value": 3}},
            "spans": {"name": "solve:dot", "attrs": {}, "status": "ok",
                      "duration_s": 0.5, "events": [],
                      "children": [{"name": "dot.walk", "attrs": {}, "status": "ok",
                                    "duration_s": 0.5, "events": [], "children": []}]},
            "extra": {},
        }
        header = {**old_solve, "stats": {}, "metrics": {}, "spans": None}
        store.record(
            ExperimentSpec(experiment="solve", scenario="synthetic_sanity", solver="dot",
                           seed=7, knobs={"run_id": old_solve["run_id"]}),
            {"record": old_solve}, recorder.RunRecord.from_dict(header))
        experiment, solve = ResultsStore(path)
        assert experiment.record.spans["children"][0]["name"] == "solve:dot"
        assert report.span_coverage(experiment.record.spans) == 0.75
        assert solve.record.stats == {"evaluated_layouts": 12}
        assert "metrics" not in vars(solve.record)
        assert report.main(["--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 row(s)" in out
        assert "exp-0123456789ab" in out and "run-0-1-1" in out
        assert report.main(["--store", str(path), "--flame"]) == 0
        assert "dot.walk" in capsys.readouterr().out
        assert report.main(["--store", str(path), "--flame", "exp-0123456789ab"]) == 0
        assert "solve:dot" in capsys.readouterr().out


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

    def test_cli_exit_codes(self, tmp_path, capsys):
        self._write(tmp_path / "out", PARALLEL_ES_PAYLOAD)
        self._write(tmp_path / "baselines", PARALLEL_ES_PAYLOAD)
        argv = ["--check-regressions", "--bench-dir", str(tmp_path / "out"),
                "--baselines", str(tmp_path / "baselines")]
        assert report.main(argv) == 0
        assert "regression gate: PASS" in capsys.readouterr().out
        inflated = dict(PARALLEL_ES_PAYLOAD, toc_cents=5.6e-06)
        self._write(tmp_path / "baselines", inflated)
        assert report.main(argv) != 0
        assert "regression gate: FAIL (1 regression(s))" in capsys.readouterr().out

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
