"""The resilience layer: fault injection, recovery, graceful degradation.

Three families of tests mirror the three layers of the recovery machinery:

* **Parallel search** -- a chaos run (worker kills, shard exceptions,
  stragglers, checkpoint corruption) must recover to the *bitwise identical*
  fault-free optimum: retries are idempotent, a dead worker's closed pipe is
  noticed and its shard retried on a replacement, corrupt checkpoints are
  quarantined and redone.
* **Solvers** -- ``budget`` is a hard wall-clock deadline; a blown budget
  yields a degraded result flagged in ``SolveStats`` (with incidents), and
  any degraded result that claims feasibility really is SLA/capacity
  feasible (property-tested).  The :class:`FallbackSolver` chain always
  lands on a concrete layout, down to holding the initial one.
* **Online control plane** -- the epoch loop never raises: telemetry
  dropouts fall back to the last observation, outlier epochs are MAD-clamped,
  failed/overrun re-tier solves hold the deployed layout, and migration
  failures retry then hold -- all recorded per :class:`EpochRecord`.
"""

import multiprocessing
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.core.batch_eval import BatchLayoutEvaluator
import repro.core.parallel_search as ps
from repro.core.context import EvaluationContext
from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress
from repro.core.solver import DOTSolver, ExhaustiveSolver, FallbackSolver
from repro.dbms.executor import WorkloadEstimator
from repro.exceptions import (
    CheckpointCorruptionError,
    ConfigurationError,
    ShardFailureError,
    SolverTimeoutError,
    TelemetryGapError,
)
from repro.online.controller import OnlineAdvisor
from repro.online.drift import DriftingWorkloadGenerator, PhaseSchedule, WorkloadPhase
from repro.online.monitor import DriftThresholds, OutlierPolicy, TelemetryMonitor
from repro.obs import trace
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_file,
)
from repro.sla.constraints import RelativeSLA, ResponseTimeConstraint

WORKERS = 2


def fresh_estimator(catalog):
    return WorkloadEstimator(catalog, noise=0.0, buffer_pool=None, seed=7)


def solve_es(small_objects, box1_system, small_catalog, small_workload, **knobs):
    """Exhaustive search on a fresh estimator with solver ``knobs``."""
    context = EvaluationContext(small_objects, box1_system, fresh_estimator(small_catalog),
                                small_workload)
    return ExhaustiveSolver(**knobs).solve(context)


def make_engine(small_objects, box1_system, small_catalog, small_workload, **kwargs):
    evaluator = BatchLayoutEvaluator(
        small_objects, box1_system, fresh_estimator(small_catalog), small_workload
    )
    return ParallelEnumerationEngine(evaluator, chunk_size=64, **kwargs)


@pytest.fixture
def serial_reference(small_objects, box1_system, small_catalog, small_workload):
    """The fault-free serial optimum every chaos run must reproduce exactly."""
    return solve_es(small_objects, box1_system, small_catalog, small_workload)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

class TestFaultPlans:
    def test_specs_validate_their_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ConfigurationError):
            FaultPlan().add_shard_fault(0, FaultSpec(kind="telemetry_dropout"))
        with pytest.raises(ConfigurationError):
            FaultPlan().add_epoch_fault(0, FaultSpec(kind="worker_crash"))

    def test_chaos_search_is_seeded_and_disjoint(self):
        first = FaultPlan.chaos_search(
            11, range(16), crash_fraction=0.25, exception_fraction=0.25,
            delay_fraction=0.25,
        )
        second = FaultPlan.chaos_search(
            11, range(16), crash_fraction=0.25, exception_fraction=0.25,
            delay_fraction=0.25,
        )
        assert first.shard_faults == second.shard_faults
        assert len(first.shard_faults) == 12  # 4 + 4 + 4 disjoint shards

    def test_chaos_online_never_faults_epoch_zero(self):
        plan = FaultPlan.chaos_online(3, num_epochs=10, dropout_fraction=0.5)
        assert 0 not in plan.epoch_faults
        assert len(plan.epoch_faults) == 5

    def test_injector_without_plan_is_a_noop(self):
        injector = FaultInjector()
        assert injector.shard_fault(0, 0) is None
        assert injector.telemetry_fault(1) is None
        assert injector.solver_fault(1) is None
        assert injector.migration_fault(1, 0) is False

    def test_migration_fault_fails_only_the_first_attempts(self):
        plan = FaultPlan().add_epoch_fault(
            4, FaultSpec(kind="migration_failure", attempts=2)
        )
        injector = FaultInjector(plan)
        assert injector.migration_fault(4, 0)
        assert injector.migration_fault(4, 1)
        assert not injector.migration_fault(4, 2)


# ---------------------------------------------------------------------------
# Chaos identity: the parallel search under injected faults
# ---------------------------------------------------------------------------

class TestChaosIdentity:
    @pytest.mark.timeout(120)
    def test_worker_kills_recover_to_the_fault_free_optimum(
            self, pool_always, small_objects, box1_system, small_catalog, small_workload,
            serial_reference):
        """Hard-killing workers on half the shards must not change one bit
        of the answer: each kill closes the worker's pipe, and the retry
        (fault keyed to attempt 0) completes the lost shard.  The workers
        started in place of the killed ones get the same process arguments
        -- the coordinator's warmed evaluator -- so none of them warms or
        estimates anything."""
        probe = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=WORKERS
        )
        shard_ids = [task[0] for task in probe.shard_ranges()]
        plan = FaultPlan.chaos_search(seed=23, shard_ids=shard_ids, crash_fraction=0.5)
        assert plan.shard_faults  # the chaos run must actually inject something
        with trace.tracing() as tracer:
            result = solve_es(small_objects, box1_system, small_catalog, small_workload,
                              workers=WORKERS, fault_plan=plan)
            (root,) = tracer.drain_roots()
        assert result.stats.workers == WORKERS  # the pool ran
        assert result.feasible == serial_reference.feasible
        assert result.toc_cents == serial_reference.toc_cents
        assert result.layout == serial_reference.layout
        assert not result.stats.degraded
        assert any("worker exited with code 17" in incident
                   for incident in result.stats.incidents)
        (warm_span,) = [child for child in root["children"] if child["name"] == "es.warm"]
        stats = result.stats.batch
        assert stats.warm_s == warm_span["attrs"]["warm_s"]  # no worker warm-up
        assert stats.cache_hits == stats.cache_misses == 0  # no worker estimates

    @pytest.mark.timeout(120)
    def test_exceptions_and_stragglers_recover_identically(
            self, pool_always, small_objects, box1_system, small_catalog, small_workload,
            serial_reference):
        probe = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=WORKERS
        )
        shard_ids = [task[0] for task in probe.shard_ranges()]
        plan = FaultPlan.chaos_search(
            seed=5, shard_ids=shard_ids, crash_fraction=0.0,
            exception_fraction=0.5, delay_fraction=0.25, delay_s=0.02,
        )
        result = solve_es(small_objects, box1_system, small_catalog, small_workload,
                          workers=WORKERS, fault_plan=plan)
        assert result.stats.workers == WORKERS  # the pool ran
        assert result.toc_cents == serial_reference.toc_cents
        assert result.layout == serial_reference.layout
        assert result.stats.incidents  # every recovery left a trace

    @pytest.mark.timeout(120)
    def test_kills_during_demand_dispatch_recover_identically(
            self, pool_always, small_objects, box1_system, small_catalog, small_workload,
            serial_reference):
        """Shards beyond each worker's first, and re-queued shards, dispatch
        on demand as steals; hard-killing workers on a chunk of those shards
        must still converge to the bitwise fault-free optimum, with the
        steal counter recording the demand-driven dispatches."""
        probe = make_engine(
            small_objects, box1_system, small_catalog, small_workload,
            workers=WORKERS,
        )
        shard_ids = [task[0] for task in probe.shard_ranges()]
        assert len(shard_ids) > WORKERS  # there must be shards left to steal
        plan = FaultPlan.chaos_search(seed=31, shard_ids=shard_ids, crash_fraction=0.4)
        assert plan.shard_faults
        result = solve_es(small_objects, box1_system, small_catalog, small_workload,
                          workers=WORKERS, fault_plan=plan)
        assert result.stats.workers == WORKERS  # the pool ran
        assert result.feasible == serial_reference.feasible
        assert result.toc_cents == serial_reference.toc_cents
        assert result.layout == serial_reference.layout
        assert not result.stats.degraded
        assert result.stats.batch.steals > 0

    def test_serial_path_injects_faults_without_killing_the_process(
            self, small_objects, box1_system, small_catalog, small_workload,
            serial_reference):
        """On the in-process path a worker_crash is demoted to an exception
        (killing the coordinator would end the test run, not test recovery)
        and the bounded retry still converges."""
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload,
            workers=1,
            fault_plan=FaultPlan().add_shard_fault(0, FaultSpec(kind="worker_crash")),
        )
        progress = engine.run()
        assert progress.finished
        assert progress.best_toc == serial_reference.toc_cents
        assert any("retrying" in incident for incident in progress.incidents)

    def test_exhausted_retries_surface_shard_failure(
            self, small_objects, box1_system, small_catalog, small_workload, monkeypatch):
        monkeypatch.setattr(ps, "SHARD_RETRY_BACKOFF_S", 0.0)
        plan = FaultPlan()
        for attempt in range(3):  # default retries = 2, so 3 attempts all fail
            plan.add_shard_fault(
                0, FaultSpec(kind="shard_exception"), attempt=attempt
            )
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload,
            workers=1, fault_plan=plan,
        )
        with pytest.raises(ShardFailureError) as excinfo:
            engine.run()
        assert excinfo.value.shard_id == 0

    def test_deadline_abort_carries_partial_progress(
            self, small_objects, box1_system, small_catalog, small_workload):
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload,
            workers=1, deadline_s=0.0,
        )
        with pytest.raises(SolverTimeoutError) as excinfo:
            engine.run()
        progress = excinfo.value.progress
        assert progress is not None
        assert not progress.finished
        assert any("deadline" in incident for incident in progress.incidents)
        # No shard ran, yet the progress holds the seed: the best feasible
        # all-on-one-class layout, at its enumeration index.
        num_classes, num_objects = len(box1_system), len(small_objects)
        uniform = make_engine(
            small_objects, box1_system, small_catalog, small_workload, prune=False
        ).evaluator.evaluate_chunk(
            np.repeat(np.arange(num_classes)[:, None], num_objects, axis=1)
        )
        best = uniform.best_index
        assert best is not None
        assert progress.evaluated == 0
        assert progress.best_row == (best,) * num_objects
        assert progress.best_toc == uniform.toc_cents[best]
        assert progress.best_index == best * (num_classes**num_objects - 1) // (num_classes - 1)


# ---------------------------------------------------------------------------
# Checkpoint corruption: quarantine and redo
# ---------------------------------------------------------------------------

class TestCheckpointCorruption:
    @pytest.mark.parametrize("mode", ["truncate", "garble", "junk"])
    def test_corrupt_checkpoint_is_refused_by_load(
            self, small_objects, box1_system, small_catalog, small_workload,
            tmp_path, mode):
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=1
        )
        path = tmp_path / "progress.json"
        engine.run(checkpoint_path=path)
        corrupt_file(path, mode=mode, seed=3)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            SearchProgress.load(path)
        assert str(path) in str(excinfo.value)

    def test_quarantine_and_redo_reaches_the_fault_free_optimum(
            self, small_objects, box1_system, small_catalog, small_workload,
            tmp_path, serial_reference):
        """A damaged checkpoint must never poison a resume: it is renamed
        aside and the engine redoes the shards from scratch, landing on the
        exact fault-free answer."""
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=1
        )
        path = tmp_path / "progress.json"
        engine.run(checkpoint_path=path)
        corrupt_file(path, mode="truncate")

        recovered = SearchProgress.load_or_quarantine(path)
        assert recovered is None
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

        redo = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=1
        )
        progress = redo.run(
            SearchProgress.load_or_quarantine(path), checkpoint_path=path
        )
        assert progress.finished
        assert progress.best_toc == serial_reference.toc_cents
        assert SearchProgress.load(path).finished

    def test_missing_checkpoint_is_not_an_error(self, tmp_path):
        assert SearchProgress.load_or_quarantine(tmp_path / "absent.json") is None


# ---------------------------------------------------------------------------
# Dead workers
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("pool_always")
class TestDeadWorker:
    @pytest.mark.timeout(60)
    def test_killed_worker_is_replaced_without_a_budget(self, small_bundle):
        """A worker killed mid-shard closes its end of the pipe.  With the
        default knobs (no budget), the pool notices, retries the shard on a
        replacement worker and returns the in-process optimum bit for bit,
        instead of waiting forever for a reply that never comes."""
        reference = ExhaustiveSolver().solve(make_context(small_bundle))
        plan = FaultPlan().add_shard_fault(0, FaultSpec(kind="worker_crash"))
        before = set(multiprocessing.active_children())
        result = ExhaustiveSolver(workers=WORKERS, fault_plan=plan).solve(
            make_context(small_bundle)
        )
        assert result.stats.workers == WORKERS  # the pool ran
        assert result.layout == reference.layout
        assert result.toc_cents == reference.toc_cents
        assert not result.stats.degraded
        assert result.stats.incidents == [
            "shard 0 attempt 0 failed (worker exited with code 17); retrying"
        ]
        assert not set(multiprocessing.active_children()) - before

    @pytest.mark.timeout(60)
    def test_worker_killed_while_idle_is_replaced(self, small_bundle, monkeypatch):
        """A worker killed before its first shard makes the coordinator's
        send fail; its closed pipe is read like any other dead worker's, and
        the shard is retried on a replacement."""
        start_worker = ParallelEnumerationEngine._start_worker
        exit_codes = []

        def start_then_kill_the_first(engine, context, worker_args):
            process, conn = start_worker(engine, context, worker_args)
            if not exit_codes:
                process.kill()
                process.join()
                exit_codes.append(process.exitcode)
            return process, conn

        monkeypatch.setattr(ParallelEnumerationEngine, "_start_worker",
                            start_then_kill_the_first)
        reference = ExhaustiveSolver().solve(make_context(small_bundle))
        result = ExhaustiveSolver(workers=WORKERS).solve(make_context(small_bundle))
        assert result.stats.workers == WORKERS  # the pool ran
        assert exit_codes == [-signal.SIGKILL]
        assert result.layout == reference.layout
        assert result.toc_cents == reference.toc_cents
        (incident,) = result.stats.incidents
        assert incident.endswith(f"(worker exited with code {-signal.SIGKILL}); retrying")


# ---------------------------------------------------------------------------
# Pool teardown
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("pool_always")
class TestPoolTeardown:
    """No worker process outlives ``run``, whether it returns or raises."""

    @staticmethod
    def started_workers(before):
        return set(multiprocessing.active_children()) - before

    def test_engine_is_a_context_manager_and_tears_down_on_error(
            self, small_objects, box1_system, small_catalog, small_workload, monkeypatch):
        monkeypatch.setattr(ps, "SHARD_RETRY_BACKOFF_S", 0.0)
        plan = FaultPlan()
        for attempt in range(3):
            plan.add_shard_fault(
                0, FaultSpec(kind="shard_exception"), attempt=attempt
            )
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload,
            workers=WORKERS, fault_plan=plan,
        )
        before = set(multiprocessing.active_children())
        with pytest.raises(ShardFailureError):
            with engine:
                engine.run()
        assert engine.workers_used == WORKERS  # the pool ran
        assert not self.started_workers(before)  # terminated and joined, not leaked

    def test_run_tears_down_on_success_too(
            self, small_objects, box1_system, small_catalog, small_workload):
        engine = make_engine(
            small_objects, box1_system, small_catalog, small_workload, workers=WORKERS
        )
        before = set(multiprocessing.active_children())
        with engine:
            progress = engine.run()
        assert progress.finished
        assert engine.workers_used == WORKERS  # the pool ran
        assert not self.started_workers(before)


# ---------------------------------------------------------------------------
# Degraded solves: deadline semantics and feasibility
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_bundle():
    return scenarios.build("synthetic_small")


def make_context(bundle, **kwargs):
    return bundle.context(estimator=bundle.fresh_estimator(), **kwargs)


class _AlwaysFailingSolver:
    name = "boom"

    def solve(self, context, *, initial_layout=None, budget=None):
        raise RuntimeError("synthetic solver crash")


class TestDegradedSolves:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(budget=st.floats(min_value=0.0, max_value=0.02,
                            allow_nan=False, allow_infinity=False))
    def test_degraded_es_results_are_feasible_when_claimed(self, small_bundle, budget):
        """Whatever the deadline cuts off, a degraded result that claims
        feasibility must satisfy the SLA and capacity checks -- the search
        only ever keeps feasible incumbents."""
        context = make_context(small_bundle)
        result = ExhaustiveSolver().solve(context, budget=budget)
        if result.stats.degraded:
            assert result.stats.incidents
            assert result.stats.deadline_s == budget
        if result.feasible:
            check = context.checker().check(
                result.layout, context.evaluate(result.layout).run_result
            )
            assert check.feasible

    def test_fallback_chain_survives_a_crashing_stage(self, small_bundle):
        solver = FallbackSolver(chain=[_AlwaysFailingSolver(), DOTSolver()])
        result = solver.solve(make_context(small_bundle))
        assert result.solver == "fallback:dot"
        assert result.feasible
        assert any("boom" in incident for incident in result.stats.incidents)
        assert result.stats.degraded  # a stage was lost on the way

    def test_fallback_holds_the_initial_layout_as_last_resort(self, small_bundle):
        solver = FallbackSolver(chain=[_AlwaysFailingSolver(), _AlwaysFailingSolver()])
        context = make_context(small_bundle)
        held = context.reference_layout()
        result = solver.solve(context, initial_layout=held)
        assert result.solver == "fallback:hold"
        assert result.layout == held
        assert result.stats.degraded
        assert len(result.stats.incidents) >= 2

    def test_fallback_deadline_is_shared_across_stages(self, small_bundle):
        solver = FallbackSolver(chain=[ExhaustiveSolver(), DOTSolver()])
        result = solver.solve(make_context(small_bundle), budget=0.0)
        # With a zero budget every stage is deadline-starved; whatever comes
        # back must say so.
        assert result.stats.degraded
        assert result.stats.incidents


# ---------------------------------------------------------------------------
# Telemetry hygiene: gaps and outliers
# ---------------------------------------------------------------------------

class _StubRunResult:
    def __init__(self, name, io_by_object):
        self.workload_name = name
        self.io_by_object = io_by_object


def _stub_epoch(total):
    return _StubRunResult("stub", {"fact": {"rand_read": total}})


class TestTelemetryHygiene:
    def test_profile_set_before_any_observation_raises_gap_error(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        with pytest.raises(TelemetryGapError):
            monitor.profile_set()
        # Back-compat: callers that caught ValueError keep working.
        with pytest.raises(ValueError):
            monitor.profile_set()

    def test_observe_gap_records_the_epoch_without_touching_history(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        monitor.observe(0, _stub_epoch(100.0))
        monitor.observe_gap(1)
        assert monitor.gap_epochs == [1]
        assert len(monitor.history) == 1
        incidents = monitor.drain_incidents()
        assert any("dropout" in incident for incident in incidents)
        assert monitor.drain_incidents() == []  # drained means drained

    def test_mad_clamp_rescales_an_outlier_epoch(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system, outlier_policy=OutlierPolicy(window=5, k=6.0)
        )
        for epoch in range(4):
            monitor.observe(epoch, _stub_epoch(100.0 + epoch))
        monitor.observe(4, _stub_epoch(2500.0))  # a 25x counter glitch
        clamped = monitor.history[-1]
        assert clamped.total_ios == pytest.approx(101.5, rel=0.05)
        assert any("outlier" in incident for incident in monitor.drain_incidents())

    def test_mad_clamp_accepts_honest_growth(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system, outlier_policy=OutlierPolicy(window=5, k=6.0, rel_floor=0.2)
        )
        totals = [100.0, 110.0, 120.0, 130.0, 142.0]
        for epoch, total in enumerate(totals):
            monitor.observe(epoch, _stub_epoch(total))
        assert monitor.history[-1].total_ios == 142.0
        assert monitor.drain_incidents() == []

    def test_without_policy_everything_is_accepted(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        for epoch in range(4):
            monitor.observe(epoch, _stub_epoch(100.0))
        monitor.observe(4, _stub_epoch(2500.0))
        assert monitor.history[-1].total_ios == 2500.0


# ---------------------------------------------------------------------------
# The online control plane under epoch faults
# ---------------------------------------------------------------------------

@pytest.fixture
def two_phase_generator(lookup_query, write_query, small_workload):
    stream = (lookup_query, write_query) * 3
    oltp_style = WorkloadPhase(
        "oltp", small_workload.with_stream(stream, name="oltp-style")
    )
    olap = WorkloadPhase("olap", small_workload)
    schedule = PhaseSchedule.ramp(12, start_epoch=1, end_epoch=5,
                                  phase_names=("oltp", "olap"))
    return DriftingWorkloadGenerator(
        [oltp_style, olap], schedule, seed=11, name="chaos-drift"
    )


def chaos_advisor(small_objects, box1_system, small_catalog, **kwargs):
    return OnlineAdvisor(
        small_objects, box1_system, fresh_estimator(small_catalog),
        sla=RelativeSLA(0.5),
        thresholds=DriftThresholds(share_threshold=0.05),
        **kwargs,
    )


class TestOnlineResilience:
    @pytest.mark.timeout(180)
    def test_dropout_epochs_complete_with_psr_and_incidents(
            self, small_objects, box1_system, small_catalog, two_phase_generator):
        """The acceptance run: 20% of epochs lose their telemetry and the
        loop still completes every epoch, PSR reported, nothing raised."""
        plan = FaultPlan.chaos_online(seed=7, num_epochs=12, dropout_fraction=0.2)
        dropout_epochs = set(plan.epoch_faults)
        assert dropout_epochs  # the schedule must actually drop something
        advisor = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
        )
        result = advisor.run(two_phase_generator.epochs())
        assert result.num_epochs == 12
        assert all(0.0 <= record.psr <= 1.0 for record in result.records)
        assert result.min_psr >= 0.5
        for record in result.records:
            if record.epoch in dropout_epochs:
                assert any("dropout" in incident for incident in record.incidents)
                assert not record.drift.drifted

    def test_dropout_epoch_reprofiles_through_the_estimator(
            self, small_objects, box1_system, small_catalog, small_workload,
            monkeypatch):
        """A re-tier on a dropout epoch must not re-profile from the held
        observation: the monitor only has an earlier epoch's counts, so the
        loop falls back to estimator profiles, as the dropout incident says."""
        served = []
        profile_set = TelemetryMonitor.profile_set

        def spy(self, *args, **kwargs):
            served.append(self.history[-1].epoch)
            return profile_set(self, *args, **kwargs)

        monkeypatch.setattr(TelemetryMonitor, "profile_set", spy)
        unattainable = ResponseTimeConstraint(
            {query.name: 1e-9 for query in small_workload.queries}
        )
        plan = FaultPlan().add_epoch_fault(2, FaultSpec(kind="telemetry_dropout"))
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=unattainable,
            retier_on_sla_violation=True,
            fault_injector=FaultInjector(plan),
        )
        result = advisor.run([small_workload] * 4)
        assert all(record.reoptimized for record in result.records)
        assert served == [1, 3]

    def test_outlier_epoch_is_clamped_not_acted_on(
            self, small_objects, box1_system, small_catalog, small_workload):
        """A 25x counter glitch must neither crash the loop nor trigger a
        re-tier once the MAD clamp rescales it."""
        plan = FaultPlan().add_epoch_fault(
            5, FaultSpec(kind="telemetry_outlier", factor=25.0)
        )
        advisor = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
            outlier_policy=OutlierPolicy(window=5, k=6.0),
        )
        result = advisor.run([small_workload] * 8)
        glitched = result.records[5]
        assert not glitched.drift.drifted
        assert any("outlier" in incident for incident in glitched.incidents)
        assert result.retier_epochs == ()  # steady workload: still no re-tier

    def test_solver_error_holds_the_layout_and_retries_next_epoch(
            self, small_objects, box1_system, small_catalog, two_phase_generator):
        baseline = chaos_advisor(small_objects, box1_system, small_catalog).run(
            two_phase_generator.epochs()
        )
        assert baseline.retier_epochs  # the drift must re-tier somewhere
        target = baseline.retier_epochs[0]

        plan = FaultPlan().add_epoch_fault(target, FaultSpec(kind="solver_error"))
        chaotic = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
        ).run(two_phase_generator.epochs())

        record = next(r for r in chaotic.records if r.epoch == target)
        previous = next(r for r in chaotic.records if r.epoch == target - 1)
        assert record.reoptimized and not record.migrated
        assert record.layout == previous.layout  # held, not re-tiered
        assert any("solve failed" in incident for incident in record.incidents)
        # The drift reference was NOT rebased, so a later epoch re-tiers.
        assert any(epoch > target for epoch in chaotic.retier_epochs)

    def test_solver_overrun_degrades_within_budget(
            self, small_objects, box1_system, small_catalog, two_phase_generator):
        baseline = chaos_advisor(small_objects, box1_system, small_catalog).run(
            two_phase_generator.epochs()
        )
        target = baseline.retier_epochs[0]
        plan = FaultPlan().add_epoch_fault(
            target, FaultSpec(kind="solver_overrun", delay_s=0.01)
        )
        chaotic = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
            retier_budget_s=0.005,  # the stall eats the entire budget
        ).run(two_phase_generator.epochs())
        record = next(r for r in chaotic.records if r.epoch == target)
        assert any("degraded" in incident for incident in record.incidents)
        assert record.dot_result is not None
        assert record.dot_result.stats.degraded

    def test_migration_failure_retries_then_succeeds(
            self, small_objects, box1_system, small_catalog, two_phase_generator):
        baseline = chaos_advisor(small_objects, box1_system, small_catalog).run(
            two_phase_generator.epochs()
        )
        target = baseline.retier_epochs[0]
        plan = FaultPlan().add_epoch_fault(
            target, FaultSpec(kind="migration_failure", attempts=1)
        )
        chaotic = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
        ).run(two_phase_generator.epochs())
        record = next(r for r in chaotic.records if r.epoch == target)
        assert record.migrated  # the retry recovered the migration
        assert any("attempt 1" in incident for incident in record.incidents)
        assert chaotic.retier_epochs == baseline.retier_epochs

    def test_migration_failure_exhausts_retries_and_holds(
            self, small_objects, box1_system, small_catalog, two_phase_generator):
        baseline = chaos_advisor(small_objects, box1_system, small_catalog).run(
            two_phase_generator.epochs()
        )
        target = baseline.retier_epochs[0]
        plan = FaultPlan().add_epoch_fault(
            target, FaultSpec(kind="migration_failure", attempts=10)
        )
        chaotic = chaos_advisor(
            small_objects, box1_system, small_catalog,
            fault_injector=FaultInjector(plan),
        ).run(two_phase_generator.epochs())
        record = next(r for r in chaotic.records if r.epoch == target)
        previous = next(r for r in chaotic.records if r.epoch == target - 1)
        assert not record.migrated
        assert record.layout == previous.layout
        assert any("abandoned" in incident for incident in record.incidents)

    def test_fault_free_records_have_no_incidents(
            self, small_objects, box1_system, small_catalog, small_workload):
        advisor = chaos_advisor(small_objects, box1_system, small_catalog)
        result = advisor.run([small_workload] * 4)
        assert all(record.incidents == () for record in result.records)
