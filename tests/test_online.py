"""The online re-provisioning subsystem.

Covers the ISSUE 2 acceptance properties (seeded drift schedules are
deterministic, migration cost is conserved, a no-drift workload never
triggers a re-tier, the end-to-end crossfade beats the frozen layout net of
migration charges) plus the ISSUE 5 closed-loop properties: telemetry-driven
re-profiling is bitwise-identical to the estimator replay on plan-stable
workloads and skips the per-epoch estimate-cache warm-up, the trend
predictor fires before a ramp peaks and never on a stationary stream, and
cross-kind epochs blend the two TOC metrics under kind-matched constraints.
"""

import pytest

from repro.core.context import EvaluationContext
from repro.core.dot import DOTSolver
from repro.core.layout import Layout
from repro.core.profiler import WorkloadProfiler
from repro.core.toc import TOCModel
from repro.dbms.executor import WorkloadEstimator
from repro.dbms.query import Query, TableAccess
from repro.exceptions import WorkloadError
from repro.online.controller import OnlineAdvisor
from repro.online.drift import (
    DriftingWorkloadGenerator,
    PhaseSchedule,
    WorkloadPhase,
)
from repro.online.migration import (
    MigrationCostModel,
    MigrationPlan,
    ReProvisioningPolicy,
)
from repro.online.monitor import (
    DriftThresholds,
    TelemetryMonitor,
    TrendPredictor,
)
from repro.sla.constraints import RelativeSLA
from repro.sla.psr import performance_satisfaction_ratio
from repro.workloads.workload import CrossKindWorkload, Workload, blend_transaction_mixes


def fresh_estimator(catalog):
    return WorkloadEstimator(catalog, noise=0.0, buffer_pool=None, seed=7)


@pytest.fixture
def olap_phase(small_workload):
    return WorkloadPhase("olap", small_workload)


@pytest.fixture
def oltp_style_phase(lookup_query, write_query, small_workload):
    stream = (lookup_query, write_query) * 3
    return WorkloadPhase("oltp", small_workload.with_stream(stream, name="oltp-style"))


@pytest.fixture
def two_phase_generator(oltp_style_phase, olap_phase):
    # Ramp early, then hold the drifted mix: the tail must be longer than the
    # policy's amortization horizon, or a late re-tier's payback is truncated
    # by the end of the run and the online-vs-frozen margin becomes noise.
    schedule = PhaseSchedule.ramp(12, start_epoch=1, end_epoch=5,
                                  phase_names=("oltp", "olap"))
    return DriftingWorkloadGenerator(
        [oltp_style_phase, olap_phase], schedule, seed=11, name="test-drift"
    )


# ---------------------------------------------------------------------------
# Phase schedules
# ---------------------------------------------------------------------------

class TestPhaseSchedule:
    def test_rows_are_normalised(self):
        schedule = PhaseSchedule(("a", "b"), [(2.0, 2.0), (1.0, 3.0)])
        assert schedule.weights_at(0) == (0.5, 0.5)
        assert schedule.weights_at(1) == (0.25, 0.75)

    def test_crossfade_endpoints(self):
        for shape in ("linear", "smoothstep"):
            schedule = PhaseSchedule.crossfade(10, shape=shape)
            assert schedule.weights_at(0) == (1.0, 0.0)
            assert schedule.weights_at(9) == (0.0, 1.0)
            # Weights move monotonically toward phase B.
            b_weights = [schedule.weights_at(epoch)[1] for epoch in range(10)]
            assert b_weights == sorted(b_weights)

    def test_ramp_holds_endpoints(self):
        schedule = PhaseSchedule.ramp(10, start_epoch=2, end_epoch=6)
        assert schedule.weights_at(2) == (1.0, 0.0)
        assert schedule.weights_at(4) == (0.5, 0.5)
        assert schedule.weights_at(8) == (0.0, 1.0)

    def test_diurnal_period(self):
        schedule = PhaseSchedule.diurnal(9, period=8)
        assert schedule.weights_at(0)[1] == pytest.approx(0.0)
        assert schedule.weights_at(4)[1] == pytest.approx(1.0)
        assert schedule.weights_at(8)[1] == pytest.approx(0.0)

    def test_flash_crowd_spike(self):
        schedule = PhaseSchedule.flash_crowd(7, spike_epoch=3, width=2)
        crowd = [schedule.weights_at(epoch)[1] for epoch in range(7)]
        assert crowd[3] == 1.0
        assert crowd[0] == 0.0 and crowd[6] == 0.0
        assert crowd[2] == 0.5 and crowd[4] == 0.5

    def test_rejects_bad_rows(self):
        with pytest.raises(WorkloadError):
            PhaseSchedule(("a", "b"), [(1.0,)])
        with pytest.raises(WorkloadError):
            PhaseSchedule(("a", "b"), [(-1.0, 2.0)])
        with pytest.raises(WorkloadError):
            PhaseSchedule(("a", "b"), [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# Drifting workload generation
# ---------------------------------------------------------------------------

class TestDriftingWorkloadGenerator:
    def test_seeded_epochs_are_deterministic(self, oltp_style_phase, olap_phase):
        schedule = PhaseSchedule.crossfade(6, ("oltp", "olap"))

        def stream_names(seed):
            generator = DriftingWorkloadGenerator(
                [oltp_style_phase, olap_phase], schedule, seed=seed
            )
            return [
                tuple(query.name for query in epoch.workload.queries)
                for epoch in generator.epochs()
            ]

        assert stream_names(97) == stream_names(97)
        assert stream_names(97) != stream_names(98)

    def test_epoch_composition_tracks_weights(self, two_phase_generator,
                                              oltp_style_phase, olap_phase):
        first = two_phase_generator.epoch_workload(0)
        last = two_phase_generator.epoch_workload(two_phase_generator.num_epochs - 1)
        oltp_names = {query.name for query in oltp_style_phase.workload.queries}
        assert all(query.name in oltp_names for query in first.workload.queries)
        olap_names = {query.name for query in olap_phase.workload.queries}
        assert all(query.name in olap_names for query in last.workload.queries)

    def test_every_epoch_is_a_valid_workload(self, two_phase_generator):
        for epoch in two_phase_generator.epochs():
            assert epoch.workload.queries
            assert epoch.workload.kind == "dss"
            assert sum(epoch.weights) == pytest.approx(1.0)

    def test_phase_validation(self, olap_phase, scan_query):
        oltp = Workload(
            name="mix", kind="oltp", transaction_mix=((scan_query, 1.0),), concurrency=5
        )
        with pytest.raises(WorkloadError):
            DriftingWorkloadGenerator(
                [olap_phase, WorkloadPhase("oltp", oltp)],
                PhaseSchedule.crossfade(4, ("olap", "oltp")),
            )

    def test_oltp_blend(self, scan_query, lookup_query, write_query):
        mix_a = Workload(
            name="a", kind="oltp",
            transaction_mix=((lookup_query, 3.0), (write_query, 1.0)),
            concurrency=10, measured_transaction_fraction=0.5,
        )
        mix_b = Workload(
            name="b", kind="oltp", transaction_mix=((scan_query, 1.0),),
            concurrency=10, measured_transaction_fraction=1.0,
        )
        blended = blend_transaction_mixes([mix_a, mix_b], (0.75, 0.25), name="ab")
        weights = {query.name: weight for query, weight in blended.transaction_mix}
        assert weights[lookup_query.name] == pytest.approx(0.75 * 0.75)
        assert weights[write_query.name] == pytest.approx(0.75 * 0.25)
        assert weights[scan_query.name] == pytest.approx(0.25)
        assert blended.measured_transaction_fraction == pytest.approx(
            0.75 * 0.5 + 0.25 * 1.0
        )

    def test_oltp_blend_rejects_mismatched_windows(self, scan_query, lookup_query):
        mix_a = Workload(name="a", kind="oltp", transaction_mix=((lookup_query, 1.0),),
                         concurrency=10, duration_s=3600.0)
        mix_b = Workload(name="b", kind="oltp", transaction_mix=((scan_query, 1.0),),
                         concurrency=10, duration_s=7200.0)
        with pytest.raises(WorkloadError):
            blend_transaction_mixes([mix_a, mix_b], (0.5, 0.5), name="ab")


# ---------------------------------------------------------------------------
# Migration plans and cost conservation
# ---------------------------------------------------------------------------

class TestMigration:
    @pytest.fixture
    def layouts(self, small_objects, box1_system):
        everything_fast = Layout.uniform(small_objects, box1_system, "H-SSD")
        split = everything_fast.with_assignment("fact", "HDD RAID 0").with_assignment(
            "dim", "L-SSD"
        )
        return everything_fast, split

    def test_plan_lists_changed_objects_only(self, layouts):
        source, target = layouts
        plan = MigrationPlan.between(source, target)
        moved = {move.object_name: (move.source, move.target) for move in plan.moves}
        assert moved["fact"] == ("H-SSD", "HDD RAID 0")
        assert moved["dim"] == ("H-SSD", "L-SSD")
        assert all(name in ("fact", "dim") for name in moved)
        assert MigrationPlan.between(source, source).is_empty

    def test_cost_is_conserved_over_class_pairs(self, layouts, box1_system):
        """Total cost must equal bytes moved per class pair times that pair's
        per-GB price -- no bytes may be dropped or double-charged."""
        source, target = layouts
        plan = MigrationPlan.between(source, target)
        model = MigrationCostModel(box1_system)
        cost = model.assess(plan)

        assert cost.bytes_moved_gb == pytest.approx(
            sum(move.size_gb for move in plan.moves)
        )
        by_pair_total = sum(cost.bytes_by_class_pair.values())
        assert by_pair_total == pytest.approx(cost.bytes_moved_gb)
        expected_cents = sum(
            gigabytes * model.cents_per_gb(source_class, target_class)
            for (source_class, target_class), gigabytes in cost.bytes_by_class_pair.items()
        )
        assert cost.transfer_cents == pytest.approx(expected_cents)
        expected_seconds = sum(
            gigabytes * model.seconds_per_gb(source_class, target_class)
            for (source_class, target_class), gigabytes in cost.bytes_by_class_pair.items()
        )
        assert cost.io_time_s == pytest.approx(expected_seconds)

    def test_empty_plan_costs_nothing(self, layouts, box1_system):
        source, _ = layouts
        cost = MigrationCostModel(box1_system).assess(MigrationPlan.between(source, source))
        assert cost.cost_cents == 0.0
        assert cost.io_time_s == 0.0
        assert cost.bytes_moved_gb == 0.0

    def test_disruption_prices_io_time_at_layout_rate(self, layouts, box1_system):
        source, target = layouts
        plan = MigrationPlan.between(source, target)
        model = MigrationCostModel(box1_system)
        rate = 7.5  # cents/hour
        cost = model.assess(plan, layout_cost_cents_per_hour=rate)
        assert cost.disruption_cents == pytest.approx(rate * cost.io_time_s / 3600.0)

    def test_policy_amortization(self):
        policy = ReProvisioningPolicy(horizon_epochs=4)
        # Saves 1 cent/epoch over 4 epochs; migration costs 3: migrate.
        assert policy.should_migrate(10.0, 9.0, 3.0)
        # Migration costs 5 > projected saving 4: stay.
        assert not policy.should_migrate(10.0, 9.0, 5.0)
        # A regression never migrates, whatever the cost.
        assert not policy.should_migrate(9.0, 10.0, 0.0)


# ---------------------------------------------------------------------------
# Telemetry monitoring
# ---------------------------------------------------------------------------

class TestTelemetryMonitor:
    class _FakeResult:
        def __init__(self, name, io_by_object):
            self.workload_name = name
            self.io_by_object = io_by_object

    def test_identical_epochs_never_drift(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        counts = {"fact": {"SR": 100.0}, "dim": {"RR": 50.0}}
        for epoch in range(5):
            monitor.observe(epoch, self._FakeResult("w", counts))
            decision = monitor.check_drift()
            assert not decision.drifted
            assert decision.share_distance == 0.0

    def test_share_shift_triggers(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system, thresholds=DriftThresholds(share_threshold=0.2)
        )
        monitor.observe(0, self._FakeResult("w", {"fact": {"RR": 90.0}, "dim": {"RR": 10.0}}))
        assert not monitor.check_drift().drifted
        monitor.observe(1, self._FakeResult("w", {"fact": {"RR": 10.0}, "dim": {"RR": 90.0}}))
        decision = monitor.check_drift()
        assert decision.drifted
        assert decision.share_distance == pytest.approx(0.8)

    def test_volume_change_triggers(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system, thresholds=DriftThresholds(volume_threshold=0.5)
        )
        monitor.observe(0, self._FakeResult("w", {"fact": {"RR": 100.0}}))
        monitor.observe(1, self._FakeResult("w", {"fact": {"RR": 300.0}}))
        decision = monitor.check_drift()
        assert decision.drifted
        assert decision.volume_change == pytest.approx(2.0)

    def test_cooldown_suppresses_retier(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system,
            thresholds=DriftThresholds(share_threshold=0.1, min_epochs_between=3),
        )
        monitor.observe(0, self._FakeResult("w", {"fact": {"RR": 90.0}, "dim": {"RR": 10.0}}))
        monitor.mark_reprovisioned(0)
        monitor.observe(1, self._FakeResult("w", {"fact": {"RR": 10.0}, "dim": {"RR": 90.0}}))
        assert not monitor.check_drift().drifted  # still cooling down
        monitor.observe(3, self._FakeResult("w", {"fact": {"RR": 10.0}, "dim": {"RR": 90.0}}))
        assert monitor.check_drift().drifted

    def test_reprovision_rebases_reference_on_new_layout(self, box1_system):
        """Telemetry is layout-dependent: after a re-tier the reference must
        be the counts seen under the *new* layout, so an unchanged workload
        scores zero drift instead of phantom plan-flip drift."""
        monitor = TelemetryMonitor(
            box1_system, thresholds=DriftThresholds(share_threshold=0.1)
        )
        old_layout_counts = {"fact": {"RR": 90.0}, "dim": {"RR": 10.0}}
        new_layout_counts = {"fact": {"SR": 40.0}, "dim": {"SR": 60.0}}
        monitor.observe(0, self._FakeResult("w", old_layout_counts))
        monitor.mark_reprovisioned(0, self._FakeResult("w", new_layout_counts))
        monitor.observe(1, self._FakeResult("w", new_layout_counts))
        decision = monitor.check_drift()
        assert not decision.drifted
        assert decision.share_distance == 0.0

    def test_profile_set_wraps_latest_epoch(self, box1_system):
        monitor = TelemetryMonitor(box1_system, concurrency=4)
        counts = {"fact": {"SR": 10.0}}
        monitor.observe(0, self._FakeResult("w", counts))
        profile = monitor.profile_set()
        assert profile.concurrency == 4
        assert profile.profiles[(box1_system.most_expensive().name,)] == counts


# ---------------------------------------------------------------------------
# DOT warm start
# ---------------------------------------------------------------------------

class TestWarmStart:
    def test_warm_start_from_l0_equals_cold(self, small_objects, box1_system,
                                            small_catalog, small_workload):
        context = EvaluationContext(small_objects, box1_system,
                                    fresh_estimator(small_catalog), small_workload)
        cold = DOTSolver().solve(context)
        warm = DOTSolver().solve(context, initial_layout=context.reference_layout())
        assert warm.layout == cold.layout
        assert warm.toc_cents == cold.toc_cents

    def test_warm_start_from_optimum_keeps_it(self, small_objects, box1_system,
                                              small_catalog, small_workload):
        context = EvaluationContext(small_objects, box1_system,
                                    fresh_estimator(small_catalog), small_workload)
        cold = DOTSolver().solve(context)
        warm = DOTSolver().solve(context, initial_layout=cold.layout)
        assert warm.feasible
        assert warm.toc_cents <= cold.toc_cents


# ---------------------------------------------------------------------------
# The epoch loop
# ---------------------------------------------------------------------------

class TestOnlineAdvisor:
    def test_no_drift_never_retiers(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        """A workload that never changes must provision once and only once."""
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
        )
        result = advisor.run([small_workload] * 6)
        assert result.num_epochs == 6
        assert result.retier_epochs == ()
        assert result.total_migration_cents == 0.0
        first_layout = result.records[0].layout
        assert all(record.layout == first_layout for record in result.records)
        assert all(not record.reoptimized for record in result.records[1:])

    def test_crossfade_beats_frozen_net_of_migration(self, small_objects, box1_system,
                                                     small_catalog, two_phase_generator):
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
        )
        online = advisor.run(two_phase_generator.epochs())
        frozen = advisor.evaluate_frozen(
            two_phase_generator.epochs(), online.records[0].layout
        )
        assert online.num_epochs == two_phase_generator.num_epochs
        assert online.min_psr >= 0.5
        assert online.cumulative_cost_cents <= frozen.cumulative_cost_cents
        # Cumulative cost is monotone in epochs.
        running = [record.cumulative_cost_cents for record in online.records]
        assert running == sorted(running)

    def test_run_is_deterministic(self, small_objects, box1_system, small_catalog,
                                  two_phase_generator):
        def run_once():
            advisor = OnlineAdvisor(
                small_objects, box1_system, fresh_estimator(small_catalog),
                sla=RelativeSLA(0.5),
            )
            return advisor.run(two_phase_generator.epochs())

        first, second = run_once(), run_once()
        assert first.describe() == second.describe()
        assert first.cumulative_cost_cents == second.cumulative_cost_cents

    def test_migration_charges_enter_cumulative_cost(self, small_objects, box1_system,
                                                     small_catalog, two_phase_generator):
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
        )
        online = advisor.run(two_phase_generator.epochs())
        toc_only = sum(record.toc_cents for record in online.records)
        assert online.cumulative_cost_cents == pytest.approx(
            toc_only + online.total_migration_cents
        )


# ---------------------------------------------------------------------------
# Trend prediction
# ---------------------------------------------------------------------------

class _FakeResult:
    def __init__(self, name, io_by_object):
        self.workload_name = name
        self.io_by_object = io_by_object


def _ramp_counts(step, total=1000.0):
    """Telemetry whose I/O share ramps from `fact` toward `dim` by 10 %/epoch."""
    dim_share = min(0.1 * step, 1.0)
    return {
        "fact": {"RR": total * (1.0 - dim_share)},
        "dim": {"RR": total * dim_share},
    }


class TestTrendPredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrendPredictor(window=1)
        with pytest.raises(ValueError):
            TrendPredictor(horizon_epochs=0)
        with pytest.raises(ValueError):
            TrendPredictor(min_history=1)
        with pytest.raises(ValueError):
            # Default min_history=3 could never be met by a 2-epoch window;
            # the predictor would silently never fire.
            TrendPredictor(window=2)

    def test_insufficient_history_predicts_nothing(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        predictor = TrendPredictor(window=4, min_history=3)
        monitor.observe(0, _FakeResult("w", _ramp_counts(0)))
        monitor.observe(1, _FakeResult("w", _ramp_counts(1)))
        decision = monitor.check_predicted_drift(predictor)
        assert not decision.predicted
        assert "insufficient telemetry" in decision.reason

    def test_ramp_is_anticipated_before_threshold(self, box1_system):
        """At 10 %/epoch share drift, a horizon-3 projection crosses a 40 %
        threshold while the observed distance is still at ~20 %."""
        monitor = TelemetryMonitor(
            box1_system, thresholds=DriftThresholds(share_threshold=0.40)
        )
        predictor = TrendPredictor(window=3, horizon_epochs=3, min_history=2)
        for epoch in range(3):
            monitor.observe(epoch, _FakeResult("w", _ramp_counts(epoch)))
        assert not monitor.check_drift().drifted  # observed: 20 % < 40 %
        decision = monitor.check_predicted_drift(predictor)
        assert decision.predicted
        assert decision.share_distance > 0.40
        # The projected counts keep ramping toward `dim`.
        projected_dim = sum(decision.io_by_object["dim"].values())
        projected_total = sum(
            sum(by_type.values()) for by_type in decision.io_by_object.values()
        )
        assert projected_dim / projected_total == pytest.approx(0.5, abs=0.01)

    def test_stationary_stream_never_predicts(self, box1_system):
        monitor = TelemetryMonitor(box1_system)
        predictor = TrendPredictor(window=4, horizon_epochs=4, min_history=2)
        for epoch in range(6):
            monitor.observe(epoch, _FakeResult("w", _ramp_counts(0)))
            decision = monitor.check_predicted_drift(predictor)
            assert not decision.predicted
            assert decision.share_distance == pytest.approx(0.0)

    def test_reprovision_restarts_the_window(self, box1_system):
        """Slopes must never be fitted across a re-tier boundary."""
        monitor = TelemetryMonitor(box1_system)
        predictor = TrendPredictor(window=4, horizon_epochs=3, min_history=3)
        for epoch in range(4):
            monitor.observe(epoch, _FakeResult("w", _ramp_counts(epoch)))
        monitor.mark_reprovisioned(3, _FakeResult("w", _ramp_counts(3)))
        # Only the rebased reference + one fresh epoch: below min_history.
        monitor.observe(4, _FakeResult("w", _ramp_counts(4)))
        decision = monitor.check_predicted_drift(predictor)
        assert not decision.predicted
        assert "insufficient telemetry" in decision.reason

    def test_cooldown_suppresses_prediction(self, box1_system):
        monitor = TelemetryMonitor(
            box1_system,
            thresholds=DriftThresholds(share_threshold=0.05, min_epochs_between=3),
        )
        predictor = TrendPredictor(window=3, horizon_epochs=3, min_history=2)
        monitor.observe(0, _FakeResult("w", _ramp_counts(0)))
        monitor.mark_reprovisioned(0)
        monitor.observe(1, _FakeResult("w", _ramp_counts(1)))
        monitor.observe(2, _FakeResult("w", _ramp_counts(2)))
        decision = monitor.check_predicted_drift(predictor)
        assert not decision.predicted
        assert "cooldown" in decision.reason


# ---------------------------------------------------------------------------
# Telemetry-driven re-profiling
# ---------------------------------------------------------------------------

@pytest.fixture
def plan_stable_generator(small_workload):
    """A drift between two scan-only streams whose plans never flip.

    Full table scans have no index alternative, so the optimizer's plan --
    and therefore the per-object I/O counts -- are identical under every
    placement.  On such a workload the telemetry observed under the deployed
    layout equals the estimator replay's profile for *every* baseline
    pattern, which is the regime where telemetry-driven re-profiling must
    reproduce the estimator-profiled loop bit for bit.
    """
    scan_fact = Query(name="scan_fact_ps",
                      accesses=(TableAccess("fact", selectivity=0.9),),
                      aggregate_rows=1_800_000)
    scan_dim = Query(name="scan_dim_ps",
                     accesses=(TableAccess("dim", selectivity=0.9),),
                     aggregate_rows=45_000)
    fact_heavy = small_workload.with_stream(
        (scan_fact, scan_fact, scan_fact, scan_dim), name="fact-heavy")
    dim_heavy = small_workload.with_stream(
        (scan_dim, scan_dim, scan_dim, scan_fact), name="dim-heavy")
    schedule = PhaseSchedule.ramp(10, start_epoch=1, end_epoch=5,
                                  phase_names=("fact", "dim"))
    return DriftingWorkloadGenerator(
        [WorkloadPhase("fact", fact_heavy), WorkloadPhase("dim", dim_heavy)],
        schedule, seed=13, name="plan-stable-drift",
    )


class TestTelemetryProfiling:
    def _run(self, source, small_objects, box1_system, small_catalog, generator):
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
            profile_source=source,
        )
        return advisor.run(generator.epochs())

    def test_rejects_unknown_profile_source(self, small_objects, box1_system,
                                            small_catalog):
        with pytest.raises(ValueError):
            OnlineAdvisor(small_objects, box1_system,
                          fresh_estimator(small_catalog), profile_source="oracle")

    def test_bitwise_equal_to_estimator_replay_when_plans_are_stable(
            self, small_objects, box1_system, small_catalog, plan_stable_generator):
        """ISSUE 5 regression lock: when the observed telemetry equals the
        estimator replay (plan-stable workload, estimate mode), the
        telemetry-profiled reactive loop is bitwise identical to the
        estimator-profiled (PR-4) loop."""
        telemetry = self._run("telemetry", small_objects, box1_system,
                              small_catalog, plan_stable_generator)
        estimator = self._run("estimator", small_objects, box1_system,
                              small_catalog, plan_stable_generator)
        assert telemetry.describe() == estimator.describe()
        assert telemetry.cumulative_cost_cents == estimator.cumulative_cost_cents
        assert [record.layout for record in telemetry.records] == [
            record.layout for record in estimator.records
        ]

    def test_warm_epochs_skip_the_profiler(self, small_objects, box1_system,
                                           small_catalog, plan_stable_generator,
                                           monkeypatch):
        """Telemetry-driven re-profiling must not re-run the ``M^K``
        estimator enumeration after the cold start."""
        calls = []
        original = WorkloadProfiler.profile

        def counting_profile(self, workload, *args, **kwargs):
            calls.append(getattr(workload, "name", "?"))
            return original(self, workload, *args, **kwargs)

        monkeypatch.setattr(WorkloadProfiler, "profile", counting_profile)
        online = self._run("telemetry", small_objects, box1_system,
                           small_catalog, plan_stable_generator)
        assert sum(1 for record in online.records if record.reoptimized) > 1
        # Only the cold initial provisioning profiles through the estimator.
        assert len(calls) == 1

    def test_cache_stats_regression_no_per_epoch_rewarm(
            self, small_objects, box1_system, small_catalog, plan_stable_generator):
        """ISSUE 5 satellite: the estimator-profiling path re-warms the
        shared estimate cache on every drifted epoch (pure replay -- extra
        hits, identical misses on a plan-stable workload); the telemetry
        path must not pay those hits."""
        telemetry = self._run("telemetry", small_objects, box1_system,
                              small_catalog, plan_stable_generator)
        estimator = self._run("estimator", small_objects, box1_system,
                              small_catalog, plan_stable_generator)
        # Same estimates were needed (identical layout walks)...
        assert telemetry.cache_misses == estimator.cache_misses
        # ...but the per-epoch M^K warm-up replay is gone.
        assert telemetry.cache_hits < estimator.cache_hits


# ---------------------------------------------------------------------------
# Predictive re-tiering (controller level)
# ---------------------------------------------------------------------------

@pytest.fixture
def balanced_catalog():
    """Two tables of comparable size, so phase blends shift I/O *gradually*.

    (The `small` catalog's fact table dwarfs its dimension table, which
    makes the share distance between streams saturate at the tiniest blend
    -- no ramp for a trend to be fitted on.)
    """
    from repro.dbms.datagen import SyntheticTableSpec, build_synthetic_catalog

    return build_synthetic_catalog(
        [
            SyntheticTableSpec("t0", row_count=2_000_000, row_width_bytes=120),
            SyntheticTableSpec("t1", row_count=1_600_000, row_width_bytes=140),
        ],
        name="balanced",
    )


@pytest.fixture
def balanced_flash_generator(balanced_catalog):
    """A flash crowd shifting scans from t0 to t1, peaking at epoch 8.

    Scans have no index alternative (plan-stable), and the two streams move
    comparable I/O volumes, so the telemetry share drifts roughly linearly
    with the crowd weight: the shape a trend extrapolator can anticipate.
    """
    scan_t0 = Query(name="scan_t0", accesses=(TableAccess("t0", selectivity=0.9),),
                    aggregate_rows=100_000)
    scan_t1 = Query(name="scan_t1", accesses=(TableAccess("t1", selectivity=0.9),),
                    aggregate_rows=100_000)
    # Eight-query streams ordered so weight-proportional *prefixes* shift the
    # blend smoothly (t1's I/O share grows ~0.5 * crowd_weight per epoch).
    steady = Workload(name="steady", kind="dss",
                      queries=(scan_t0,) * 6 + (scan_t1,) * 2, concurrency=1)
    crowd = Workload(name="crowd", kind="dss",
                     queries=(scan_t1,) * 6 + (scan_t0,) * 2, concurrency=1)
    schedule = PhaseSchedule.flash_crowd(14, spike_epoch=8, width=4,
                                         phase_names=("steady", "crowd"))
    return DriftingWorkloadGenerator(
        [WorkloadPhase("steady", steady), WorkloadPhase("crowd", crowd)],
        schedule, seed=11, name="balanced-flash",
    )


class TestPredictiveController:
    def _advisor(self, objects, box1_system, catalog, predictor,
                 share_threshold=0.35):
        return OnlineAdvisor(
            objects, box1_system, fresh_estimator(catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=share_threshold),
            predictor=predictor,
        )

    def test_trigger_fires_before_the_peak(self, box1_system, balanced_catalog,
                                           balanced_flash_generator):
        """ISSUE 5: on the seeded ramp into the flash crowd, the predictive
        trigger must re-optimize at an epoch strictly before the spike."""
        predictor = TrendPredictor(window=3, horizon_epochs=3, min_history=3)
        advisor = self._advisor(balanced_catalog.database_objects(), box1_system,
                                balanced_catalog, predictor)
        online = advisor.run(balanced_flash_generator.epochs())
        predicted_epochs = [record.epoch for record in online.records
                            if record.reoptimized and record.predicted]
        assert predicted_epochs
        assert min(predicted_epochs) < 8
        # The prediction pre-empted the reactive threshold: at the firing
        # epoch the *observed* distance was still inside it.
        fired = next(record for record in online.records
                     if record.reoptimized and record.predicted)
        assert fired.drift.share_distance <= advisor.thresholds.share_threshold
        assert fired.forecast is not None and fired.forecast.predicted
        assert fired.forecast.share_distance > advisor.thresholds.share_threshold

    def test_never_fires_on_a_stationary_stream(self, small_objects, box1_system,
                                                small_catalog, small_workload):
        """ISSUE 5: a workload that never changes must not trip the
        predictor, however long it runs."""
        predictor = TrendPredictor(window=3, horizon_epochs=4, min_history=2)
        advisor = self._advisor(small_objects, box1_system, small_catalog, predictor)
        online = advisor.run([small_workload] * 10)
        assert all(not record.predicted for record in online.records)
        assert all(not record.reoptimized for record in online.records[1:])
        assert online.retier_epochs == ()

    def test_predictive_run_is_deterministic(self, box1_system, balanced_catalog,
                                             balanced_flash_generator):
        def run_once():
            predictor = TrendPredictor(window=3, horizon_epochs=3, min_history=3)
            advisor = self._advisor(balanced_catalog.database_objects(), box1_system,
                                    balanced_catalog, predictor)
            return advisor.run(balanced_flash_generator.epochs())

        first, second = run_once(), run_once()
        assert first.describe() == second.describe()
        assert first.predicted_retier_epochs == second.predicted_retier_epochs


# ---------------------------------------------------------------------------
# Cross-kind drift
# ---------------------------------------------------------------------------

class TestCrossKind:
    @pytest.fixture
    def oltp_mix(self, lookup_query, write_query):
        return Workload(
            name="small-oltp", kind="oltp",
            transaction_mix=((lookup_query, 3.0), (write_query, 1.0)),
            concurrency=10,
        )

    @pytest.fixture
    def crosskind_generator(self, oltp_mix, small_workload):
        # Ramp early, then hold: the tail must outlast the amortization
        # horizon or a late re-tier's payback is truncated by the end of
        # the run (same shaping as two_phase_generator).
        schedule = PhaseSchedule.ramp(12, start_epoch=1, end_epoch=5,
                                      phase_names=("oltp", "dss"))
        return DriftingWorkloadGenerator(
            [WorkloadPhase("oltp", oltp_mix), WorkloadPhase("dss", small_workload)],
            schedule, seed=7, name="crosskind", cross_kind=True,
        )

    def test_mixed_kinds_require_the_flag(self, oltp_mix, small_workload):
        with pytest.raises(WorkloadError):
            DriftingWorkloadGenerator(
                [WorkloadPhase("oltp", oltp_mix), WorkloadPhase("dss", small_workload)],
                PhaseSchedule.crossfade(4, ("oltp", "dss")),
            )

    def test_endpoints_are_pure_and_middle_is_mixed(self, crosskind_generator):
        epochs = list(crosskind_generator.epochs())
        assert epochs[0].workload.kind == "oltp"
        assert epochs[-1].workload.kind == "dss"
        middle = epochs[3].workload
        assert isinstance(middle, CrossKindWorkload)
        assert middle.kind == "mixed"
        assert sum(middle.weights) == pytest.approx(1.0)
        kinds = {component.kind for component, _ in middle.components}
        assert kinds == {"oltp", "dss"}

    def test_crosskind_workload_validation(self, oltp_mix, small_workload):
        with pytest.raises(WorkloadError):
            CrossKindWorkload(name="empty", components=())
        with pytest.raises(WorkloadError):
            CrossKindWorkload(name="bad-weight",
                              components=((oltp_mix, 0.0), (small_workload, 1.0)))
        nested = CrossKindWorkload(
            name="ok", components=((oltp_mix, 1.0), (small_workload, 3.0)))
        with pytest.raises(WorkloadError):
            CrossKindWorkload(name="nested", components=((nested, 1.0),))
        assert nested.weights == pytest.approx((0.25, 0.75))
        assert nested.dominant is small_workload
        assert nested.concurrency == small_workload.concurrency

    def test_controller_blends_toc_across_kinds(self, small_objects, box1_system,
                                                small_catalog, crosskind_generator):
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
        )
        online = advisor.run(crosskind_generator.epochs())
        assert online.num_epochs == crosskind_generator.num_epochs
        mixed_records = [record for record in online.records
                         if record.report is not None
                         and record.report.metric == "cents_blended"]
        assert len(mixed_records) >= 2
        running = [record.cumulative_cost_cents for record in online.records]
        assert running == sorted(running)
        # The blend is a convex combination: a mixed epoch's TOC lies
        # between the two components' own TOCs on the same layout.
        record = mixed_records[0]
        epoch_workload = next(
            epoch for epoch in crosskind_generator.epochs()
            if epoch.epoch == record.epoch
        ).workload
        toc_model = TOCModel(advisor.estimator)
        component_tocs = [
            toc_model.evaluate(record.layout, component, mode="estimate").toc_cents
            for component, _ in epoch_workload.components
        ]
        assert min(component_tocs) <= record.toc_cents <= max(component_tocs)

    def test_mixed_epochs_hold_each_component_to_its_kind(
            self, small_objects, box1_system, small_catalog, crosskind_generator):
        """A mixed epoch's PSR blends a throughput floor on its OLTP component
        and response-time caps on its DSS component, each resolved on that
        component's own estimated reference layout."""
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
        )
        epochs = list(crosskind_generator.epochs())
        online = advisor.run(epochs)
        # The deployed layouts meet the OLTP side under either metric; on the
        # cheapest layout a throughput floor and response-time caps differ.
        cheapest = Layout.uniform(small_objects, box1_system, box1_system.cheapest().name)
        frozen = advisor.evaluate_frozen(epochs, cheapest)
        toc_model = TOCModel(advisor.estimator)
        reference = Layout.uniform(small_objects, box1_system,
                                   box1_system.most_expensive().name)

        def blended_psr(workload, layout):
            psr = 0.0
            for component, weight in workload.components:
                metric = "throughput" if component.kind == "oltp" else "response_time"
                constraint = RelativeSLA(0.5, metric=metric).resolve(
                    toc_model.evaluate(reference, component).run_result
                )
                observed = toc_model.evaluate(layout, component).run_result
                psr += weight * performance_satisfaction_ratio(constraint, observed)
            return psr

        mixed = [position for position, epoch in enumerate(epochs)
                 if epoch.workload.kind == "mixed"]
        assert mixed
        for position in mixed:
            workload = epochs[position].workload
            record = online.records[position]
            assert record.psr == blended_psr(workload, record.layout)
            assert frozen.records[position].psr == blended_psr(workload, cheapest)

    def test_frozen_replay_handles_mixed_epochs(self, small_objects, box1_system,
                                                small_catalog, crosskind_generator):
        advisor = OnlineAdvisor(
            small_objects, box1_system, fresh_estimator(small_catalog),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
        )
        online = advisor.run(crosskind_generator.epochs())
        frozen = advisor.evaluate_frozen(crosskind_generator.epochs(),
                                         online.records[0].layout)
        assert len(frozen.records) == online.num_epochs
        assert online.cumulative_cost_cents <= frozen.cumulative_cost_cents


# ---------------------------------------------------------------------------
# Epoch-loop stress (CI only)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_long_diurnal_epoch_loop_stress(small_objects, box1_system, small_catalog,
                                        small_workload, lookup_query, write_query):
    """A 48-epoch diurnal loop: the controller must stay feasible, keep the
    SLA, keep cumulative cost monotone and re-tier a bounded number of times
    (no thrashing: the cooldown caps re-tiers at one per two epochs)."""
    oltp_style = small_workload.with_stream((lookup_query, write_query) * 4,
                                            name="night-oltp")
    generator = DriftingWorkloadGenerator(
        [WorkloadPhase("day", small_workload), WorkloadPhase("night", oltp_style)],
        PhaseSchedule.diurnal(48, period=12, phase_names=("day", "night")),
        seed=5,
    )
    advisor = OnlineAdvisor(
        small_objects, box1_system, fresh_estimator(small_catalog),
        sla=RelativeSLA(0.5),
        thresholds=DriftThresholds(share_threshold=0.05, min_epochs_between=2),
    )
    result = advisor.run(generator.epochs())
    assert result.num_epochs == 48
    assert result.min_psr >= 0.5
    running = [record.cumulative_cost_cents for record in result.records]
    assert running == sorted(running)
    assert 1 <= len(result.retier_epochs) <= 24
