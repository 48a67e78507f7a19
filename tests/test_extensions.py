"""Section 5 extensions: MILP reference, discrete cost model, generalized provisioning,
plus the layout measurement and reporting utilities."""

import pytest

from repro import scenarios
from repro.core.context import EvaluationContext
from repro.core.discrete_cost import DiscreteCostModel
from repro.core.dot import DOTSolver
from repro.core.ilp import MILPSolver
from repro.core.layout import Layout
from repro.core.profiler import WorkloadProfiler
from repro.core.provisioning import GeneralizedProvisioner, ProvisioningOption
from repro.core.toc import TOCModel
from repro.exceptions import ConfigurationError, InfeasibleLayoutError
from repro.experiments.reporting import (
    format_comparison,
    format_evaluations,
    format_layout_assignment,
    format_table,
)
from repro.experiments.runner import measure_layouts
from repro.objects import group_objects
from repro.sla.constraints import RelativeSLA
from repro.storage import catalog as storage_catalog


@pytest.fixture
def profiles(small_objects, box1_system, small_estimator, small_workload):
    profiler = WorkloadProfiler(small_objects, box1_system, small_estimator)
    return profiler.profile(small_workload, mode="estimate")


@pytest.fixture
def make_context(small_objects, box1_system, small_estimator, small_workload, profiles):
    """Contexts over the small fixtures, Box 1 contexts sharing ``profiles``."""
    def build(system=box1_system, **kwargs):
        if system is box1_system:
            kwargs.setdefault("profiles", profiles)
        return EvaluationContext(small_objects, system, small_estimator, small_workload,
                                 **kwargs)

    return build


def all_fast_io_time_ms(objects, profiles):
    return sum(
        profiles.io_time_share_ms(group, tuple(["H-SSD"] * len(group)))
        for group in group_objects(objects)
    )


def io_time_ms(layout, objects, profiles):
    """The MILP's aggregate I/O time of a layout (sum of group time shares)."""
    return sum(
        profiles.io_time_share_ms(group, layout.group_placement(group))
        for group in group_objects(objects)
    )


class TestMILP:
    def test_milp_solves_and_respects_budget(self, small_objects, profiles, make_context):
        budget = all_fast_io_time_ms(small_objects, profiles) * 4
        result = MILPSolver(io_time_budget_ms=budget).solve(make_context())
        assert result.feasible
        assert io_time_ms(result.layout, small_objects, profiles) <= budget * 1.0001
        assert result.layout.satisfies_capacity()
        assert result.stats.variables == sum(
            3 ** len(group) for group in group_objects(small_objects)
        )

    def test_milp_cheaper_budget_gives_cheaper_layout(self, small_objects, profiles,
                                                      make_context):
        best = all_fast_io_time_ms(small_objects, profiles)
        tight = MILPSolver(io_time_budget_ms=best * 1.5).solve(make_context())
        loose = MILPSolver(io_time_budget_ms=best * 50).solve(make_context())
        assert (loose.layout.storage_cost_cents_per_hour()
                <= tight.layout.storage_cost_cents_per_hour())

    def test_milp_matches_or_beats_dot_layout_cost_under_same_budget(
        self, small_objects, profiles, make_context
    ):
        budget = all_fast_io_time_ms(small_objects, profiles) * 3
        milp_result = MILPSolver(io_time_budget_ms=budget).solve(make_context())
        dot_result = DOTSolver().solve(make_context())
        # The MILP minimises layout cost under the aggregate time budget, so no
        # DOT layout satisfying the same budget can be cheaper per hour.
        if io_time_ms(dot_result.layout, small_objects, profiles) <= budget:
            assert (
                milp_result.layout.storage_cost_cents_per_hour()
                <= dot_result.layout.storage_cost_cents_per_hour() + 1e-9
            )

    def test_invalid_budget_rejected(self, make_context):
        with pytest.raises(ConfigurationError):
            MILPSolver(io_time_budget_ms=0.0).solve(make_context())

    def test_impossible_capacity_reports_infeasible(self, box1_system, make_context):
        tiny = box1_system.with_capacity_limits(
            {name: 1e-6 for name in box1_system.class_names}
        )
        result = MILPSolver(io_time_budget_ms=1e12).solve(make_context(system=tiny))
        assert not result.feasible

    @staticmethod
    def _stop_at_time_limit(monkeypatch, keep_incumbent):
        """Make scipy report status 1 (time limit) for a real solve, keeping
        that solve's ``x`` as the incumbent or dropping it."""
        from scipy import optimize

        real_milp = optimize.milp

        def milp(*args, **kwargs):
            solution = real_milp(*args, **kwargs)
            return optimize.OptimizeResult(
                x=solution.x if keep_incumbent else None,
                fun=solution.fun if keep_incumbent else None,
                status=1,
                success=False,
                message="Time limit reached. (HiGHS Status 13)",
            )

        monkeypatch.setattr(optimize, "milp", milp)

    def test_time_limit_returns_the_incumbent(self, small_objects, profiles, make_context,
                                              monkeypatch):
        solver = MILPSolver(io_time_budget_ms=all_fast_io_time_ms(small_objects, profiles) * 4)
        optimal = solver.solve(make_context())
        self._stop_at_time_limit(monkeypatch, keep_incumbent=True)
        result = solver.solve(make_context(), budget=0.5)
        assert result.layout == optimal.layout
        assert result.feasible
        assert result.stats.degraded
        assert "time limit" in result.stats.incidents[0]

    def test_time_limit_without_incumbent_returns_no_layout(self, small_objects, profiles,
                                                            make_context, monkeypatch):
        solver = MILPSolver(io_time_budget_ms=all_fast_io_time_ms(small_objects, profiles) * 4)
        self._stop_at_time_limit(monkeypatch, keep_incumbent=False)
        result = solver.solve(make_context(), budget=0.5)
        assert result.layout is None
        assert not result.feasible
        assert result.stats.degraded


class TestDiscreteCostModel:
    def test_alpha_zero_equals_linear_cost(self, small_objects, box1_system):
        layout = Layout.uniform(small_objects, box1_system, "H-SSD")
        model = DiscreteCostModel(alpha=0.0)
        assert model(layout) == pytest.approx(layout.storage_cost_cents_per_hour())

    def test_alpha_one_charges_full_devices(self, small_objects, box1_system):
        layout = Layout.uniform(small_objects, box1_system, "H-SSD")
        model = DiscreteCostModel(alpha=1.0)
        hssd = box1_system["H-SSD"]
        assert model(layout) == pytest.approx(hssd.price_cents_per_gb_hour * hssd.capacity_gb)

    def test_cost_increases_with_alpha_for_sparse_usage(self, small_objects, box1_system):
        layout = Layout.uniform(small_objects, box1_system, "H-SSD")
        costs = [DiscreteCostModel(alpha=a)(layout) for a in (0.0, 0.5, 1.0)]
        assert costs == sorted(costs)

    def test_empty_classes_not_charged_by_default(self, small_objects, box1_system):
        layout = Layout.uniform(small_objects, box1_system, "H-SSD")
        partial = DiscreteCostModel(alpha=1.0)(layout)
        charged_all = DiscreteCostModel(alpha=1.0, charge_empty_classes=True)(layout)
        assert charged_all > partial

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            DiscreteCostModel(alpha=1.5)

    def test_dot_with_discrete_cost_prefers_fewer_classes(self, small_objects, box1_system,
                                                          small_estimator, small_workload,
                                                          profiles):
        linear = DOTSolver().solve(EvaluationContext(
            small_objects, box1_system, small_estimator, small_workload, profiles=profiles
        ))
        discrete = DOTSolver().solve(EvaluationContext(
            small_objects, box1_system, small_estimator, small_workload, profiles=profiles,
            cost_override=DiscreteCostModel(alpha=1.0),
        ))
        used = lambda layout: sum(1 for _, gb in layout.space_used_gb().items() if gb > 0)
        assert used(discrete.layout) <= used(linear.layout)


class TestGeneralizedProvisioning:
    def test_decides_among_options(self, small_objects, small_catalog, small_workload):
        from repro.dbms.executor import WorkloadEstimator

        estimator = WorkloadEstimator(small_catalog, noise=0.0)
        options = [
            ProvisioningOption("Box 1", storage_catalog.box1()),
            ProvisioningOption("Box 2", storage_catalog.box2()),
        ]
        provisioner = GeneralizedProvisioner(small_objects, estimator)
        decision = provisioner.decide(small_workload, options, sla=RelativeSLA(0.25))
        assert decision.feasible
        assert decision.chosen.name in {"Box 1", "Box 2"}
        assert set(decision.per_option) == {"Box 1", "Box 2"}
        best = min(
            (rec.toc_cents for rec in decision.per_option.values() if rec is not None)
        )
        assert decision.recommendation.toc_cents == pytest.approx(best)
        assert "Generalized provisioning" in decision.describe()

    def test_empty_options_rejected(self, small_objects, small_estimator, small_workload):
        provisioner = GeneralizedProvisioner(small_objects, small_estimator)
        with pytest.raises(InfeasibleLayoutError):
            provisioner.decide(small_workload, [])


class TestMeasureLayouts:
    def test_evaluations_include_psr_and_toc(self, small_objects, box1_system, small_catalog,
                                             small_workload):
        from repro.dbms.executor import WorkloadEstimator

        estimator = WorkloadEstimator(small_catalog, noise=0.0)
        context = EvaluationContext(small_objects, box1_system, estimator, small_workload)
        layouts = {
            "All H-SSD": Layout.uniform(small_objects, box1_system, "H-SSD"),
            "All HDD RAID 0": Layout.uniform(small_objects, box1_system, "HDD RAID 0"),
        }
        constraint = context.resolve_constraint(RelativeSLA(0.5), mode="run")
        evaluations = measure_layouts(context, layouts, constraint)
        by_name = {evaluation.layout_name: evaluation for evaluation in evaluations}
        assert by_name["All H-SSD"].psr == pytest.approx(1.0)
        assert by_name["All H-SSD"].toc_cents > 0
        assert by_name["All HDD RAID 0"].response_time_s > by_name["All H-SSD"].response_time_s

    def test_resolve_constraint_modes(self, small_objects, box1_system, small_catalog,
                                      small_workload):
        from repro.dbms.buffer_pool import BufferPool
        from repro.dbms.executor import WorkloadEstimator

        estimator = WorkloadEstimator(small_catalog, buffer_pool=BufferPool(2.0), noise=0.0)
        context = EvaluationContext(small_objects, box1_system, estimator, small_workload)
        measured = context.resolve_constraint(RelativeSLA(0.5), mode="run")
        estimated = context.resolve_constraint(RelativeSLA(0.5), mode="estimate")
        # Measured (buffer-assisted) caps are at most the estimate-based caps.
        for name, cap in measured.caps_ms.items():
            assert cap <= estimated.caps_ms[name] * 1.001

    @pytest.mark.parametrize("scenario, overrides, misses", [
        ("tpch_original", {"scale_factor": 2.0}, 22),  # response-time caps
        ("tpcc_fig8", {"warehouses": 300}, 5),  # throughput floor
    ])
    def test_build_resolves_caps_through_the_estimate_cache(self, scenario, overrides,
                                                             misses):
        context = scenarios.build(scenario, **overrides).context()
        reference = context.reference_layout()
        scalar = context.toc_model.evaluate(reference, context.workload)
        assert context.constraint == context.sla.resolve(scalar.run_result)
        # The reference's estimates stay in the cache for the solvers.
        assert context.estimate_cache.misses == misses
        context.estimate(reference)
        assert context.estimate_cache.misses == misses


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [[1, 2.34567], ["xyz", 4]])
        assert "a" in text and "xyz" in text
        assert len(text.splitlines()) == 4

    def test_format_evaluations(self, small_objects, box1_system, small_estimator,
                                small_workload):
        context = EvaluationContext(small_objects, box1_system, small_estimator,
                                    small_workload)
        evaluations = measure_layouts(
            context, {"All H-SSD": Layout.uniform(small_objects, box1_system, "H-SSD")}
        )
        text = format_evaluations(evaluations, "Response time (s)")
        assert "All H-SSD" in text and "TOC" in text

    def test_format_layout_assignment_lists_all_classes(self, small_objects, box1_system):
        layout = Layout.uniform(small_objects, box1_system, "H-SSD")
        text = format_layout_assignment(layout)
        for class_name in box1_system.class_names:
            assert class_name in text

    def test_format_comparison_matrix(self):
        text = format_comparison({"row1": {"c1": 1.0, "c2": 2.0}}, "metric")
        assert "row1" in text and "c1" in text
