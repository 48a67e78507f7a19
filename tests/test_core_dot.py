"""The DOT, exhaustive-search and Object Advisor solvers, simple layouts and advisor facade."""

import pytest

from repro.core.advisor import ProvisioningAdvisor
from repro.core.context import EvaluationContext
from repro.core.dot import DOTSolver
from repro.core.exhaustive import ExhaustiveSolver
from repro.core.layout import Layout
from repro.core.object_advisor import ObjectAdvisorSolver
from repro.core.profiler import WorkloadProfiler
from repro.core.simple_layouts import all_on, index_data_split, simple_layouts
from repro.core.toc import TOCModel
from repro.exceptions import ConfigurationError, InfeasibleLayoutError
from repro.sla.constraints import RelativeSLA, ResponseTimeConstraint
from repro.storage.io_profile import IOType


@pytest.fixture
def profiles(small_objects, box1_system, small_estimator, small_workload):
    profiler = WorkloadProfiler(small_objects, box1_system, small_estimator)
    return profiler.profile(small_workload, mode="estimate")


@pytest.fixture
def loose_constraint(small_objects, box1_system, small_estimator, small_workload):
    """A relative SLA of 0.25 resolved against estimated all-H-SSD performance."""
    toc = TOCModel(small_estimator)
    reference = toc.evaluate(
        Layout.uniform(small_objects, box1_system, "H-SSD"), small_workload, mode="estimate"
    )
    return RelativeSLA(0.25).resolve(reference.run_result)


@pytest.fixture
def make_context(small_objects, box1_system, small_estimator, small_workload):
    """Contexts over the small fixtures; profiles come lazily from the context."""
    def build(constraint=None, system=box1_system, estimator=small_estimator, **kwargs):
        return EvaluationContext(small_objects, system, estimator, small_workload,
                                 constraint=constraint, **kwargs)

    return build


def oa_benefits_ms_per_gb(context):
    """OA's benefit metric recomputed from the all-slowest baseline estimate:
    I/O time saved per GB by moving an object to the fastest class."""
    ordered = sorted(context.system, key=lambda sc: sc.service_time_ms(IOType.RAND_READ, 1))
    slowest, fastest = ordered[-1], ordered[0]
    baseline = Layout.uniform(context.objects, context.system, slowest.name)
    io_counts = context.evaluate(baseline).run_result.io_by_object

    def io_time_ms(name, storage_class):
        return sum(count * storage_class.service_time_ms(io_type, context.concurrency)
                   for io_type, count in io_counts.get(name, {}).items())

    return {
        obj.name: (io_time_ms(obj.name, slowest) - io_time_ms(obj.name, fastest)) / obj.size_gb
        for obj in context.objects
    }


class TestSimpleLayouts:
    def test_all_on(self, small_objects, box1_system):
        layout = all_on(small_objects, box1_system, "L-SSD")
        assert set(layout.assignment().values()) == {"L-SSD"}

    def test_index_data_split(self, small_objects, box1_system):
        layout = index_data_split(small_objects, box1_system, "H-SSD", "L-SSD")
        assert layout.class_name_of("fact_pkey") == "H-SSD"
        assert layout.class_name_of("fact") == "L-SSD"

    def test_index_data_split_unknown_class(self, small_objects, box1_system):
        with pytest.raises(ConfigurationError):
            index_data_split(small_objects, box1_system, "H-SSD", "floppy")

    def test_simple_layouts_cover_every_class(self, small_objects, box1_system):
        layouts = simple_layouts(small_objects, box1_system)
        for class_name in box1_system.class_names:
            assert f"All {class_name}" in layouts
        assert "Index H-SSD Data L-SSD" in layouts

    def test_simple_layouts_on_box2_use_lssd_raid(self, small_objects, box2_system):
        layouts = simple_layouts(small_objects, box2_system)
        assert "Index H-SSD Data L-SSD RAID 0" in layouts


class TestDOTOptimizer:
    def test_initial_layout_is_all_most_expensive(self, make_context, small_objects,
                                                   box1_system):
        context = make_context()
        initial = context.reference_layout()
        assert set(initial.assignment().values()) == {"H-SSD"}
        cold = DOTSolver().solve(context)
        warm = DOTSolver().solve(
            context, initial_layout=Layout.uniform(small_objects, box1_system, "H-SSD")
        )
        assert warm.stats.moves == cold.stats.moves
        assert warm.layout == cold.layout

    def test_unconstrained_dot_moves_everything_cheap(self, make_context):
        context = make_context(constraint=None)
        result = DOTSolver().solve(context)
        assert result.feasible
        # Without an SLA the TOC-optimal layout should be at least as cheap as
        # leaving everything on the H-SSD.
        assert result.toc_cents <= context.evaluate(context.reference_layout()).toc_cents

    def test_constrained_dot_meets_constraint_in_estimates(self, make_context,
                                                           loose_constraint):
        result = DOTSolver().solve(make_context(constraint=loose_constraint))
        assert result.feasible
        check = loose_constraint.check(result.toc_report.run_result)
        assert check.satisfied

    def test_dot_toc_not_worse_than_initial(self, make_context, loose_constraint):
        context = make_context(constraint=loose_constraint)
        result = DOTSolver().solve(context)
        assert result.toc_cents <= context.evaluate(context.reference_layout()).toc_cents

    def test_tighter_sla_never_gives_cheaper_toc(self, small_objects, box1_system,
                                                 small_estimator, small_workload,
                                                 make_context):
        toc = TOCModel(small_estimator)
        reference = toc.evaluate(
            Layout.uniform(small_objects, box1_system, "H-SSD"), small_workload, mode="estimate"
        )
        results = {}
        for ratio in (0.9, 0.25):
            constraint = RelativeSLA(ratio).resolve(reference.run_result)
            results[ratio] = DOTSolver().solve(make_context(constraint=constraint)).toc_cents
        assert results[0.9] >= results[0.25]

    def test_history_records_every_move(self, make_context):
        result = DOTSolver().solve(make_context())
        moves = result.stats.moves
        assert len(moves) == result.evaluated_layouts - 1
        assert any(trace.accepted for trace in moves)
        assert result.stats.moves_accepted == sum(trace.accepted for trace in moves)

    def test_impossible_constraint_reports_infeasible(self, make_context, small_workload):
        impossible = ResponseTimeConstraint(
            {name: 1e-9 for name in small_workload.query_names}
        )
        result = DOTSolver().solve(make_context(constraint=impossible))
        assert not result.feasible
        with pytest.raises(InfeasibleLayoutError):
            result.require_layout()

    def test_capacity_relaxed_walk_recovers_from_overfull_start(
        self, small_objects, box1_system, make_context
    ):
        # H-SSD capacity below the database size: the initial layout violates
        # capacity, but the walk should still find a feasible layout.
        total = sum(obj.size_gb for obj in small_objects)
        limited = box1_system.with_capacity_limits({"H-SSD": total * 0.4})
        result = DOTSolver().solve(make_context(system=limited))
        assert result.feasible
        assert result.layout.satisfies_capacity()

    def test_validation_returns_measured_report(self, make_context, loose_constraint):
        context = make_context(constraint=loose_constraint)
        result = DOTSolver().solve(context)
        report = context.evaluate(result.layout, mode="run")
        check = context.checker().check(result.layout, report.run_result)
        assert report.toc_cents > 0
        assert check.capacity_ok

    def test_independent_objects_mode_uses_singleton_groups(self, make_context,
                                                            small_objects):
        groups = DOTSolver(independent_objects=True).groups(make_context())
        assert all(len(group) == 1 for group in groups)
        assert len(groups) == len(small_objects)


class TestExhaustiveSearch:
    def test_space_size(self, make_context, small_objects):
        assert ExhaustiveSolver().search_space_size(make_context()) == 3 ** len(small_objects)

    def test_per_group_space_size(self, make_context):
        solver = ExhaustiveSolver(per_group=True)
        assert solver.search_space_size(make_context()) == 81  # two groups of size two

    def test_layout_budget_enforced(self, make_context):
        with pytest.raises(ConfigurationError):
            ExhaustiveSolver(max_layouts=10).solve(make_context())

    def test_es_finds_layout_at_least_as_cheap_as_dot(self, make_context, loose_constraint):
        dot_result = DOTSolver().solve(make_context(constraint=loose_constraint))
        es_result = ExhaustiveSolver().solve(make_context(constraint=loose_constraint))
        assert es_result.feasible
        assert es_result.toc_cents <= dot_result.toc_cents * 1.0000001

    def test_dot_close_to_es(self, make_context, loose_constraint):
        """The paper's headline: DOT within ~16 % of exhaustive search."""
        dot_result = DOTSolver().solve(make_context(constraint=loose_constraint))
        es_result = ExhaustiveSolver().solve(make_context(constraint=loose_constraint))
        assert dot_result.toc_cents <= es_result.toc_cents * 1.30

    def test_dot_evaluates_far_fewer_layouts_than_es(self, make_context):
        context = make_context()
        dot_result = DOTSolver().solve(context)
        assert dot_result.evaluated_layouts < ExhaustiveSolver().search_space_size(context) / 3

    def test_pinned_objects_included_in_candidates(self, small_objects, make_context):
        movable = [obj for obj in small_objects if obj.table == "fact"]
        pinned = [obj for obj in small_objects if obj.table != "fact"]
        solver = ExhaustiveSolver(objects=movable, pinned_objects=pinned,
                                  pinned_class="HDD RAID 0")
        result = solver.solve(make_context())
        assert result.feasible
        for obj in pinned:
            assert result.layout.class_name_of(obj.name) == "HDD RAID 0"

    def test_infeasible_constraint(self, make_context, small_workload):
        impossible = ResponseTimeConstraint({name: 1e-9 for name in small_workload.query_names})
        result = ExhaustiveSolver().solve(make_context(constraint=impossible))
        assert not result.feasible
        assert result.toc_cents == float("inf")


class TestObjectAdvisor:
    @pytest.fixture
    def noiseless_context(self, small_catalog, make_context):
        from repro.dbms.executor import WorkloadEstimator

        return make_context(estimator=WorkloadEstimator(small_catalog, noise=0.0))

    def test_oa_promotes_high_benefit_objects(self, noiseless_context, box1_system):
        result = ObjectAdvisorSolver().solve(noiseless_context)
        assert result.layout.name == "OA"
        # The object with the highest benefit-per-GB must be promoted off the
        # cheapest class.
        benefits = oa_benefits_ms_per_gb(noiseless_context)
        best = max(benefits, key=benefits.get)
        assert result.layout.class_name_of(best) != box1_system.cheapest().name

    def test_oa_misses_plan_layout_interaction(self, noiseless_context, box1_system):
        """OA profiles on the all-cheapest layout, where the optimizer never
        touches ``fact_pkey`` (scans win on the HDD), so OA sees zero benefit
        for it and leaves it on the cheapest class -- the blindness the paper
        contrasts DOT against."""
        result = ObjectAdvisorSolver().solve(noiseless_context)
        assert oa_benefits_ms_per_gb(noiseless_context)["fact_pkey"] == pytest.approx(0.0)
        assert result.layout.class_name_of("fact_pkey") == box1_system.cheapest().name

    def test_oa_respects_budget(self, make_context, box1_system):
        solver = ObjectAdvisorSolver(budgets_gb={"H-SSD": 0.0, "L-SSD": 0.0})
        tight = solver.solve(make_context())
        assert set(tight.layout.assignment().values()) == {box1_system.cheapest().name}

    def test_oa_benefits_are_per_gb(self, make_context, small_objects, box1_system):
        """Promotion follows benefit *per GB*: an H-SSD budget holding exactly
        the top object by that metric admits that object and nothing else."""
        context = make_context()
        benefits = oa_benefits_ms_per_gb(context)
        best = max(benefits, key=benefits.get)
        size = next(obj.size_gb for obj in small_objects if obj.name == best)
        solver = ObjectAdvisorSolver(budgets_gb={"H-SSD": size, "L-SSD": 0.0})
        layout = solver.solve(context).layout
        promoted = {name for name, cls in layout.assignment().items()
                    if cls != box1_system.cheapest().name}
        assert promoted == {best}


class TestProvisioningAdvisor:
    def test_recommendation_pipeline(self, small_objects, box1_system, small_catalog,
                                     small_workload):
        from repro.dbms.buffer_pool import BufferPool
        from repro.dbms.executor import WorkloadEstimator

        estimator = WorkloadEstimator(small_catalog, buffer_pool=BufferPool(1.0), noise=0.01)
        advisor = ProvisioningAdvisor(small_objects, box1_system, estimator)
        recommendation = advisor.recommend(small_workload, sla=RelativeSLA(0.25))
        assert recommendation.layout.name == "DOT"
        assert recommendation.toc_cents <= recommendation.baseline_report.toc_cents
        assert 0.0 <= recommendation.psr <= 1.0
        assert "Recommendation" in recommendation.describe()

    def test_recommendation_without_sla(self, small_objects, box1_system, small_estimator,
                                        small_workload):
        advisor = ProvisioningAdvisor(small_objects, box1_system, small_estimator)
        recommendation = advisor.recommend(small_workload, sla=None)
        assert recommendation.constraint is None
        assert recommendation.psr == 1.0

    def test_absolute_constraint_passthrough(self, small_objects, box1_system, small_estimator,
                                             small_workload):
        constraint = ResponseTimeConstraint({name: 1e12 for name in small_workload.query_names})
        advisor = ProvisioningAdvisor(small_objects, box1_system, small_estimator)
        assert advisor.recommend(small_workload, sla=constraint).constraint is constraint

    def test_impossible_sla_raises_after_budget_exhausted(self, small_objects, box1_system,
                                                          small_estimator, small_workload):
        impossible = ResponseTimeConstraint({name: 1e-9 for name in small_workload.query_names})
        advisor = ProvisioningAdvisor(small_objects, box1_system, small_estimator)
        with pytest.raises(InfeasibleLayoutError):
            advisor.recommend(small_workload, sla=impossible, max_refinements=0,
                              max_relaxations=2)

    def test_slightly_infeasible_sla_recovered_by_relaxation(self, small_objects, box1_system,
                                                             small_estimator, small_workload):
        """Caps 10 % below the best-case estimates become satisfiable after the
        advisor's relaxation loop loosens them."""
        toc = TOCModel(small_estimator)
        reference = toc.evaluate(
            Layout.uniform(small_objects, box1_system, "H-SSD"), small_workload, mode="estimate"
        )
        tight = ResponseTimeConstraint(
            {name: time_ms * 0.9 for name, time_ms in reference.run_result.per_query_times_ms}
        )
        advisor = ProvisioningAdvisor(small_objects, box1_system, small_estimator)
        recommendation = advisor.recommend(
            small_workload, sla=tight, max_refinements=0, max_relaxations=3,
            relaxation_factor=1.5,
        )
        assert recommendation.layout is not None
        assert recommendation.relaxations_used >= 1

    def test_refinement_then_relaxation_recommendation_is_pinned(
        self, small_objects, box1_system, small_estimator, small_workload
    ):
        """The 0.9x-of-best caps with one refinement allowed take the
        refinement branch and then the relaxation branch; the exact answer
        is pinned so the estimate/run call order cannot drift."""
        toc = TOCModel(small_estimator)
        reference = toc.evaluate(
            Layout.uniform(small_objects, box1_system, "H-SSD"), small_workload, mode="estimate"
        )
        tight = ResponseTimeConstraint(
            {name: time_ms * 0.9 for name, time_ms in reference.run_result.per_query_times_ms}
        )
        advisor = ProvisioningAdvisor(small_objects, box1_system, small_estimator)
        recommendation = advisor.recommend(
            small_workload, sla=tight, max_refinements=1, max_relaxations=3,
            relaxation_factor=1.5,
        )
        assert dict(recommendation.layout.assignment()) == {
            "fact": "H-SSD", "dim": "H-SSD", "fact_pkey": "H-SSD", "dim_pkey": "H-SSD",
        }
        assert recommendation.refinements_used == 1
        assert recommendation.relaxations_used == 1
        assert recommendation.validated
        assert recommendation.toc_cents == 4.946101078944261e-05
