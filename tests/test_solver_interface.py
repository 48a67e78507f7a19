"""The uniform solver interface: equality with the legacy paths + sanity.

Two families of tests:

* **Equality** -- each of the four solvers driven through
  ``Solver.solve(EvaluationContext)`` must produce bitwise-identical layouts
  and TOCs to the legacy direct construction it wraps (ES serial batch, ES
  parallel, DOT incremental, MILP, Object Advisor).  Every arm gets a fresh
  estimator with the scenario's exact configuration so no state leaks
  between the old-style and new-style runs.
* **Cross-solver sanity** -- on a tiny plan-stable instance (6 objects x 3
  classes, scan/join workload) the ES optimum lower-bounds every other
  solver's TOC, and the OA / MILP layouts are SLA-feasible.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import scenarios
from repro.core import (
    DOTSolver,
    EvaluationContext,
    ExhaustiveSolver,
    MILPSolver,
    ObjectAdvisorSolver,
    SolveResult,
    Solver,
    get_solver,
    solver_names,
)
from repro.core.dot import DOTOptimizer
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.ilp import MILPPlacement
from repro.core.object_advisor import ObjectAdvisor
from repro.core.profiler import WorkloadProfiler
from repro.exceptions import ConfigurationError, InfeasibleLayoutError
from repro.objects import group_objects
from repro.sla.constraints import RelativeSLA


@pytest.fixture(scope="module")
def small_bundle():
    """The lookup-bearing tiny scenario (plan flips included)."""
    return scenarios.build("synthetic_small")


@pytest.fixture(scope="module")
def sanity_bundle():
    """The plan-stable tiny scenario (scan/join only)."""
    return scenarios.build("synthetic_sanity")


def make_context(bundle, **kwargs):
    """A context over a *fresh* estimator, isolating each test arm."""
    return bundle.context(estimator=bundle.fresh_estimator(), **kwargs)


def legacy_inputs(bundle):
    """(objects, system, estimator, workload, constraint) the legacy way."""
    context = make_context(bundle)
    return (context.objects, context.system, context.estimator,
            context.workload, context.constraint)


# ---------------------------------------------------------------------------
# Equality with the legacy construction paths
# ---------------------------------------------------------------------------

class TestLegacyEquality:
    def test_es_serial_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, constraint = legacy_inputs(small_bundle)
        legacy = ExhaustiveSearch(
            objects, system, estimator, constraint=constraint, max_layouts=1_000_000
        ).search(workload)

        result = ExhaustiveSolver(max_layouts=1_000_000).solve(make_context(small_bundle))
        assert result.layout == legacy.layout
        assert result.toc_cents == legacy.toc_cents
        assert result.evaluated_layouts == legacy.evaluated_layouts
        assert result.raw.__class__.__name__ == "ExhaustiveSearchResult"

    def test_es_parallel_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, constraint = legacy_inputs(small_bundle)
        legacy = ExhaustiveSearch(
            objects, system, estimator, constraint=constraint,
            max_layouts=1_000_000, workers=2,
        ).search(workload)

        result = ExhaustiveSolver(max_layouts=1_000_000, workers=2).solve(
            make_context(small_bundle)
        )
        assert result.layout == legacy.layout
        assert result.toc_cents == legacy.toc_cents
        assert result.stats.batch is not None
        assert result.stats.workers == 2

    def test_es_scalar_path_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, constraint = legacy_inputs(small_bundle)
        legacy = ExhaustiveSearch(
            objects, system, estimator, constraint=constraint,
            max_layouts=1_000_000, batch=False,
        ).search(workload)

        result = ExhaustiveSolver(max_layouts=1_000_000, batch=False).solve(
            make_context(small_bundle)
        )
        assert result.layout == legacy.layout
        assert result.toc_cents == legacy.toc_cents

    def test_dot_incremental_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, constraint = legacy_inputs(small_bundle)
        profiles = WorkloadProfiler(objects, system, estimator).profile(
            workload, mode="estimate"
        )
        legacy = DOTOptimizer(
            objects, system, estimator, constraint=constraint
        ).optimize(workload, profiles)

        result = DOTSolver().solve(make_context(small_bundle))
        assert result.layout == legacy.layout
        assert result.toc_cents == legacy.toc_cents
        assert result.evaluated_layouts == legacy.evaluated_layouts
        assert len(result.raw.history) == len(legacy.history)

    def test_dot_scalar_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, constraint = legacy_inputs(small_bundle)
        profiles = WorkloadProfiler(objects, system, estimator).profile(
            workload, mode="estimate"
        )
        legacy = DOTOptimizer(
            objects, system, estimator, constraint=constraint, incremental=False
        ).optimize(workload, profiles)

        result = DOTSolver(incremental=False).solve(make_context(small_bundle))
        assert result.layout == legacy.layout
        assert result.toc_cents == legacy.toc_cents

    def test_milp_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, _ = legacy_inputs(small_bundle)
        profiles = WorkloadProfiler(objects, system, estimator).profile(
            workload, mode="estimate"
        )
        best_class = system.most_expensive().name
        best_time = sum(
            profiles.io_time_share_ms(group, tuple([best_class] * len(group)))
            for group in group_objects(objects)
        )
        sla_ratio = small_bundle.sla.ratio
        legacy = MILPPlacement(objects, system).solve(
            profiles, io_time_budget_ms=best_time / sla_ratio
        )

        result = MILPSolver().solve(make_context(small_bundle))
        assert result.layout == legacy.layout
        assert result.raw.objective_cents_per_hour == legacy.objective_cents_per_hour
        assert result.raw.io_time_budget_ms == legacy.io_time_budget_ms
        assert result.stats.variables == legacy.variables

    def test_object_advisor_matches_legacy(self, small_bundle):
        objects, system, estimator, workload, _ = legacy_inputs(small_bundle)
        legacy = ObjectAdvisor(objects, system, estimator).recommend(workload)

        result = ObjectAdvisorSolver().solve(make_context(small_bundle))
        assert result.layout == legacy.layout
        assert result.raw.benefits_ms_per_gb == legacy.benefits_ms_per_gb


# ---------------------------------------------------------------------------
# Cross-solver sanity on the plan-stable instance
# ---------------------------------------------------------------------------

class TestCrossSolverSanity:
    @pytest.fixture(scope="class")
    def outcomes(self, sanity_bundle):
        solvers = {
            "es": ExhaustiveSolver(max_layouts=1_000_000),
            "dot": DOTSolver(),
            "milp": MILPSolver(),
            "oa": ObjectAdvisorSolver(),
        }
        return {
            name: solver.solve(make_context(sanity_bundle))
            for name, solver in solvers.items()
        }

    def test_instance_is_small(self, sanity_bundle):
        assert len(sanity_bundle.objects) <= 6
        assert len(sanity_bundle.get_system()) == 3

    def test_all_solvers_produce_layouts(self, outcomes):
        for name, outcome in outcomes.items():
            assert outcome.layout is not None, f"{name} produced no layout"
            assert outcome.feasible, f"{name} reported infeasible"

    def test_oa_and_milp_layouts_are_sla_feasible(self, sanity_bundle, outcomes):
        context = make_context(sanity_bundle)
        checker = context.checker()
        for name in ("oa", "milp"):
            layout = outcomes[name].layout
            report = context.evaluate(layout)
            check = checker.check(layout, report.run_result)
            assert check.feasible, f"{name} layout violates the SLA or capacity"
            assert outcomes[name].psr == pytest.approx(1.0)

    def test_es_optimum_lower_bounds_every_solver(self, outcomes):
        es_toc = outcomes["es"].toc_cents
        for name in ("dot", "milp", "oa"):
            assert outcomes[name].toc_cents >= es_toc * (1.0 - 1e-12), (
                f"{name} beat the exhaustive optimum, which is impossible "
                f"for an SLA-feasible layout"
            )

    def test_dot_close_to_es_optimum(self, outcomes):
        # The greedy walk stays within the paper's empirical gap with margin.
        assert outcomes["dot"].toc_cents <= outcomes["es"].toc_cents * 1.5


# ---------------------------------------------------------------------------
# Protocol and registry behaviour
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_all_four_are_registered(self):
        assert set(solver_names()) >= {"dot", "es", "milp", "oa"}

    def test_get_solver_instantiates_with_options(self):
        solver = get_solver("es", workers=2, max_layouts=10)
        assert isinstance(solver, ExhaustiveSolver)
        assert solver.workers == 2 and solver.max_layouts == 10

    def test_get_solver_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_solver("simulated-annealing")

    def test_instances_satisfy_the_protocol(self):
        for name in ("dot", "es", "milp", "oa"):
            assert isinstance(get_solver(name), Solver)

    def test_es_budget_is_a_wall_clock_deadline(self, small_bundle):
        # budget is a hard deadline in seconds, uniform across solvers: a
        # zero-second budget must cut the enumeration short (degraded, with
        # an incident recorded), proving the deadline reaches the search.
        result = ExhaustiveSolver().solve(make_context(small_bundle), budget=0.0)
        assert result.raw.timed_out
        assert result.stats.degraded
        assert result.stats.incidents
        assert result.stats.deadline_s == 0.0

    def test_es_without_budget_is_not_degraded(self, small_bundle):
        result = ExhaustiveSolver().solve(make_context(small_bundle))
        assert not result.stats.degraded
        assert result.stats.incidents == []

    def test_milp_without_relative_sla_needs_explicit_budget(self, small_bundle):
        context = make_context(small_bundle, sla=None)
        with pytest.raises(ConfigurationError):
            MILPSolver().solve(context)

    def test_scipy_is_imported_only_by_a_milp_solve(self):
        """``import repro`` stays free of scipy's import cost; the MILP solve
        that needs it imports it on first use and still solves."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import repro, repro.core, repro.scenarios\n"
            "print('scipy' in sys.modules)\n"
            "from repro.core import MILPSolver\n"
            "bundle = repro.scenarios.build('synthetic_small')\n"
            "result = MILPSolver().solve(bundle.context(estimator=bundle.fresh_estimator()))\n"
            "print(result.feasible, 'scipy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.split() == ["False", "True", "True"]

    def test_require_layout_raises_when_infeasible(self):
        result = SolveResult(
            solver="dot", layout=None, toc_report=None, feasible=False, stats=None
        )
        assert result.toc_cents == float("inf")
        with pytest.raises(InfeasibleLayoutError):
            result.require_layout()

    def test_solver_result_views_expose_uniform_fields(self, small_bundle):
        result = DOTSolver().solve(make_context(small_bundle))
        assert result.solver == "dot"
        assert result.elapsed_s == result.stats.elapsed_s > 0.0
        assert 0.0 <= result.psr <= 1.0


class TestContext:
    def test_context_resolves_relative_sla(self, small_bundle):
        context = make_context(small_bundle)
        assert context.constraint is not None
        assert context.sla is not None and context.sla.ratio == 0.5

    def test_context_profiles_are_lazy_and_cached(self, small_bundle):
        context = make_context(small_bundle)
        assert context.profiles is None
        first = context.get_profiles()
        assert context.get_profiles() is first

    def test_context_shares_one_estimate_cache(self, small_bundle):
        context = make_context(small_bundle)
        evaluator = context.incremental_evaluator()
        assert evaluator is not None
        assert evaluator.cache is context.estimate_cache
        batch = context.batch_evaluator()
        assert batch is not None
        assert batch.cache is context.estimate_cache

    def test_batch_fallback_on_cost_override(self, small_bundle):
        context = make_context(small_bundle, cost_override=lambda layout: 1.0)
        assert context.batch_evaluator() is None


class TestRunSolverMatrix:
    def test_matrix_preserves_order_and_names(self, sanity_bundle):
        from repro.experiments import run_solver_matrix

        results = run_solver_matrix(
            make_context(sanity_bundle),
            [DOTSolver(), ExhaustiveSolver(max_layouts=1_000_000)],
        )
        assert list(results) == ["dot", "es"]

    def test_duplicate_solver_names_are_refused_before_running(self, sanity_bundle):
        from repro.experiments import run_solver_matrix

        with pytest.raises(ConfigurationError, match="duplicate solver names"):
            run_solver_matrix(
                make_context(sanity_bundle),
                [ExhaustiveSolver(), ExhaustiveSolver(workers=2)],
            )

    def test_distinct_instance_names_allow_same_type_comparisons(self, sanity_bundle):
        from repro.experiments import run_solver_matrix

        serial = ExhaustiveSolver(max_layouts=1_000_000)
        parallel = ExhaustiveSolver(max_layouts=1_000_000, workers=2)
        parallel.name = "es-parallel"
        results = run_solver_matrix(make_context(sanity_bundle), [serial, parallel])
        assert results["es"].layout == results["es-parallel"].layout
        assert results["es"].toc_cents == results["es-parallel"].toc_cents
