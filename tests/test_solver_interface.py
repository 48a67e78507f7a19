"""The uniform solver interface: protocol, context and cross-solver sanity.

* **Protocol** -- every solver satisfies :class:`Solver`, ``budget`` is a
  wall-clock deadline with an honest incident trail, and the context owns
  the one estimate cache and the lazily computed profiles.
* **Cross-solver sanity** -- on a tiny plan-stable instance (6 objects x 3
  classes, scan/join workload) the ES optimum lower-bounds every other
  solver's TOC, and the OA / MILP layouts are SLA-feasible.

The bitwise identity of each solver's fast paths with its scalar oracle
(``batch=False``, ``incremental=False``) is locked in
``tests/test_batch_eval.py`` and ``tests/test_parallel_search.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import scenarios
from repro.core import (
    DOTSolver,
    ExhaustiveSolver,
    FallbackSolver,
    MILPSolver,
    ObjectAdvisorSolver,
    SolveResult,
    Solver,
)
from repro.exceptions import ConfigurationError, InfeasibleLayoutError


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
# Protocol behaviour
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_instances_satisfy_the_protocol(self):
        for solver in (DOTSolver(), ExhaustiveSolver(), MILPSolver(),
                       ObjectAdvisorSolver(), FallbackSolver()):
            assert isinstance(solver, Solver)

    def test_es_budget_is_a_wall_clock_deadline(self, small_bundle):
        # budget is a hard deadline in seconds, uniform across solvers: a
        # zero-second budget must cut the enumeration short (degraded, with
        # an incident recorded), proving the deadline reaches the search.
        result = ExhaustiveSolver().solve(make_context(small_bundle), budget=0.0)
        assert result.stats.degraded
        assert "deadline of 0.0s expired" in result.stats.incidents[0]
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
        cache = context.estimate_cache
        lookups = cache.hits + cache.misses
        context.estimate(context.reference_layout())
        assert cache.hits + cache.misses == lookups + len(small_bundle.workload.queries)
        assert context.profiler().estimate_cache is cache
        batch = context.batch_evaluator()
        assert batch is not None
        assert batch.cache is cache

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
