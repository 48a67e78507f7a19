"""The end-to-end provisioning advisor (the Figure 2 pipeline).

:class:`ProvisioningAdvisor` wires the four DOT phases together:

1. **Profiling** -- run (or estimate) the workload on baseline layouts to
   collect per-object I/O profiles.
2. **Optimization** -- Procedure 1 over the prioritised move list.
3. **Validation** -- a simulated test run of the recommended layout checked
   against the SLA.
4. **Refinement** -- when validation fails, re-profile with the *actual* I/O
   statistics of the test run and re-optimize; if that still fails, relax the
   SLA and repeat, as the paper prescribes for infeasible cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.context import EvaluationContext, SolveResult
from repro.core.dot import DOTSolver
from repro.core.layout import Layout
from repro.core.toc import TOCReport
from repro.exceptions import InfeasibleLayoutError
from repro.objects import DatabaseObject
from repro.sla.constraints import PerformanceConstraint, RelativeSLA
from repro.storage.storage_class import StorageSystem


@dataclass
class Recommendation:
    """The advisor's final answer for one workload on one storage system."""

    layout: Layout
    constraint: Optional[PerformanceConstraint]
    estimated_report: TOCReport
    measured_report: TOCReport
    psr: float
    validated: bool
    refinements_used: int
    relaxations_used: int
    dot_result: SolveResult
    baseline_report: Optional[TOCReport] = None
    elapsed_s: float = 0.0

    @property
    def toc_cents(self) -> float:
        """Measured TOC of the recommended layout."""
        return self.measured_report.toc_cents

    def describe(self) -> str:
        """Multi-line human readable summary."""
        lines = [
            f"Recommendation for {self.measured_report.workload_name!r}:",
            f"  layout cost : {self.measured_report.layout_cost_cents_per_hour:.4f} cents/hour",
            f"  TOC         : {self.measured_report.toc_cents:.4f} cents ({self.measured_report.metric})",
            f"  PSR         : {self.psr * 100:.0f}%",
            f"  validated   : {self.validated} "
            f"(refinements={self.refinements_used}, relaxations={self.relaxations_used})",
        ]
        lines.append(self.layout.describe())
        return "\n".join(lines)


class ProvisioningAdvisor:
    """High level facade implementing the full DOT pipeline.

    Each :meth:`recommend` call builds one
    :class:`~repro.core.context.EvaluationContext` for the workload and runs
    :class:`~repro.core.dot.DOTSolver` on it, swapping in refined profiles
    and relaxed constraints between rounds.
    """

    def __init__(
        self,
        objects: Sequence[DatabaseObject],
        system: StorageSystem,
        estimator,
        cost_override=None,
    ):
        self.objects = list(objects)
        self.system = system
        self.estimator = estimator
        self.cost_override = cost_override

    # ------------------------------------------------------------------
    def recommend(
        self,
        workload,
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]] = None,
        max_refinements: int = 1,
        max_relaxations: int = 3,
        relaxation_factor: float = 1.25,
    ) -> Recommendation:
        """Run the full profile / optimize / validate / refine pipeline.

        A relative SLA is resolved against the *estimated* performance of the
        all-most-expensive layout, so that the caps live in the same units as
        the optimizer's own estimates (the feasibility test of Procedure 1
        compares estimate to estimate); the validation phase then checks the
        recommendation with a measured run against the same caps.

        The first round profiles with estimates over the ``M^K`` baselines
        (DOT asks the context on first use).  A failed validation re-profiles
        with a test run, up to ``max_refinements`` times, and then relaxes
        the caps by ``relaxation_factor``, up to ``max_relaxations`` times.
        """
        started = time.perf_counter()
        context = EvaluationContext(
            self.objects, self.system, self.estimator, workload,
            cost_override=self.cost_override,
        )
        reference_report = context.evaluate(context.reference_layout())
        if isinstance(sla, RelativeSLA):
            context.constraint = sla.resolve(reference_report.run_result)
        else:
            context.constraint = sla

        refinements_used = 0
        relaxations_used = 0

        def recommendation(result: SolveResult, measured_report: TOCReport,
                           validated: bool) -> Recommendation:
            return Recommendation(
                layout=result.layout,
                constraint=context.constraint,
                estimated_report=result.toc_report,
                measured_report=measured_report,
                psr=context.psr(measured_report),
                validated=validated,
                refinements_used=refinements_used,
                relaxations_used=relaxations_used,
                dot_result=result,
                baseline_report=reference_report,
                elapsed_s=time.perf_counter() - started,
            )

        solver = DOTSolver()
        while True:
            result = solver.solve(context)
            if result.feasible:
                # The validation phase: a simulated test run of the layout.
                measured_report = context.evaluate(result.layout, mode="run")
                if context.checker().check(result.layout, measured_report.run_result).feasible:
                    return recommendation(result, measured_report, validated=True)

            # Validation failed or no feasible layout was found: refine with
            # actual statistics first, then relax the SLA.
            if refinements_used < max_refinements:
                refinements_used += 1
                context.profiles = context.profiler().profile(workload, mode="testrun")
                continue
            if context.constraint is not None and relaxations_used < max_relaxations:
                relaxations_used += 1
                context.constraint = context.constraint.relaxed(relaxation_factor)
                continue
            break

        # Out of refinement/relaxation budget: return the best layout found
        # (even if it only met the estimates) or raise when there is none.
        if result.feasible:
            return recommendation(
                result, context.evaluate(result.layout, mode="run"), validated=False
            )
        raise InfeasibleLayoutError(
            "no feasible layout found even after refinement and SLA relaxation"
        )
