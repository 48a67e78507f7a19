"""Measure layouts against workloads the way the paper reports them.

:func:`measure_layouts` performs a simulated "real" run of the context's
workload on each candidate layout and reports the measured TOC, the
performance metric (workload response time for DSS, tpmC for OLTP) and the
PSR against a given constraint -- in the figures, the relative SLA resolved
from a simulated run of the all-H-SSD (best performing) layout.

:func:`run_solver_matrix` is the experiment layer's "scenario x solver list"
primitive: it runs any sequence of protocol-conforming solvers against one
:class:`~repro.core.context.EvaluationContext` (sharing its estimate cache)
and returns their uniform :class:`~repro.core.solver.SolveResult`\\ s by
solver name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.context import EvaluationContext
from repro.core.layout import Layout
from repro.core.solver import Solver, SolveResult
from repro.exceptions import ConfigurationError
from repro.core.toc import TOCReport
from repro.sla.constraints import PerformanceConstraint
from repro.sla.psr import performance_satisfaction_ratio


@dataclass
class LayoutEvaluation:
    """Measured metrics of one layout for one workload."""

    layout_name: str
    toc_cents: float
    layout_cost_cents_per_hour: float
    response_time_s: Optional[float]
    transactions_per_minute: Optional[float]
    psr: float
    report: TOCReport = field(repr=False, default=None)

    @property
    def performance_value(self) -> float:
        """The headline performance number (seconds for DSS, tpm for OLTP)."""
        if self.transactions_per_minute is not None:
            return self.transactions_per_minute
        return self.response_time_s if self.response_time_s is not None else float("nan")


def measure_layouts(
    context: EvaluationContext,
    layouts: Mapping[str, Layout],
    constraint: Optional[PerformanceConstraint] = None,
) -> List[LayoutEvaluation]:
    """Measure each ``name -> layout`` with a simulated run, in the given order.

    Each layout is renamed to its key.  PSR is taken against ``constraint``
    (1.0 when ``None``), not ``context.constraint``: the figures report
    against the run-derived cap, the search uses the estimate-derived one.
    Every run advances the estimator's noise RNG, so the order matters.
    """
    evaluations = []
    for name, layout in layouts.items():
        report = context.evaluate(layout.renamed(name), mode="run")
        psr = 1.0
        if constraint is not None:
            psr = performance_satisfaction_ratio(constraint, report.run_result)
        evaluations.append(
            LayoutEvaluation(
                layout_name=name,
                toc_cents=report.toc_cents,
                layout_cost_cents_per_hour=report.layout_cost_cents_per_hour,
                response_time_s=report.execution_time_s,
                transactions_per_minute=report.transactions_per_minute,
                psr=psr,
                report=report,
            )
        )
    return evaluations


def run_solver_matrix(
    context: EvaluationContext,
    solvers: Sequence[Solver],
) -> Dict[str, SolveResult]:
    """Run several solvers against one evaluation context, in order.

    Returns ``{solver.name: SolveResult}`` preserving the given order (so
    callers can iterate deterministically).  All solvers share the context's
    estimate cache: a (query, touched-placement-signature) pair estimated by
    one solver is a lookup for the next, exactly the sharing the figure
    drivers used to wire by hand.

    Duplicate solver names are refused *before* anything runs (the dict
    would silently keep only the last result); give same-type comparisons
    distinct per-instance names, e.g. ``solver.name = "es-parallel"``.
    """
    names = [getattr(solver, "name", type(solver).__name__) for solver in solvers]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigurationError(
            f"run_solver_matrix got duplicate solver names {duplicates}; results "
            "are keyed by name, so one result per name would be silently lost -- "
            "set distinct per-instance `name` attributes"
        )
    results: Dict[str, SolveResult] = {}
    for name, solver in zip(names, solvers):
        results[name] = solver.solve(context)
    return results
