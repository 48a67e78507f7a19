"""A mixed-integer programming reference for the placement problem.

The paper solves the layout problem with a greedy heuristic because the true
objective ``C(L) * t(L, W)`` couples every placement decision through the
product of cost and time.  Under DOT's own independence assumption between
object groups, however, a natural relaxation exists: choose one placement per
group so as to minimise the *layout cost* subject to an aggregate *I/O time
budget* (derived from the SLA) and the per-class capacity constraints.  That
relaxation is a small MILP which :class:`MILPSolver` solves exactly with
``scipy.optimize.milp``; the ablation benchmark compares its layouts with
DOT's to quantify how much the greedy walk loses.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.batch_eval import group_placement_coefficients
from repro.core.context import EvaluationContext, SolveResult, SolveStats
from repro.core.layout import Layout
from repro.exceptions import ConfigurationError
from repro.objects import group_objects
from repro.obs.instrument import instrument_solver

#: scipy's wall-clock limit for a solve that runs without a ``budget``.
MILP_TIME_LIMIT_S = 60.0


@instrument_solver
class MILPSolver:
    """Cost-minimising placement under an I/O-time budget, solved exactly.

    The MILP picks one placement per object group, minimising layout cost
    subject to the per-class capacities and an aggregate I/O-time budget
    (the sum of the groups' profiled I/O time shares, Eq. 1 of the paper).
    When ``io_time_budget_ms`` is not given it is derived the way the
    ablation study does: the all-most-expensive layout's profiled I/O time
    divided by the context's relative SLA ratio.  The solve-time ``budget``
    replaces the default :data:`MILP_TIME_LIMIT_S` as scipy's ``time_limit``;
    a solve stopped there returns HiGHS's incumbent, marked degraded.
    """

    name = "milp"

    def __init__(self, io_time_budget_ms: Optional[float] = None):
        self.io_time_budget_ms = io_time_budget_ms

    def resolve_budget_ms(self, context: EvaluationContext) -> float:
        """The I/O-time budget: explicit, or profiled best time / SLA ratio."""
        if self.io_time_budget_ms is not None:
            return self.io_time_budget_ms
        if context.sla is None:
            raise ConfigurationError(
                "MILPSolver needs an explicit io_time_budget_ms when the context "
                "was not built from a relative SLA"
            )
        profiles = context.get_profiles()
        best_class = context.system.most_expensive().name
        best_time = sum(
            profiles.io_time_share_ms(group, tuple([best_class] * len(group)))
            for group in group_objects(context.objects)
        )
        return best_time / context.sla.ratio

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        # scipy is the largest single cost of ``import repro`` and only this
        # solve needs it, so it is imported on first use.
        from scipy import optimize, sparse

        io_time_budget_ms = self.resolve_budget_ms(context)
        if io_time_budget_ms <= 0:
            raise ConfigurationError("the I/O time budget must be positive")
        limit = budget if budget is not None else MILP_TIME_LIMIT_S
        started = time.perf_counter()
        groups = group_objects(context.objects)
        system = context.system
        # Coefficient precomputation shares the batch evaluator's vectorized
        # tables: identical values to the per-candidate helpers, one service
        # -time lookup per (class, I/O type) instead of one per candidate.
        candidates, costs, times = group_placement_coefficients(
            groups, system, context.get_profiles()
        )
        num_vars = len(candidates)

        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        constraint_index = 0

        # Exactly one placement per group.
        group_positions: Dict[str, List[int]] = {}
        for position, (group, _) in enumerate(candidates):
            group_positions.setdefault(group.key, []).append(position)
        for group in groups:
            for position in group_positions[group.key]:
                rows.append(constraint_index)
                cols.append(position)
                values.append(1.0)
            lower.append(1.0)
            upper.append(1.0)
            constraint_index += 1

        # Capacity per storage class.
        for class_name in system.class_names:
            capacity = system[class_name].capacity_gb
            for position, (group, placement) in enumerate(candidates):
                used = sum(
                    member.size_gb
                    for member, assigned in zip(group.members, placement)
                    if assigned == class_name
                )
                if used > 0:
                    rows.append(constraint_index)
                    cols.append(position)
                    values.append(used)
            lower.append(0.0)
            upper.append(capacity)
            constraint_index += 1

        # Aggregate I/O time budget.
        for position in range(num_vars):
            if times[position] != 0.0:
                rows.append(constraint_index)
                cols.append(position)
                values.append(times[position])
        lower.append(-np.inf)
        upper.append(io_time_budget_ms)
        constraint_index += 1

        matrix = sparse.csc_matrix(
            (values, (rows, cols)), shape=(constraint_index, num_vars)
        )
        solution = optimize.milp(
            c=costs,
            constraints=optimize.LinearConstraint(matrix, lower, upper),
            integrality=np.ones(num_vars),
            bounds=optimize.Bounds(0, 1),
            options={"time_limit": limit} if limit else None,
        )
        elapsed = time.perf_counter() - started
        # scipy stamps status 1 when the iteration/time limit stopped the
        # branch-and-cut before optimality; ``success`` is only status 0, but
        # the incumbent it found by then is in ``x`` and worth returning.
        hit_limit = getattr(solution, "status", None) == 1

        layout = None
        if solution.x is not None and (solution.success or hit_limit):
            chosen = [int(position) for position in np.where(solution.x > 0.5)[0]]
            if sorted(candidates[position][0].key for position in chosen) == sorted(
                group.key for group in groups
            ):
                assignment: Dict[str, str] = {}
                for position in chosen:
                    group, placement = candidates[position]
                    for member, class_name in zip(group.members, placement):
                        assignment[member.name] = class_name
                layout = Layout(context.objects, system, assignment, name="MILP")

        toc_report = context.evaluate(layout) if layout is not None else None
        incidents = []
        if hit_limit:
            found = "returning its incumbent" if layout is not None else "no incumbent yet"
            incidents.append(f"milp stopped at its {limit}s time limit ({found})")
        stats = SolveStats(
            elapsed_s=elapsed,
            variables=num_vars,
            degraded=hit_limit,
            incidents=incidents,
            deadline_s=limit,
        )
        return SolveResult(
            solver=self.name,
            layout=layout,
            toc_report=toc_report,
            feasible=layout is not None,
            stats=stats,
            psr=context.psr(toc_report),
        )
