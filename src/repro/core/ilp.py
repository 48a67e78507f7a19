"""A mixed-integer programming reference for the placement problem.

The paper solves the layout problem with a greedy heuristic because the true
objective ``C(L) * t(L, W)`` couples every placement decision through the
product of cost and time.  Under DOT's own independence assumption between
object groups, however, a natural relaxation exists: choose one placement per
group so as to minimise the *layout cost* subject to an aggregate *I/O time
budget* (derived from the SLA) and the per-class capacity constraints.  That
relaxation is a small MILP which :class:`MILPPlacement` solves exactly with
``scipy.optimize.milp``; the ablation benchmark compares its layouts with
DOT's to quantify how much the greedy walk loses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_eval import group_placement_coefficients
from repro.core.layout import Layout
from repro.core.profiles import WorkloadProfileSet
from repro.exceptions import ConfigurationError
from repro.objects import DatabaseObject, ObjectGroup, group_objects
from repro.storage.storage_class import StorageSystem


@dataclass
class MILPResult:
    """Outcome of the MILP placement."""

    layout: Optional[Layout]
    objective_cents_per_hour: float
    io_time_budget_ms: float
    io_time_ms: float
    status: str
    elapsed_s: float
    variables: int
    #: True when scipy stopped on its iteration/time limit (``status == 1``)
    #: rather than proving optimality or infeasibility.  A layout may still
    #: be present (the incumbent at the limit) -- it is feasible but possibly
    #: sub-optimal, and callers should mark the solve degraded.
    timed_out: bool = False

    @property
    def feasible(self) -> bool:
        """True when the solver found an optimal feasible assignment."""
        return self.layout is not None


class MILPPlacement:
    """Cost-minimising placement under an I/O-time budget, solved exactly."""

    def __init__(self, objects: Sequence[DatabaseObject], system: StorageSystem):
        self.objects = list(objects)
        self.system = system
        self.groups: List[ObjectGroup] = group_objects(self.objects)

    # ------------------------------------------------------------------
    def solve(
        self,
        profiles: WorkloadProfileSet,
        io_time_budget_ms: float,
        time_limit_s: Optional[float] = 60.0,
    ) -> MILPResult:
        """Solve the placement MILP.

        Parameters
        ----------
        profiles:
            Workload profiles providing each group's I/O time share per
            placement (Eq. 1 of the paper).
        io_time_budget_ms:
            Upper bound on the sum of group I/O time shares -- typically the
            all-fast layout's total I/O time divided by the relative SLA.
        """
        # scipy is the largest single cost of ``import repro`` and only this
        # solve needs it, so it is imported on first use.
        from scipy import optimize, sparse

        if io_time_budget_ms <= 0:
            raise ConfigurationError("the I/O time budget must be positive")
        started = time.perf_counter()
        # Coefficient precomputation shares the batch evaluator's vectorized
        # tables: identical values to the per-candidate helpers, one service
        # -time lookup per (class, I/O type) instead of one per candidate.
        candidates, costs, times = group_placement_coefficients(
            self.groups, self.system, profiles
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
        for group in self.groups:
            for position in group_positions[group.key]:
                rows.append(constraint_index)
                cols.append(position)
                values.append(1.0)
            lower.append(1.0)
            upper.append(1.0)
            constraint_index += 1

        # Capacity per storage class.
        class_names = list(self.system.class_names)
        for class_name in class_names:
            capacity = self.system[class_name].capacity_gb
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
        constraints = optimize.LinearConstraint(matrix, lower, upper)
        integrality = np.ones(num_vars)
        bounds = optimize.Bounds(0, 1)
        options = {"time_limit": time_limit_s} if time_limit_s else None
        solution = optimize.milp(
            c=costs,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        elapsed = time.perf_counter() - started
        # scipy stamps status 1 when the iteration/time limit stopped the
        # branch-and-cut before optimality.
        hit_limit = getattr(solution, "status", None) == 1

        if not solution.success or solution.x is None:
            return MILPResult(
                layout=None,
                objective_cents_per_hour=float("inf"),
                io_time_budget_ms=io_time_budget_ms,
                io_time_ms=float("inf"),
                status=solution.message,
                elapsed_s=elapsed,
                variables=num_vars,
                timed_out=hit_limit,
            )

        chosen = np.where(solution.x > 0.5)[0]
        assignment: Dict[str, str] = {}
        total_time = 0.0
        for position in chosen:
            group, placement = candidates[int(position)]
            total_time += times[int(position)]
            for member, class_name in zip(group.members, placement):
                assignment[member.name] = class_name
        layout = Layout(self.objects, self.system, assignment, name="MILP")
        return MILPResult(
            layout=layout,
            objective_cents_per_hour=float(solution.fun),
            io_time_budget_ms=io_time_budget_ms,
            io_time_ms=total_time,
            status="time_limit" if hit_limit else "optimal",
            elapsed_s=elapsed,
            variables=num_vars,
            timed_out=hit_limit,
        )
