"""The Object Advisor (OA) baseline, after Canim et al. [10].

OA places database objects on SSDs to *maximise workload performance* within
a storage budget -- it does not optimise the TOC, and (unlike DOT) its
placement decisions use I/O statistics gathered once on a fixed baseline
layout, so it misses the interaction between plan choice and data layout.
Both properties are reproduced here:

* the workload is profiled once, with every object on the *cheapest* class
  (OA's "everything starts on magnetic disk" assumption);
* each object's benefit is the I/O-time reduction from moving it to a faster
  class, computed from those fixed I/O counts;
* objects are greedily admitted to faster classes in descending
  benefit-per-GB order until each class's capacity (or an explicit budget)
  is exhausted -- the classic fractional-knapsack heuristic of the OA paper,
  generalised to more than two storage tiers.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.context import EvaluationContext, SolveResult, SolveStats
from repro.core.layout import Layout
from repro.obs.instrument import instrument_solver
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageClass


def _object_io_time_ms(
    io_counts: Dict[str, Dict[IOType, float]], object_name: str,
    storage_class: StorageClass, concurrency: int
) -> float:
    total = 0.0
    for io_type, count in io_counts.get(object_name, {}).items():
        total += count * storage_class.service_time_ms(io_type, concurrency)
    return total


@instrument_solver
class ObjectAdvisorSolver:
    """Greedy performance-maximising placement within capacity budgets.

    OA maximises performance within capacity budgets and never consults the
    SLA, so ``feasible`` reports whether its layout *happens* to satisfy the
    context constraint (estimate mode) -- the property the paper's
    comparisons measure it by.  A layout is always produced.  ``budgets_gb``
    optionally caps how much space OA may use on each class; by default the
    class capacities apply.
    """

    name = "oa"

    def __init__(self, budgets_gb: Optional[Dict[str, float]] = None):
        self.budgets_gb = budgets_gb

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        started = time.perf_counter()
        objects, system = context.objects, context.system
        # Placement targets are ordered by random-read speed (OA's benefit
        # metric is dominated by random I/O); the slowest class is the
        # default home of unpromoted objects.
        ordered = sorted(system, key=lambda sc: sc.service_time_ms(IOType.RAND_READ, 1))
        base_class = ordered[-1]
        concurrency = context.concurrency

        # Profile once on the all-cheapest baseline (layout-unaware plans).
        baseline = Layout.uniform(objects, system, base_class.name)
        io_counts = context.estimator.estimate_workload(
            context.workload, baseline.placement()
        ).io_by_object

        # Benefit of each object: I/O time on the base class minus on the
        # fastest class, per GB of space it would occupy there.
        fastest = ordered[0]
        benefits: Dict[str, float] = {}
        for obj in objects:
            base_time = _object_io_time_ms(io_counts, obj.name, base_class, concurrency)
            fast_time = _object_io_time_ms(io_counts, obj.name, fastest, concurrency)
            benefits[obj.name] = (base_time - fast_time) / max(obj.size_gb, 1e-9)

        assignment = {obj.name: base_class.name for obj in objects}
        remaining = {
            sc.name: (self.budgets_gb or {}).get(sc.name, sc.capacity_gb) for sc in ordered
        }
        # Greedily promote the most beneficial objects to the fastest class
        # with room, skipping the base class (objects already live there).
        promotable = sorted(
            (obj for obj in objects if benefits[obj.name] > 0),
            key=lambda obj: benefits[obj.name],
            reverse=True,
        )
        for obj in promotable:
            for storage_class in ordered[:-1]:
                if obj.size_gb <= remaining[storage_class.name]:
                    assignment[obj.name] = storage_class.name
                    remaining[storage_class.name] -= obj.size_gb
                    break

        layout = Layout(objects, system, assignment, name="OA")
        elapsed = time.perf_counter() - started
        toc_report = context.evaluate(layout)
        check = context.checker().check(layout, toc_report.run_result)
        # OA is one closed-form greedy pass with no interruption point, so
        # the deadline can only be audited after the fact.
        overran = budget is not None and elapsed > budget
        stats = SolveStats(
            elapsed_s=elapsed,
            evaluated_layouts=1,
            degraded=overran,
            incidents=(
                [f"oa pass overran its {budget}s deadline ({elapsed:.3f}s elapsed)"]
                if overran else []
            ),
            deadline_s=budget,
        )
        return SolveResult(
            solver=self.name,
            layout=layout,
            toc_report=toc_report,
            feasible=check.feasible,
            stats=stats,
            psr=context.psr(toc_report),
        )
