"""The DOT heuristic optimizer (paper Section 3.1, Procedure 1).

DOT starts from the layout that places every object on the most expensive
storage class, then applies candidate group moves in priority order.  Each
candidate layout is evaluated with the storage-aware optimizer's estimates
(``estimateTOC``); feasible layouts advance the walk and the cheapest feasible
layout seen so far is remembered.  The result may be marked infeasible, in
which case the caller (the :class:`~repro.core.advisor.ProvisioningAdvisor`)
relaxes the SLA and retries, as in the paper's Figure 2 loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.context import EvaluationContext, SolveResult, SolveStats
from repro.core.feasibility import constraint_signature
from repro.core.layout import Layout
from repro.core.moves import Move, enumerate_moves
from repro.core.toc import TOCReport
from repro.objects import ObjectGroup, group_objects
from repro.obs.instrument import instrument_solver


@dataclass
class MoveTrace:
    """One step of the DOT walk, for introspection and tests."""

    move_description: str
    accepted: bool
    feasible: bool
    toc_cents: float
    feasibility: str


@instrument_solver
class DOTSolver:
    """DOT's greedy optimization walk (Procedure 1) as a solver.

    Objects, system, estimator, constraint, cost override, TOC model and
    estimate cache all come from the context at solve time; the walk starts
    from the paper's ``L_0`` (:meth:`EvaluationContext.reference_layout`,
    everything on the most expensive class) unless ``initial_layout``
    warm-starts it.  The solve-time ``budget`` stops the walk at the first
    move boundary past the deadline, returning the best feasible layout of
    the moves scored so far, marked degraded.

    The walk only advances when a candidate's estimated TOC beats the best
    feasible TOC seen so far, which reproduces the paper's empirical
    DOT-vs-exhaustive-search gap (within ~16 %).  The paper's Procedure 1
    only ever advances through fully feasible layouts, which wedges the walk
    when ``L_0`` itself violates an imposed capacity limit (the Section
    4.4.3 / 4.5.3 experiments), so moves that strictly reduce the total
    capacity excess while keeping the SLA satisfied also advance it -- they
    are never reported as the recommendation unless fully feasible.

    Parameters
    ----------
    incremental:
        Price candidate layouts from the context's estimate cache
        (:meth:`~repro.core.context.EvaluationContext.estimate`, the
        default): per-query estimates are cached by touched-placement
        signature, so a move re-estimates only the queries touching the
        moved group.  Results are bitwise identical to full evaluation (the
        ``incremental=False`` scalar oracle).  A constraint type without a
        :func:`~repro.core.feasibility.constraint_signature` walks on full
        evaluation either way.
    independent_objects:
        Treat every object as its own group (the per-object enumeration of
        Canim et al. [10]).  Used by the grouping ablation benchmark; the
        paper argues -- and the ablation confirms -- that this misses the
        table/index plan interactions DOT's object groups capture.
    """

    name = "dot"

    def __init__(self, incremental: bool = True, independent_objects: bool = False):
        self.incremental = incremental
        self.independent_objects = independent_objects

    def groups(self, context: EvaluationContext) -> List[ObjectGroup]:
        """The object groups the walk moves as units."""
        if self.independent_objects:
            return [ObjectGroup(key=obj.name, members=(obj,)) for obj in context.objects]
        return group_objects(context.objects)

    def moves(self, context: EvaluationContext) -> List[Move]:
        """Candidate moves away from ``L_0``, sorted by priority (Procedure 2)."""
        return enumerate_moves(self.groups(context), context.system, context.get_profiles())

    def _candidate_evaluator(self, context: EvaluationContext):
        """The per-candidate TOC evaluator for one walk.

        The incremental walk prices candidates from the estimate cache
        (bitwise-identical results, far less Python per move).  A constraint
        type without a batch signature walks on the full
        ``TOCModel.evaluate``: its ``check`` could read run-result fields the
        cached path leaves empty (a DSS candidate's I/O counts).
        """
        if self.incremental and constraint_signature(context.constraint) is not None:
            return context.estimate
        return context.evaluate

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        """Run the optimization phase (Procedure 1) and return the best layout.

        ``initial_layout`` warm-starts the walk from an existing layout
        instead of ``L_0`` -- the online advisor passes the currently
        deployed layout so that a small workload drift only has to explore
        moves *away* from it.  Move priorities are still scored relative to
        ``L_0`` (Procedure 2's scores are layout-independent rankings), and
        each candidate move re-places a whole group, so applying them to a
        warm layout is exactly as sound as applying them to ``L_0``.  Note
        the warm walk can never return a group to the all-most-expensive
        placement (such moves save nothing relative to ``L_0`` and are never
        enumerated); callers needing that escape hatch re-run cold.
        """
        context.get_profiles()  # profiling is not walk time
        checker = context.checker()
        started = time.perf_counter()
        evaluate_candidate = self._candidate_evaluator(context)

        current = initial_layout if initial_layout is not None else context.reference_layout()
        initial_report = context.evaluate(current)
        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if checker.check(current, initial_report.run_result).feasible:
            best_layout, best_report = current, initial_report

        deadline = time.monotonic() + budget if budget is not None else None
        history: List[MoveTrace] = []
        evaluated = 1
        timed_out = False
        for move in self.moves(context):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                break
            candidate = move.apply_to(current)
            report = evaluate_candidate(candidate)
            evaluated += 1
            check = checker.check(candidate, report.run_result)

            accepted = False
            if check.feasible:
                if best_report is None or report.toc_cents < best_report.toc_cents:
                    current = best_layout = candidate
                    best_report = report
                    accepted = True
            elif (
                check.performance_ok
                and not check.capacity_ok
                and candidate.excess_gb() < current.excess_gb()
            ):
                # Advance toward capacity feasibility without recording the
                # (still infeasible) layout as a recommendation.
                current = candidate
                accepted = True

            history.append(
                MoveTrace(
                    move_description=move.describe(),
                    accepted=accepted,
                    feasible=check.feasible,
                    toc_cents=report.toc_cents,
                    feasibility=check.describe(),
                )
            )

        elapsed = time.perf_counter() - started
        if best_layout is not None:
            best_layout = best_layout.renamed("DOT")
            # The cached path omits a DSS candidate's I/O counts, so the
            # recommendation is re-evaluated in full; the numbers are
            # identical, only the I/O fields are richer.
            best_report = context.evaluate(best_layout)
        stats = SolveStats(
            elapsed_s=elapsed,
            evaluated_layouts=evaluated,
            moves_accepted=sum(1 for trace in history if trace.accepted),
            moves=history,
            degraded=timed_out,
            incidents=(
                [f"dot walk stopped at the {budget}s deadline after "
                 f"{evaluated} candidates"]
                if timed_out else []
            ),
            deadline_s=budget,
        )
        return SolveResult(
            solver=self.name,
            layout=best_layout,
            toc_report=best_report,
            feasible=best_layout is not None,
            stats=stats,
            psr=context.psr(best_report),
        )
