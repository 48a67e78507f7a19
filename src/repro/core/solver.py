"""The uniform solver interface over the four placement solvers.

The paper evaluates one optimization problem -- minimise TOC subject to an
SLA and per-class capacities -- with four interchangeable solvers, one class
each: DOT's greedy walk (:class:`~repro.core.dot.DOTSolver`, Section 3), the
exhaustive search (:class:`~repro.core.exhaustive.ExhaustiveSolver`,
Sections 4.4.3/4.5.3), the MILP relaxation
(:class:`~repro.core.ilp.MILPSolver`) and the Object Advisor baseline
(:class:`~repro.core.object_advisor.ObjectAdvisorSolver`, Canim et al.
[10]).  All four implement the :class:`Solver` protocol ``solve(context, *,
initial_layout=None, budget=None) -> SolveResult`` over an
:class:`~repro.core.context.EvaluationContext`, reading objects, system,
estimator, constraint, cost override, TOC model and estimate cache from the
context, and report through the one result type
:class:`SolveResult` / :class:`SolveStats`.  This module gathers them and
adds the fallback chain.

``budget`` is a **hard wall-clock deadline in seconds**, uniform across all
four solvers: the exhaustive search aborts its enumeration at the deadline
and returns the exact best of what it scored, DOT stops its move walk at the
next move boundary, the MILP passes it down as scipy's ``time_limit`` and
the Object Advisor (a single closed-form pass) flags the rare overrun after
the fact.  A solve cut short this way is *degraded*: the result is still
feasible whenever any feasible candidate was found (every search path only
ever keeps feasible incumbents), and its provenance is recorded in
:attr:`SolveStats.degraded` plus a human-readable incident list --
degradation is never silent.  :class:`FallbackSolver` stacks solvers into a
chain (ES -> DOT -> hold the initial layout) so ``solve()`` always returns
a layout even when individual solvers fail outright.  ``initial_layout``
warm-starts solvers that support it (DOT's walk; others ignore it), which is
how the online advisor re-tiers through the same interface it provisions
with.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.context import EvaluationContext, SolveResult, SolveStats, Solver
from repro.core.dot import DOTSolver
from repro.core.exhaustive import ExhaustiveSolver
from repro.core.ilp import MILPSolver
from repro.core.layout import Layout
from repro.core.object_advisor import ObjectAdvisorSolver
from repro.obs.instrument import instrument_solver


@instrument_solver
class FallbackSolver:
    """A degrade-gracefully chain of solvers with a hold-the-layout backstop.

    Stages are tried in order (default: exhaustive search, then DOT), each
    given whatever remains of the shared wall-clock ``budget``.  A stage
    that raises, times out without a layout, or comes back infeasible is
    recorded as an incident and the chain moves on.  When every stage
    fails, the terminal backstop returns ``initial_layout`` (or the
    context's reference layout) evaluated honestly -- a fleet holding its
    current placement is strictly better than a fleet with no placement
    decision at all.  The returned result is marked degraded whenever
    anything other than the first stage's full-effort answer is returned,
    so provenance is never lost.
    """

    name = "fallback"

    def __init__(self, chain: Optional[Sequence[Solver]] = None):
        self.chain: List[Solver] = (
            list(chain) if chain is not None else [ExhaustiveSolver(), DOTSolver()]
        )

    # -- stage-outcome hooks (no-ops here) -----------------------------
    # The chain reports what happened to every stage through these, so
    # subclasses can attach policy without re-implementing the ladder: the
    # service's breaker-guarded solver (repro.service.breaker) trips a
    # per-solver-class circuit on repeated failures/timeouts and skips the
    # stage while the circuit is open.
    def _stage_blocked(self, stage: Solver) -> Optional[str]:
        """A reason to skip this stage outright, or ``None`` to run it."""
        return None

    def _stage_failed(self, stage: Solver, timeout: bool = False) -> None:
        """The stage raised, blew its deadline, or came back infeasible."""

    def _stage_succeeded(self, stage: Solver) -> None:
        """The stage returned a feasible, full-effort result."""

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        deadline = time.monotonic() + budget if budget is not None else None
        incidents: List[str] = []
        degraded = False
        for stage in self.chain:
            blocked = self._stage_blocked(stage)
            if blocked is not None:
                incidents.append(f"{stage.name}: {blocked}")
                degraded = True
                continue
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    incidents.append(
                        f"{stage.name}: skipped, shared deadline already spent"
                    )
                    degraded = True
                    continue
            try:
                result = stage.solve(
                    context, initial_layout=initial_layout, budget=remaining
                )
            except Exception as exc:  # noqa: BLE001 - the chain exists to absorb
                self._stage_failed(stage)
                incidents.append(f"{stage.name}: raised {exc!r}; falling back")
                degraded = True
                continue
            if result.feasible and result.layout is not None:
                if result.stats.degraded:
                    # A deadline-degraded answer is a timeout for supervision
                    # purposes even though the result itself is usable.
                    self._stage_failed(stage, timeout=True)
                else:
                    self._stage_succeeded(stage)
                stats = result.stats
                stats.incidents = incidents + list(stats.incidents)
                stats.degraded = stats.degraded or degraded
                stats.deadline_s = budget
                return SolveResult(
                    solver=f"{self.name}:{result.solver}",
                    layout=result.layout,
                    toc_report=result.toc_report,
                    feasible=result.feasible,
                    stats=stats,
                    psr=result.psr,
                )
            self._stage_failed(stage)
            incidents.append(f"{stage.name}: no feasible layout; falling back")
            degraded = True

        held = initial_layout if initial_layout is not None else context.reference_layout()
        toc_report = context.evaluate(held)
        check = context.checker().check(held, toc_report.run_result)
        incidents.append(
            f"held layout {held.name!r}: every chained solver failed"
        )
        stats = SolveStats(
            evaluated_layouts=1,
            degraded=True,
            incidents=incidents,
            deadline_s=budget,
        )
        return SolveResult(
            solver=f"{self.name}:hold",
            layout=held,
            toc_report=toc_report,
            feasible=check.feasible,
            stats=stats,
            psr=context.psr(toc_report),
        )


__all__ = [
    "Solver",
    "SolveResult",
    "SolveStats",
    "DOTSolver",
    "ExhaustiveSolver",
    "FallbackSolver",
    "MILPSolver",
    "ObjectAdvisorSolver",
]
