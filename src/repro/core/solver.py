"""The uniform solver interface over the four placement solvers.

The paper evaluates one optimization problem -- minimise TOC subject to an
SLA and per-class capacities -- with four interchangeable solvers: DOT's
greedy walk (Section 3), the exhaustive search (Sections 4.4.3/4.5.3), the
MILP relaxation and the Object Advisor baseline (Canim et al. [10]).  Each
historically had its own constructor signature and result dataclass, so
every experiment driver re-implemented the same construction boilerplate.

This module gives all four one shape:

* :class:`Solver` -- the protocol ``solve(context, *, initial_layout=None,
  budget=None) -> SolveResult`` over an
  :class:`~repro.core.context.EvaluationContext`;
* :class:`SolveResult` / :class:`SolveStats` -- the single result type.  The
  legacy per-solver results (:class:`~repro.core.dot.DOTResult`,
  :class:`~repro.core.exhaustive.ExhaustiveSearchResult`,
  :class:`~repro.core.ilp.MILPResult`,
  :class:`~repro.core.object_advisor.ObjectAdvisorResult`) are retained as
  thin solver-specific views reachable through :attr:`SolveResult.raw`, and
  every number a ``SolveResult`` reports is taken from them unchanged --
  solving through this interface is bitwise identical to driving the
  underlying solver directly (enforced by ``tests/test_solver_interface.py``);
* a name registry (:func:`get_solver`, :func:`solver_names`,
  :func:`register_solver`) so experiment drivers can express "scenario x
  solver list" declaratively.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Type, runtime_checkable

from repro.core.batch_eval import BatchEvalStats
from repro.core.context import EvaluationContext
from repro.core.dot import DOTOptimizer
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.ilp import MILPPlacement
from repro.core.layout import Layout
from repro.core.object_advisor import ObjectAdvisor
from repro.core.toc import TOCReport
from repro.exceptions import ConfigurationError, InfeasibleLayoutError
from repro.objects import DatabaseObject, group_objects
from repro.obs.instrument import instrument_solver
from repro.sla.psr import performance_satisfaction_ratio


# ---------------------------------------------------------------------------
# The result type
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Work accounting of one solver run, uniform across solvers.

    ``elapsed_s`` is the solver's own search/walk time; ``build_s`` separates
    evaluator construction and estimate-table warm-up (the batch engine's
    convention, zero for solvers without a build phase).  Counters a solver
    does not produce stay at their zero defaults; the full batch-engine
    accounting (when a vectorized path ran) hangs off ``batch``.
    """

    elapsed_s: float = 0.0
    build_s: float = 0.0
    evaluated_layouts: int = 0
    #: DOT: candidate moves whose application advanced the walk.
    moves_accepted: int = 0
    #: Parallel ES: layouts never evaluated thanks to branch-and-bound.
    pruned_layouts: int = 0
    workers: int = 0
    #: MILP: number of binary placement variables.
    variables: int = 0
    batch: Optional[BatchEvalStats] = field(default=None, repr=False)
    #: True when the solve was cut short (deadline) or rerouted (fallback
    #: chain): the result is honest but not the solver's full-effort answer.
    degraded: bool = False
    #: Human-readable record of what degraded the solve (deadline aborts,
    #: shard retries, fallback hops); empty for a clean full-effort run.
    incidents: List[str] = field(default_factory=list)
    #: The wall-clock budget the solve ran under (``None`` = unbounded).
    deadline_s: Optional[float] = None


@dataclass
class SolveResult:
    """Outcome of one ``Solver.solve`` call, uniform across solvers.

    ``raw`` holds the legacy solver-specific result object (``DOTResult``,
    ``ExhaustiveSearchResult``, ``MILPResult`` or ``ObjectAdvisorResult``)
    with every field it always had, so existing consumers lose nothing by
    going through the uniform interface.
    """

    solver: str
    layout: Optional[Layout]
    toc_report: Optional[TOCReport]
    feasible: bool
    stats: SolveStats
    #: PSR of the solution against the context constraint (estimate-mode run
    #: result); 1.0 when the context has no constraint or no layout exists.
    psr: float = 1.0
    raw: object = field(default=None, repr=False)

    @property
    def toc_cents(self) -> float:
        """TOC of the solution (``inf`` when no feasible layout exists)."""
        if self.toc_report is None:
            return float("inf")
        return self.toc_report.toc_cents

    @property
    def elapsed_s(self) -> float:
        """The solver's search time in seconds."""
        return self.stats.elapsed_s

    @property
    def evaluated_layouts(self) -> int:
        """Candidate layouts the solver evaluated."""
        return self.stats.evaluated_layouts

    def require_layout(self) -> Layout:
        """The solution layout, or raise when the solve was infeasible."""
        if self.layout is None:
            raise InfeasibleLayoutError(
                f"solver {self.solver!r} found no feasible layout; relax the "
                "performance constraint and retry"
            )
        return self.layout


def _psr_for(context: EvaluationContext, report: Optional[TOCReport]) -> float:
    if report is None or context.constraint is None:
        return 1.0
    return performance_satisfaction_ratio(context.constraint, report.run_result)


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

@runtime_checkable
class Solver(Protocol):
    """What every placement solver looks like to the experiment layer."""

    name: str

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        """Solve the placement problem described by ``context``."""
        ...


# ---------------------------------------------------------------------------
# The four solvers
# ---------------------------------------------------------------------------

@instrument_solver
class DOTSolver:
    """DOT's greedy optimization walk (Procedure 1) behind the protocol.

    Constructor arguments mirror the solver-specific knobs of
    :class:`~repro.core.dot.DOTOptimizer`; everything shared (objects,
    system, estimator, constraint, cost override, estimate cache) comes from
    the context at solve time.  ``initial_layout`` warm-starts the walk.
    """

    name = "dot"

    def __init__(
        self,
        initial_class: Optional[str] = None,
        capacity_relaxed_walk: bool = True,
        walk_mode: str = "improvement",
        incremental: bool = True,
        independent_objects: bool = False,
    ):
        self.initial_class = initial_class
        self.capacity_relaxed_walk = capacity_relaxed_walk
        self.walk_mode = walk_mode
        self.incremental = incremental
        self.independent_objects = independent_objects

    def optimizer(self, context: EvaluationContext) -> DOTOptimizer:
        """The underlying optimizer this solver drives for ``context``."""
        return DOTOptimizer(
            context.objects,
            context.system,
            context.estimator,
            constraint=context.constraint,
            initial_class=self.initial_class,
            capacity_relaxed_walk=self.capacity_relaxed_walk,
            cost_override=context.cost_override,
            independent_objects=self.independent_objects,
            walk_mode=self.walk_mode,
            incremental=self.incremental,
            estimate_cache=context.estimate_cache,
        )

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        result = self.optimizer(context).optimize(
            context.workload,
            context.get_profiles(),
            initial_layout=initial_layout,
            deadline_s=budget,
        )
        stats = SolveStats(
            elapsed_s=result.elapsed_s,
            evaluated_layouts=result.evaluated_layouts,
            moves_accepted=sum(1 for trace in result.history if trace.accepted),
            degraded=result.timed_out,
            incidents=(
                [f"dot walk stopped at the {budget}s deadline after "
                 f"{result.evaluated_layouts} candidates"]
                if result.timed_out else []
            ),
            deadline_s=budget,
        )
        return SolveResult(
            solver=self.name,
            layout=result.layout,
            toc_report=result.toc_report,
            feasible=result.feasible,
            stats=stats,
            psr=_psr_for(context, result.toc_report),
            raw=result,
        )


@instrument_solver
class ExhaustiveSolver:
    """The exhaustive search (serial batch or sharded parallel) as a solver.

    ``objects``/``pinned_objects`` optionally restrict the enumeration to a
    subset of the context's objects with the remainder pinned (the Figure 9
    hot-set study); by default every context object is enumerated.  The
    solve-time ``budget`` is a hard wall-clock deadline in seconds: the
    enumeration stops at the deadline and returns the exact best of the
    layouts it scored, marked degraded.  ``max_layouts`` remains the
    constructor-level guard on enumeration size.  ``checkpoint_path``
    persists (and resumes) the parallel engine's search progress so an
    interrupted ``workers > 1`` enumeration restarts from its last
    completed shard.
    """

    name = "es"

    def __init__(
        self,
        objects: Optional[Sequence[DatabaseObject]] = None,
        per_group: bool = False,
        pinned_objects: Sequence[DatabaseObject] = (),
        pinned_class: Optional[str] = None,
        max_layouts: int = 500_000,
        batch: bool = True,
        workers: int = 1,
        deadline_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        fault_plan=None,
        checkpoint_path=None,
    ):
        self.objects = list(objects) if objects is not None else None
        self.per_group = per_group
        self.pinned_objects = list(pinned_objects)
        self.pinned_class = pinned_class
        self.max_layouts = max_layouts
        self.batch = batch
        self.workers = workers
        self.deadline_s = deadline_s
        self.retry_backoff_s = retry_backoff_s
        self.shard_timeout_s = shard_timeout_s
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path

    def search(self, context: EvaluationContext, budget: Optional[float] = None) -> ExhaustiveSearch:
        """The underlying search this solver drives for ``context``."""
        return ExhaustiveSearch(
            self.objects if self.objects is not None else context.objects,
            context.system,
            context.estimator,
            constraint=context.constraint,
            max_layouts=self.max_layouts,
            per_group=self.per_group,
            cost_override=context.cost_override,
            pinned_objects=self.pinned_objects,
            pinned_class=self.pinned_class,
            batch=self.batch,
            estimate_cache=context.estimate_cache,
            workers=self.workers,
            deadline_s=budget if budget is not None else self.deadline_s,
            retry_backoff_s=self.retry_backoff_s,
            shard_timeout_s=self.shard_timeout_s,
            fault_plan=self.fault_plan,
            checkpoint_path=self.checkpoint_path,
        )

    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        search = self.search(context, budget)
        result = search.search(context.workload)
        batch_stats = search.last_batch_stats
        stats = SolveStats(
            elapsed_s=result.elapsed_s,
            build_s=batch_stats.build_s if batch_stats is not None else 0.0,
            evaluated_layouts=result.evaluated_layouts,
            pruned_layouts=batch_stats.pruned_layouts if batch_stats is not None else 0,
            workers=batch_stats.workers if batch_stats is not None else 0,
            batch=batch_stats,
            degraded=result.timed_out,
            incidents=list(result.incidents),
            deadline_s=budget if budget is not None else self.deadline_s,
        )
        return SolveResult(
            solver=self.name,
            layout=result.layout,
            toc_report=result.toc_report,
            feasible=result.feasible,
            stats=stats,
            psr=_psr_for(context, result.toc_report),
            raw=result,
        )


@instrument_solver
class MILPSolver:
    """The exact MILP relaxation (Section 5 reference) behind the protocol.

    The MILP minimises layout cost under an aggregate I/O-time budget.  When
    ``io_time_budget_ms`` is not given it is derived the way the ablation
    study does: the all-most-expensive layout's profiled I/O time divided by
    the context's relative SLA ratio.  The solve-time ``budget`` overrides
    the MILP's wall-clock ``time_limit_s``.
    """

    name = "milp"

    def __init__(
        self,
        io_time_budget_ms: Optional[float] = None,
        time_limit_s: Optional[float] = 60.0,
    ):
        self.io_time_budget_ms = io_time_budget_ms
        self.time_limit_s = time_limit_s

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
        milp = MILPPlacement(context.objects, context.system)
        result = milp.solve(
            context.get_profiles(),
            io_time_budget_ms=self.resolve_budget_ms(context),
            time_limit_s=budget if budget is not None else self.time_limit_s,
        )
        toc_report = (
            context.evaluate(result.layout) if result.layout is not None else None
        )
        limit = budget if budget is not None else self.time_limit_s
        stats = SolveStats(
            elapsed_s=result.elapsed_s,
            variables=result.variables,
            degraded=result.timed_out,
            incidents=(
                [f"milp stopped at its {limit}s time limit "
                 f"(status: {result.status})"]
                if result.timed_out else []
            ),
            deadline_s=limit,
        )
        return SolveResult(
            solver=self.name,
            layout=result.layout,
            toc_report=toc_report,
            feasible=result.feasible,
            stats=stats,
            psr=_psr_for(context, toc_report),
            raw=result,
        )


@instrument_solver
class ObjectAdvisorSolver:
    """The Object Advisor baseline (Canim et al. [10]) behind the protocol.

    OA maximises performance within capacity budgets and never consults the
    SLA, so ``feasible`` reports whether its layout *happens* to satisfy the
    context constraint (estimate mode) -- the property the paper's
    comparisons measure it by.  A layout is always produced.
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
        advisor = ObjectAdvisor(context.objects, context.system, context.estimator)
        result = advisor.recommend(context.workload, budgets_gb=self.budgets_gb)
        toc_report = context.evaluate(result.layout)
        check = context.checker().check(result.layout, toc_report.run_result)
        # OA is one closed-form greedy pass with no interruption point, so
        # the deadline can only be audited after the fact.
        overran = budget is not None and result.elapsed_s > budget
        stats = SolveStats(
            elapsed_s=result.elapsed_s,
            evaluated_layouts=1,
            degraded=overran,
            incidents=(
                [f"oa pass overran its {budget}s deadline "
                 f"({result.elapsed_s:.3f}s elapsed)"]
                if overran else []
            ),
            deadline_s=budget,
        )
        return SolveResult(
            solver=self.name,
            layout=result.layout,
            toc_report=toc_report,
            feasible=check.feasible,
            stats=stats,
            psr=_psr_for(context, toc_report),
            raw=result,
        )


# ---------------------------------------------------------------------------
# The fallback chain
# ---------------------------------------------------------------------------

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
                    raw=result.raw,
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
            psr=_psr_for(context, toc_report),
            raw=None,
        )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

SOLVERS: Dict[str, Type] = {
    DOTSolver.name: DOTSolver,
    ExhaustiveSolver.name: ExhaustiveSolver,
    MILPSolver.name: MILPSolver,
    ObjectAdvisorSolver.name: ObjectAdvisorSolver,
    FallbackSolver.name: FallbackSolver,
}


def register_solver(cls: Type) -> Type:
    """Register a solver class under its ``name`` (usable as a decorator)."""
    name = getattr(cls, "name", None)
    if not name:
        raise ConfigurationError("a solver class must define a non-empty `name`")
    SOLVERS[name] = cls
    return cls


def solver_names() -> tuple:
    """The registered solver names, sorted."""
    return tuple(sorted(SOLVERS))


def get_solver(name: str, **options) -> Solver:
    """Instantiate a registered solver by name with solver-specific options."""
    try:
        cls = SOLVERS[name]
    except KeyError:
        known = ", ".join(solver_names())
        raise ConfigurationError(f"unknown solver {name!r} (known: {known})") from None
    return cls(**options)


__all__ = [
    "Solver",
    "SolveResult",
    "SolveStats",
    "DOTSolver",
    "ExhaustiveSolver",
    "FallbackSolver",
    "MILPSolver",
    "ObjectAdvisorSolver",
    "SOLVERS",
    "register_solver",
    "solver_names",
    "get_solver",
]
