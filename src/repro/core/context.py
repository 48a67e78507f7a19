"""The shared evaluation context of the placement solvers.

Every solver of the paper's optimization problem -- DOT's greedy walk, the
exhaustive search, the MILP relaxation and the Object Advisor baseline --
evaluates candidate layouts against the *same* five ingredients: the
placeable objects, a storage system, a workload, a workload estimator, and
an (optional) SLA constraint.  Before this module each solver received those
ingredients through its own constructor signature and re-implemented the
same plumbing around them: building a :class:`~repro.core.toc.TOCModel`,
resolving a relative SLA against the all-most-expensive reference layout,
profiling the workload over baseline layouts, sharing a
:class:`~repro.core.batch_eval.QueryEstimateCache`, and deciding whether the
vectorized batch evaluator applies or the scalar reference path must run.

:class:`EvaluationContext` owns all of that once.  The solver layer
(:mod:`repro.core.solver`) consumes contexts through the uniform
``Solver.solve(context)`` protocol, and the scenario registry
(:mod:`repro.scenarios`) builds them from named experiment configurations.

Estimate-mode pricing has one cached path: :meth:`EvaluationContext.estimate`
prices a layout from the context's estimate cache
(:meth:`~repro.core.batch_eval.QueryEstimateCache.run_result`), bitwise the
scalar :meth:`EvaluationContext.evaluate`.  DOT's walk, the online loop and
the SLA resolution use it.  The exhaustive search's scalar-vs-batch decision
lives in :func:`make_batch_evaluator`, which returns ``None`` when the
configuration cannot take the vectorized path; the search then runs its
scalar reference loop.

The solver protocol itself (:class:`Solver`) and its one result type
(:class:`SolveResult` / :class:`SolveStats`) live here too, beside the
context they consume, so each solver module can import them without a
cycle; :mod:`repro.core.solver` re-exports them with the four solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

from repro.core.batch_eval import (
    BatchEvalStats,
    BatchLayoutEvaluator,
    QueryEstimateCache,
    UnsupportedBatchEvaluation,
)
from repro.core.feasibility import FeasibilityChecker
from repro.core.layout import Layout
from repro.core.profiler import WorkloadProfiler
from repro.core.profiles import WorkloadProfileSet
from repro.core.toc import TOCModel, TOCReport
from repro.exceptions import InfeasibleLayoutError
from repro.objects import DatabaseObject
from repro.sla.constraints import PerformanceConstraint, RelativeSLA
from repro.sla.psr import performance_satisfaction_ratio
from repro.storage.storage_class import StorageSystem


# ---------------------------------------------------------------------------
# The exhaustive search's scalar-vs-batch decision
# ---------------------------------------------------------------------------

def make_batch_evaluator(
    variable_objects: Sequence[DatabaseObject],
    system: StorageSystem,
    estimator,
    workload,
    *,
    pinned: Sequence[Tuple[DatabaseObject, str]] = (),
    constraint: Optional[PerformanceConstraint] = None,
    cache: Optional[QueryEstimateCache] = None,
    toc_model: Optional[TOCModel] = None,
) -> Optional[BatchLayoutEvaluator]:
    """A :class:`BatchLayoutEvaluator`, or ``None`` for the scalar fallback.

    ``None`` signals a configuration the vectorized path cannot represent: a
    layout-cost override (``toc_model.vectorizable_layout_cost`` is false), a
    constraint type without a batch signature, or a workload kind the
    evaluator rejects.  Callers run the scalar reference path instead --
    results are identical either way.
    """
    if toc_model is not None and not toc_model.vectorizable_layout_cost:
        return None
    try:
        return BatchLayoutEvaluator(
            variable_objects,
            system,
            estimator,
            workload,
            pinned=pinned,
            constraint=constraint,
            cache=cache,
        )
    except UnsupportedBatchEvaluation:
        return None


# ---------------------------------------------------------------------------
# The context
# ---------------------------------------------------------------------------

@dataclass
class EvaluationContext:
    """Everything a solver needs to score layouts for one experiment.

    Instances are normally created through :meth:`build` (which resolves a
    relative SLA into an absolute constraint) or through the scenario
    registry's :meth:`~repro.scenarios.ScenarioBundle.context`.  The context
    owns the single :class:`~repro.core.batch_eval.QueryEstimateCache` every
    solver run against it shares, so a (query, touched-placement-signature)
    pair is estimated at most once across profiling, DOT's walk and the
    exhaustive enumeration -- exactly the sharing the figure drivers used to
    wire by hand.

    ``profiles`` is computed lazily on first use (DOT and the MILP need it,
    ES and the Object Advisor do not) and may be supplied eagerly, e.g. one
    test-run profile set shared by the per-SLA contexts of Figure 8.  A
    supplied ``estimate_cache`` must have been built for the context's
    estimator and workload concurrency
    (:class:`~repro.exceptions.ConfigurationError` otherwise).
    """

    objects: List[DatabaseObject]
    system: StorageSystem
    estimator: object
    workload: object
    constraint: Optional[PerformanceConstraint] = None
    #: The relative SLA the constraint was resolved from (``None`` when the
    #: constraint was given absolutely); solvers that need the ratio itself
    #: (the MILP's I/O-time budget) read it here.
    sla: Optional[RelativeSLA] = None
    cost_override: Optional[Callable[[Layout], float]] = None
    profile_mode: str = "estimate"
    #: Profile on the single all-most-expensive baseline only (the paper's
    #: pruned TPC-C profiling) instead of the full baseline enumeration.
    single_baseline_profile: bool = False
    profiles: Optional[WorkloadProfileSet] = None
    estimate_cache: Optional[QueryEstimateCache] = None
    toc_model: TOCModel = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.objects = list(self.objects)
        if self.toc_model is None:
            self.toc_model = TOCModel(self.estimator, cost_override=self.cost_override)
        if self.estimate_cache is None:
            self.estimate_cache = QueryEstimateCache(self.estimator, self.concurrency)
        self.estimate_cache.check_built_for(self.estimator, self.concurrency)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Sequence[DatabaseObject],
        system: StorageSystem,
        estimator,
        workload,
        *,
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]] = None,
        cost_override: Optional[Callable[[Layout], float]] = None,
        profile_mode: str = "estimate",
        single_baseline_profile: bool = False,
        profiles: Optional[WorkloadProfileSet] = None,
        estimate_cache: Optional[QueryEstimateCache] = None,
    ) -> "EvaluationContext":
        """Build a context, resolving a relative SLA into an absolute cap.

        The caps come from noise-free optimizer estimates of the reference
        layout, so a search compares estimates against estimates and
        building a context never advances the estimator's noise RNG.
        """
        context = cls(
            objects=list(objects),
            system=system,
            estimator=estimator,
            workload=workload,
            sla=sla if isinstance(sla, RelativeSLA) else None,
            cost_override=cost_override,
            profile_mode=profile_mode,
            single_baseline_profile=single_baseline_profile,
            profiles=profiles,
            estimate_cache=estimate_cache,
        )
        context.constraint = context.resolve_constraint(sla)
        return context

    # ------------------------------------------------------------------
    @property
    def concurrency(self) -> int:
        """The workload's concurrency (1 when it does not declare one)."""
        return getattr(self.workload, "concurrency", 1)

    def reference_layout(self) -> Layout:
        """The best-performing reference: everything on the priciest class."""
        return Layout.uniform(self.objects, self.system, self.system.most_expensive().name)

    def resolve_constraint(
        self,
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]],
        mode: str = "estimate",
    ) -> Optional[PerformanceConstraint]:
        """Resolve a relative SLA against the reference layout (or pass through).

        Estimate-mode caps come from the estimate cache, which reproduces
        the scalar estimate's per-query times and throughput bit for bit and
        keeps the reference's estimates for the profiler and the solvers.
        ``mode="run"`` resolves against a simulated run -- the caps the
        figures report PSR against -- and advances the estimator's noise RNG.
        """
        if sla is None or isinstance(sla, PerformanceConstraint):
            return sla
        reference = self.reference_layout()
        if mode == "estimate":
            return sla.resolve(
                self.estimate_cache.run_result(self.workload, reference.placement())
            )
        return sla.resolve(self.toc_model.evaluate(reference, self.workload, mode=mode).run_result)

    def checker(self) -> FeasibilityChecker:
        """A feasibility checker for the context's constraint."""
        return FeasibilityChecker(self.constraint)

    def evaluate(self, layout: Layout, mode: str = "estimate") -> TOCReport:
        """TOC report of one layout for the context's workload."""
        return self.toc_model.evaluate(layout, self.workload, mode=mode)

    def estimate(self, layout: Layout, collect_io: bool = False) -> TOCReport:
        """The estimate-mode TOC report of one layout, priced from the
        context's estimate cache.

        Bitwise the report of :meth:`evaluate`, except that a DSS run result
        carries its per-object I/O counts only with ``collect_io=True``
        (:meth:`~repro.core.batch_eval.QueryEstimateCache.run_result`).
        """
        result = self.estimate_cache.run_result(self.workload, layout.placement(), collect_io)
        return self.toc_model.report_from_result(layout, self.workload, result)

    def psr(self, report: Optional[TOCReport]) -> float:
        """PSR of a report against the constraint (1.0 without either)."""
        if report is None or self.constraint is None:
            return 1.0
        return performance_satisfaction_ratio(self.constraint, report.run_result)

    # ------------------------------------------------------------------
    def profiler(self) -> WorkloadProfiler:
        """A profiler over the context's objects sharing its estimate cache."""
        return WorkloadProfiler(
            self.objects, self.system, self.estimator, estimate_cache=self.estimate_cache
        )

    def get_profiles(self) -> WorkloadProfileSet:
        """The workload profiles, computed on first use and then cached."""
        if self.profiles is None:
            profiler = self.profiler()
            patterns = (
                [profiler.single_baseline_pattern()]
                if self.single_baseline_profile
                else None
            )
            self.profiles = profiler.profile(
                self.workload, mode=self.profile_mode, patterns=patterns
            )
        return self.profiles

    # ------------------------------------------------------------------
    def batch_evaluator(
        self,
        variable_objects: Optional[Sequence[DatabaseObject]] = None,
        pinned: Sequence[Tuple[DatabaseObject, str]] = (),
    ) -> Optional[BatchLayoutEvaluator]:
        """A batch evaluator over the context (``None`` -> scalar fallback)."""
        return make_batch_evaluator(
            self.objects if variable_objects is None else variable_objects,
            self.system,
            self.estimator,
            self.workload,
            pinned=pinned,
            constraint=self.constraint,
            cache=self.estimate_cache,
            toc_model=self.toc_model,
        )


# ---------------------------------------------------------------------------
# The solver protocol and its result type
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
    #: DOT: one :class:`~repro.core.dot.MoveTrace` per evaluated move.
    moves: list = field(default_factory=list, repr=False)
    #: Parallel ES: layouts never evaluated thanks to branch-and-bound.
    pruned_layouts: int = 0
    #: Batch ES: processes the enumeration scored on (1 in-process).
    workers: int = 0
    #: MILP: number of binary placement variables.
    variables: int = 0
    #: ES: the batch engine's accounting; ``None`` when the scalar path ran.
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
    """Outcome of one ``Solver.solve`` call, uniform across solvers."""

    solver: str
    layout: Optional[Layout]
    toc_report: Optional[TOCReport]
    feasible: bool
    stats: SolveStats
    #: PSR of the solution against the context constraint (estimate-mode run
    #: result); 1.0 when the context has no constraint or no layout exists.
    psr: float = 1.0

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
