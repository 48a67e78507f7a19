"""The epoch-driven online re-provisioning controller.

:class:`OnlineAdvisor` turns the one-shot Figure 2 pipeline into a loop.
Each epoch it

1. **observes** the epoch's workload on the currently deployed layout
   (optimizer estimates standing in for live telemetry) and feeds the
   per-object I/O counts to the :class:`~repro.online.monitor.TelemetryMonitor`;
2. **detects drift** against the telemetry of the last provisioning -- and,
   with a :class:`~repro.online.monitor.TrendPredictor` configured,
   *anticipates* it: when the telemetry window's extrapolated I/O-share
   trend crosses the drift thresholds within the prediction horizon, the
   loop re-tiers before the ramp or flash crowd peaks;
3. on (actual or predicted) drift, **re-profiles and re-solves** through the
   uniform :class:`~repro.core.solver.Solver` interface (DOT by default),
   *warm-started from the deployed layout*.  Re-profiling is
   **telemetry-driven**: the epoch's
   :class:`~repro.core.profiles.WorkloadProfileSet` is built from the
   monitor's *observed* (or, on a predictive trigger, *projected*)
   per-object I/O counts -- the estimator-replay profiling of the paper's
   refinement-phase shortcut only runs at the cold initial provisioning (or
   when ``profile_source="estimator"`` is forced).  Each epoch builds one
   :class:`~repro.core.context.EvaluationContext` per pure component, and
   every per-(query, signature) estimate -- the SLA's reference layout
   included -- is shared across epochs through the per-concurrency
   :class:`~repro.core.batch_eval.QueryEstimateCache` instances the contexts
   are built on: an unchanged query on an unchanged placement is never
   re-estimated, which is what makes running the advisor every epoch
   affordable.  Every layout an epoch scores is priced through
   :meth:`~repro.core.context.EvaluationContext.estimate` with
   ``collect_io=True``, the cached path that also yields the per-object I/O
   counts the monitor reads;
4. prices the layout transition with the analytic
   :class:`~repro.online.migration.MigrationCostModel` and only
   **re-tiers** when the
   :class:`~repro.online.migration.ReProvisioningPolicy` projects the TOC
   savings to amortise the migration within its horizon;
5. records a timeline entry: the deployed layout, its TOC and PSR for the
   epoch, any migration performed and the cumulative migration-aware cost.

Cross-kind drift (an OLTP phase crossfading into a DSS phase) produces
:class:`~repro.workloads.workload.CrossKindWorkload` epochs; the loop
evaluates each component with its own kind's machinery (estimate caches are
keyed by concurrency) and blends the TOC metrics by the phase weights --
the epoch's cost index is ``sum_i w_i * TOC_i`` and its PSR the same convex
combination of the per-component PSRs.

The controller's cumulative cost is directly comparable to
:meth:`OnlineAdvisor.evaluate_frozen`, which replays the same epochs on a
fixed layout -- the "provision once, never adapt" baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.batch_eval import QueryEstimateCache
from repro.core.context import EvaluationContext
from repro.core.layout import Layout
from repro.core.solver import DOTSolver, Solver, SolveResult
from repro.core.profiles import WorkloadProfileSet
from repro.core.toc import TOCReport
from repro.dbms.plan import merge_io_counts, scale_io_counts
from repro.objects import DatabaseObject
from repro.obs import instrument as obs_instrument
from repro.obs import trace as obs_trace
from repro.online.drift import EpochWorkload
from repro.online.migration import (
    MigrationCost,
    MigrationCostModel,
    MigrationPlan,
    ReProvisioningPolicy,
)
from repro.online.monitor import (
    DriftDecision,
    DriftThresholds,
    OutlierPolicy,
    PredictionDecision,
    TelemetryMonitor,
    TrendPredictor,
)
from repro.resilience.faults import FaultInjector
from repro.sla.constraints import PerformanceConstraint, RelativeSLA
from repro.storage.storage_class import StorageSystem
from repro.workloads.workload import Workload

#: Retries of a failed migration assessment before the epoch
#: holds the deployed layout and re-arms for the next epoch.
MIGRATION_MAX_RETRIES = 2


@dataclass
class EpochRecord:
    """One row of the online advisor's timeline."""

    epoch: int
    workload_name: str
    phase_weights: Tuple[float, ...]
    layout: Layout
    toc_cents: float
    psr: float
    drift: DriftDecision
    reoptimized: bool
    migrated: bool
    migration: Optional[MigrationCost]
    migration_reason: str
    epoch_cost_cents: float
    cumulative_cost_cents: float
    #: Uniform solver outcome of the epoch's re-optimization (``None`` when
    #: no drift triggered one); a DOT solve keeps its move history in
    #: ``dot_result.stats.moves``.
    dot_result: Optional[SolveResult] = field(default=None, repr=False)
    report: Optional[TOCReport] = field(default=None, repr=False)
    #: True when the epoch's re-optimization was triggered by the trend
    #: predictor rather than by observed drift.
    predicted: bool = False
    #: The predictor's decision for the epoch (``None`` when no predictor is
    #: configured or observed drift pre-empted the forecast).
    forecast: Optional[PredictionDecision] = field(default=None, repr=False)
    #: Recovery actions the epoch took (telemetry gaps, outlier clamps,
    #: degraded or failed re-tier solves, migration retries).  Empty on a
    #: fault-free epoch; the loop records faults here instead of raising.
    incidents: Tuple[str, ...] = ()


@dataclass
class OnlineRunResult:
    """The full timeline of one online re-provisioning run."""

    records: List[EpochRecord]
    #: Aggregate estimate-cache statistics of the run (all concurrencies
    #: pooled); the telemetry-vs-estimator profiling regression tests pin
    #: their expectations on these counters.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def num_epochs(self) -> int:
        """Number of epochs the run covered."""
        return len(self.records)

    @property
    def cumulative_cost_cents(self) -> float:
        """Total TOC plus migration charges over the whole run."""
        if not self.records:
            return 0.0
        return self.records[-1].cumulative_cost_cents

    @property
    def total_migration_cents(self) -> float:
        """Total migration charges over the run."""
        return sum(
            record.migration.cost_cents
            for record in self.records
            if record.migrated and record.migration is not None
        )

    @property
    def retier_epochs(self) -> Tuple[int, ...]:
        """Epochs at which a charged migration re-tiered the deployed layout.

        The initial provisioning (first record, ``migration is None``) is
        not a re-tier, whatever its epoch label.
        """
        return tuple(
            record.epoch
            for record in self.records
            if record.migrated and record.migration is not None
        )

    @property
    def predicted_retier_epochs(self) -> Tuple[int, ...]:
        """The subset of re-tier epochs triggered by the trend predictor."""
        return tuple(
            record.epoch
            for record in self.records
            if record.migrated and record.migration is not None and record.predicted
        )

    @property
    def min_psr(self) -> float:
        """The worst per-epoch PSR of the run."""
        return min((record.psr for record in self.records), default=1.0)

    def describe(self) -> str:
        """Render the timeline as a fixed-width text table."""
        from repro.experiments.reporting import format_table

        rows = []
        for record in self.records:
            weights = "/".join(f"{weight * 100:.0f}" for weight in record.phase_weights)
            migration_gb = (
                record.migration.bytes_moved_gb
                if record.migrated and record.migration is not None
                else 0.0
            )
            migration_cents = (
                record.migration.cost_cents
                if record.migrated and record.migration is not None
                else 0.0
            )
            retier = "no"
            if record.migrated:
                retier = "pred" if record.predicted else "yes"
            rows.append(
                [
                    record.epoch,
                    weights,
                    record.layout.name,
                    record.toc_cents,
                    round(record.psr * 100.0, 1),
                    f"{record.drift.share_distance:.3f}",
                    retier,
                    migration_gb,
                    migration_cents,
                    record.cumulative_cost_cents,
                ]
            )
        return format_table(
            [
                "Epoch", "Mix (%)", "Layout", "TOC (cents)", "PSR (%)",
                "Drift", "Re-tier", "Moved (GB)", "Mig. cost (c)", "Cum. cost (c)",
            ],
            rows,
        )


@dataclass
class FrozenEpochRecord:
    """One epoch of the frozen-layout baseline replay."""

    epoch: int
    workload_name: str
    toc_cents: float
    psr: float
    cumulative_cost_cents: float


@dataclass
class FrozenRunResult:
    """The frozen-layout baseline: the same epochs on one fixed layout."""

    layout: Layout
    records: List[FrozenEpochRecord]

    @property
    def cumulative_cost_cents(self) -> float:
        """Total TOC of the fixed layout over the whole run."""
        if not self.records:
            return 0.0
        return self.records[-1].cumulative_cost_cents

    @property
    def min_psr(self) -> float:
        """The worst per-epoch PSR of the replay."""
        return min((record.psr for record in self.records), default=1.0)


class _BlendedRunResult:
    """The merged observation of a cross-kind epoch (duck-typed run result).

    Carries exactly what the telemetry monitor reads: the weight-blended
    per-object I/O counts of the component evaluations.
    """

    __slots__ = ("workload_name", "io_by_object")

    def __init__(self, workload_name: str):
        self.workload_name = workload_name
        self.io_by_object: Dict[str, Dict[object, float]] = {}

    def fold(self, run_result, weight: float) -> None:
        merge_io_counts(
            self.io_by_object, scale_io_counts(run_result.io_by_object, weight)
        )


class _GlitchedRunResult:
    """An epoch observation as reported by a glitching I/O counter.

    Carries the true run result's counts scaled by the injected outlier
    factor -- only what the telemetry monitor reads (``workload_name`` and
    ``io_by_object``); the epoch's accounting never sees it.
    """

    __slots__ = ("workload_name", "io_by_object")

    def __init__(self, run_result, factor: float):
        self.workload_name = run_result.workload_name
        self.io_by_object = scale_io_counts(run_result.io_by_object, factor)


@dataclass
class _EpochEvaluation:
    """One layout scored against one (possibly cross-kind) epoch workload."""

    report: TOCReport
    psr: float

    @property
    def toc_cents(self) -> float:
        return self.report.toc_cents

    @property
    def run_result(self):
        return self.report.run_result


class OnlineAdvisor:
    """Epoch-driven re-provisioning on top of the DOT pipeline.

    Every epoch is accounted with deterministic optimizer estimates.  Epoch
    0 provisions cold from the all-most-expensive reference layout, free of
    migration charges, so the online run and the frozen baseline start from
    the same initial provisioning.  Migrations are priced by a
    :class:`~repro.online.migration.MigrationCostModel` over ``system``.

    Parameters
    ----------
    objects / system / estimator:
        As for :class:`~repro.core.advisor.ProvisioningAdvisor`.
    sla:
        A :class:`~repro.sla.constraints.RelativeSLA` re-resolved against
        the best-performing reference layout *per epoch* (the caps track
        the drifting workload), or an absolute constraint applied as-is,
        or ``None``.  Pure epochs apply the SLA exactly as declared
        (metric included -- the PR-4 behaviour); on *cross-kind* epochs a
        relative SLA's metric follows each component's kind -- response-time
        caps for DSS, a throughput floor for OLTP (the paper's binding) --
        which is what lets one SLA govern both sides of an OLTP<->DSS
        drift.
    thresholds:
        Drift sensitivities for the telemetry monitor.
    policy:
        The migration amortization policy.
    solver:
        The :class:`~repro.core.solver.Solver` the loop re-tiers through
        (default: a :class:`~repro.core.solver.DOTSolver`).  Every epoch
        builds one :class:`~repro.core.context.EvaluationContext` per pure
        component of its workload, and a re-optimization calls
        ``solver.solve(context, initial_layout=deployed)`` on the dominant
        component's context, so any protocol-conforming solver can drive the
        loop.
    profile_source:
        ``"telemetry"`` (default) builds each re-tier's workload profiles
        from the monitor's observed per-object I/O counts (the estimator
        replay only runs at the cold initial provisioning and on telemetry
        dropouts);
        ``"estimator"`` forces the paper's refinement-phase shortcut of
        re-profiling every drifted epoch through the optimizer's ``M^K``
        baseline enumeration.
    predictor:
        An optional :class:`~repro.online.monitor.TrendPredictor`; when
        set, epochs whose *extrapolated* telemetry crosses the drift
        thresholds re-optimize before the drift materialises (against the
        projected profile), still gated by the amortization ``policy``.
        Requires telemetry (it is independent of ``profile_source`` only in
        that the cold start still profiles through the estimator).
    retier_on_sla_violation:
        When True, an epoch whose observed PSR drops below 1.0 re-optimizes
        even if the telemetry drift axes stayed inside their thresholds (the
        paper's refinement phase reacts to SLA violations the same way).
        Off by default: the drift-only loop is the regression-locked legacy
        behaviour.
    fault_injector:
        An optional :class:`~repro.resilience.faults.FaultInjector` whose
        epoch-scoped faults (telemetry dropout/outlier, solver error/overrun,
        migration failure) are fired at the loop's injection points.  The
        loop *never raises* on an injected (or organic) epoch fault: it
        degrades along a declared path -- hold the last observation, hold the
        deployed layout, skip the migration -- and records what happened in
        ``EpochRecord.incidents``.
    retier_budget_s:
        An optional hard wall-clock deadline (seconds) handed to every
        re-tier ``solver.solve`` call as its ``budget``.  A solve that blows
        it returns a degraded-but-feasible result (recorded as an incident)
        rather than stalling the loop.
    outlier_policy:
        Forwarded to the :class:`~repro.online.monitor.TelemetryMonitor`:
        an optional MAD clamp on physically implausible telemetry epochs.
    """

    def __init__(
        self,
        objects: Sequence[DatabaseObject],
        system: StorageSystem,
        estimator,
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]] = None,
        thresholds: Optional[DriftThresholds] = None,
        policy: Optional[ReProvisioningPolicy] = None,
        solver: Optional[Solver] = None,
        profile_source: str = "telemetry",
        predictor: Optional[TrendPredictor] = None,
        retier_on_sla_violation: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        retier_budget_s: Optional[float] = None,
        outlier_policy: Optional[OutlierPolicy] = None,
    ):
        if profile_source not in ("telemetry", "estimator"):
            raise ValueError(f"unknown profile source {profile_source!r}")
        self.objects = list(objects)
        self.system = system
        self.estimator = estimator
        self.sla = sla
        self.thresholds = thresholds or DriftThresholds()
        self.policy = policy or ReProvisioningPolicy()
        self.migration_model = MigrationCostModel(system)
        self.solver = solver or DOTSolver()
        self.profile_source = profile_source
        self.predictor = predictor
        self.retier_on_sla_violation = retier_on_sla_violation
        self.fault_injector = fault_injector
        self.retier_budget_s = retier_budget_s
        self.outlier_policy = outlier_policy

    # ------------------------------------------------------------------
    def _cache_for(self, caches: Dict[int, QueryEstimateCache], workload) -> QueryEstimateCache:
        """The shared estimate cache for a workload's concurrency."""
        concurrency = getattr(workload, "concurrency", 1)
        cache = caches.get(concurrency)
        if cache is None:
            cache = QueryEstimateCache(self.estimator, concurrency)
            caches[concurrency] = cache
        return cache

    def _component_sla(self, workload) -> Optional[Union[RelativeSLA, PerformanceConstraint]]:
        """The SLA as it applies to one pure component of a mixed epoch.

        A relative SLA's metric follows the component's kind (response time
        for DSS, throughput for OLTP); absolute constraints and ``None``
        pass through unchanged.
        """
        if not isinstance(self.sla, RelativeSLA):
            return self.sla
        metric = "throughput" if getattr(workload, "is_oltp", False) else "response_time"
        if metric == self.sla.metric:
            return self.sla
        return RelativeSLA(self.sla.ratio, metric=metric)

    def _contexts(self, workload, caches: Dict[int, QueryEstimateCache]
                  ) -> List[Tuple[EvaluationContext, float]]:
        """One evaluation context per pure component of an epoch, with its weight.

        Each context shares the loop's estimate cache for its concurrency and
        resolves a relative SLA against the estimated reference layout, so
        the caps track the drifting workload epoch by epoch.  Components of
        a *mixed* (cross-kind) epoch are held to the SLA metric of their
        kind; a pure epoch applies the SLA exactly as declared.
        """
        mixed = getattr(workload, "kind", "dss") == "mixed"
        components = list(workload.components) if mixed else [(workload, 1.0)]
        return [
            (
                EvaluationContext.build(
                    self.objects, self.system, self.estimator, component,
                    sla=self._component_sla(component) if mixed else self.sla,
                    estimate_cache=self._cache_for(caches, component),
                ),
                weight,
            )
            for component, weight in components
        ]

    @staticmethod
    def _as_epoch(item: Union[EpochWorkload, Workload], position: int) -> EpochWorkload:
        if isinstance(item, EpochWorkload):
            return item
        return EpochWorkload(epoch=position, weights=(1.0,), workload=item)

    # ------------------------------------------------------------------
    # Epoch evaluation (pure and cross-kind)
    # ------------------------------------------------------------------
    def _evaluate_epoch(
        self,
        layout: Layout,
        workload,
        contexts: List[Tuple[EvaluationContext, float]],
    ) -> _EpochEvaluation:
        """Score one layout against one epoch, blending across kinds.

        Pure epochs reduce to the single component's own TOC report and PSR
        (bit for bit what the one-workload loop computed); cross-kind epochs
        evaluate every component with its own kind's machinery and blend TOC
        and PSR by the phase weights.
        """
        if len(contexts) == 1:
            context = contexts[0][0]
            report = context.estimate(layout, collect_io=True)
            return _EpochEvaluation(report=report, psr=context.psr(report))

        blended = _BlendedRunResult(getattr(workload, "name", "workload"))
        toc_cents = 0.0
        psr = 0.0
        for context, weight in contexts:
            report = context.estimate(layout, collect_io=True)
            toc_cents += weight * report.toc_cents
            psr += weight * context.psr(report)
            blended.fold(report.run_result, weight)
        report = TOCReport(
            layout_name=layout.name,
            workload_name=blended.workload_name,
            metric="cents_blended",
            layout_cost_cents_per_hour=contexts[0][0].toc_model.layout_cost(layout),
            execution_time_s=None,
            throughput_tasks_per_hour=None,
            transactions_per_minute=None,
            toc_cents=toc_cents,
            run_result=blended,
        )
        return _EpochEvaluation(report=report, psr=psr)

    # ------------------------------------------------------------------
    # Migration pricing
    # ------------------------------------------------------------------
    def _assess_migration_with_retry(
        self,
        epoch: int,
        plan: MigrationPlan,
        candidate: Layout,
        incidents: List[str],
    ) -> Optional[MigrationCost]:
        """Price one migration with bounded retries.

        Each attempt first consults the fault injector (an injected
        ``migration_failure`` fails its first ``spec.attempts`` attempts),
        then runs the real assessment.  Every failed attempt is recorded;
        ``None`` after ``MIGRATION_MAX_RETRIES + 1`` failures tells the loop
        to hold the deployed layout for this epoch.
        """
        attempts = MIGRATION_MAX_RETRIES + 1
        for attempt in range(attempts):
            try:
                if (self.fault_injector is not None
                        and self.fault_injector.migration_fault(epoch, attempt)):
                    raise RuntimeError(
                        f"injected migration failure (attempt {attempt})"
                    )
                return self.migration_model.assess(
                    plan, layout_cost_cents_per_hour=candidate.storage_cost_cents_per_hour()
                )
            except Exception as exc:
                incidents.append(
                    f"epoch {epoch}: migration attempt {attempt + 1}/{attempts} "
                    f"failed ({exc})"
                )
        incidents.append(
            f"epoch {epoch}: migration abandoned after {attempts} attempts; "
            "holding deployed layout"
        )
        return None

    # ------------------------------------------------------------------
    def run(self, epoch_workloads: Iterable[Union[EpochWorkload, Workload]]) -> OnlineRunResult:
        """Drive the re-provisioning loop over a sequence of epoch workloads.

        The loop is observed as one ``online.run`` span with one
        ``online.epoch`` child per epoch (epoch incidents become span
        events, nested re-tier solves hang their own ``solve:*`` subtrees
        off the epoch) and -- when recording is active and this is the
        outermost observation scope -- persists one run record to the
        store, whose stats are this run's summary (:meth:`_run_stats`).
        All of it is inert (no-op spans) unless tracing/recording were
        switched on.
        """
        with obs_instrument.Scope("online", "online.run",
                                  solver=self.solver.name) as run:
            result = self._run_loop(epoch_workloads, obs_trace.get_tracer())
            run.span.set(epochs=result.num_epochs,
                         cumulative_cost_cents=result.cumulative_cost_cents,
                         min_psr=result.min_psr if result.records else None)
        run.record(self.solver.name, lambda: self._run_stats(result))
        return result

    @staticmethod
    def _run_stats(result: OnlineRunResult) -> Dict[str, object]:
        """The run-record payload of one online run."""
        return {
            "num_epochs": result.num_epochs,
            "cumulative_cost_cents": result.cumulative_cost_cents,
            "total_migration_cents": result.total_migration_cents,
            "retier_epochs": list(result.retier_epochs),
            "predicted_retier_epochs": list(result.predicted_retier_epochs),
            "min_psr": result.min_psr if result.records else None,
            "sla_violations": sum(1 for r in result.records if r.psr < 1.0),
            "incidents": sum(len(r.incidents) for r in result.records),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        }

    def _run_loop(self, epoch_workloads: Iterable[Union[EpochWorkload, Workload]],
                  tracer) -> OnlineRunResult:
        loop = OnlineLoop(self, tracer=tracer)
        for item in epoch_workloads:
            loop.step(item)
        return loop.result()

    # ------------------------------------------------------------------
    def _candidate_toc(
        self,
        candidate: Layout,
        workload,
        contexts: List[Tuple[EvaluationContext, float]],
        dot_result: SolveResult,
    ) -> float:
        """The candidate layout's epoch TOC for the amortization gate.

        Pure epochs reuse the solver's own report (bit for bit the legacy
        gate input); cross-kind epochs blend the candidate's per-component
        TOCs, since the solver only scored the dominant component.
        """
        if len(contexts) == 1:
            return dot_result.toc_cents
        return self._evaluate_epoch(candidate, workload, contexts).toc_cents

    # ------------------------------------------------------------------
    def _rebase_monitor(self, monitor: TelemetryMonitor, epoch: int, layout: Layout,
                        workload, contexts: List[Tuple[EvaluationContext, float]]
                        ) -> _EpochEvaluation:
        """Point the drift reference at the new layout's own telemetry.

        I/O counts depend on the layout (a re-tier can flip plans), so the
        reference must be what the monitor will see for an *unchanged*
        workload under the *new* layout -- otherwise every epoch after a
        re-tier scores phantom drift and re-optimizes for nothing.  Returns
        the new layout's evaluation so the caller can account the epoch
        from it.
        """
        refreshed = self._evaluate_epoch(layout, workload, contexts)
        monitor.mark_reprovisioned(epoch, refreshed.run_result)
        return refreshed

    # ------------------------------------------------------------------
    def _reprofile(
        self,
        monitor: TelemetryMonitor,
        lead: EvaluationContext,
        fresh_telemetry: bool,
        forecast: Optional[PredictionDecision],
    ) -> WorkloadProfileSet:
        """The workload profiles a re-optimization consumes.

        * **Predictive trigger** -- the trend predictor's *projected*
          per-object counts, so DOT's move ordering anticipates where the
          I/O is heading rather than where it was.
        * **Telemetry (warm)** -- the monitor's observed counts of this
          epoch.  No estimator call and *no estimate-cache warm-up* happens
          here: the single-pattern profile set is a pure re-labelling of
          telemetry the loop already paid for (the regression tests pin the
          cache-stats counters on this).
        * **Cold start, telemetry dropout, ``profile_source="estimator"``**
          -- the paper's refinement-phase shortcut: the lead context profiles
          its workload through the optimizer's ``M^K`` baseline enumeration
          (shared estimate cache, so repeated epochs replay from the
          tables).  ``fresh_telemetry`` is False on the cold start and on a
          dropout epoch, whose telemetry never arrived: the monitor would
          only hold an earlier epoch's counts.
        """
        if forecast is not None and forecast.io_by_object:
            return monitor.profile_set_from_counts(
                forecast.io_by_object, concurrency=lead.concurrency
            )
        if fresh_telemetry and self.profile_source == "telemetry":
            return monitor.profile_set(concurrency=lead.concurrency)
        return lead.get_profiles()

    # ------------------------------------------------------------------
    def _reoptimize(
        self,
        lead: EvaluationContext,
        profiles: WorkloadProfileSet,
        warm_from: Optional[Layout],
        budget: Optional[float] = None,
    ) -> Tuple[SolveResult, Optional[Layout]]:
        """Re-solve against the given profiles, warm then (if infeasible) cold.

        The lead component's context -- sharing the loop's estimate cache,
        carrying the freshly re-profiled workload -- goes to the configured
        solver through the uniform ``solve`` protocol.  The warm solve
        starts from the deployed layout, which is cheap when the drift is
        small but -- for DOT -- can never return a group to the
        all-most-expensive placement; when it finds nothing feasible (e.g.
        the drift *tightened* the effective SLA), the cold restart explores
        from the fast end exactly as the paper's Procedure 1 does.
        """
        lead.profiles = profiles
        result = self.solver.solve(lead, initial_layout=warm_from, budget=budget)
        if not result.feasible and warm_from is not None:
            result = self.solver.solve(lead, budget=budget)
        return result, result.layout if result.feasible else None

    # ------------------------------------------------------------------
    def evaluate_frozen(
        self,
        epoch_workloads: Iterable[Union[EpochWorkload, Workload]],
        layout: Layout,
    ) -> FrozenRunResult:
        """Replay the same epochs on one fixed layout (no re-provisioning).

        This is the provision-once baseline the online run is compared
        against; it pays no migration charges but keeps serving a drifted
        workload with a stale layout.
        """
        records: List[FrozenEpochRecord] = []
        caches: Dict[int, QueryEstimateCache] = {}
        cumulative = 0.0
        for position, item in enumerate(epoch_workloads):
            epoch_item = self._as_epoch(item, position)
            workload = epoch_item.workload
            evaluation = self._evaluate_epoch(
                layout, workload, self._contexts(workload, caches)
            )
            cumulative += evaluation.toc_cents
            records.append(
                FrozenEpochRecord(
                    epoch=epoch_item.epoch,
                    workload_name=getattr(workload, "name", "workload"),
                    toc_cents=evaluation.toc_cents,
                    psr=evaluation.psr,
                    cumulative_cost_cents=cumulative,
                )
            )
        return FrozenRunResult(layout=layout, records=records)


class OnlineLoop:
    """The steppable state of one online re-provisioning run.

    :meth:`OnlineAdvisor.run` is a thin driver over this class: it feeds
    every epoch workload through :meth:`step` and returns :meth:`result`.
    Long-running callers -- the multi-tenant :mod:`repro.service` daemon
    foremost -- instead keep one ``OnlineLoop`` per tenant and advance it
    one epoch at a time as work is scheduled, interleaving many tenants'
    loops in a single process.  The loop carries exactly the state the old
    monolithic epoch ``for``-body kept in locals (timeline records, the
    per-concurrency estimate caches, the telemetry monitor, the deployed
    layout and the cumulative migration-aware cost), so driving it epoch by
    epoch is bitwise identical to one :meth:`OnlineAdvisor.run` call over
    the same epochs.
    """

    def __init__(self, advisor: "OnlineAdvisor", tracer=None):
        self.advisor = advisor
        self.tracer = tracer if tracer is not None else obs_trace.get_tracer()
        self.records: List[EpochRecord] = []
        self.caches: Dict[int, QueryEstimateCache] = {}
        self.monitor: Optional[TelemetryMonitor] = None
        self.current: Optional[Layout] = None
        self.cumulative = 0.0
        self._position = 0

    @property
    def deployed(self) -> Optional[Layout]:
        """The currently deployed layout (``None`` before the first step)."""
        return self.current

    @property
    def num_epochs(self) -> int:
        """Number of epochs stepped so far."""
        return len(self.records)

    def result(self) -> OnlineRunResult:
        """The timeline of the epochs stepped so far (snapshot, reusable)."""
        return OnlineRunResult(
            records=list(self.records),
            cache_hits=sum(cache.hits for cache in self.caches.values()),
            cache_misses=sum(cache.misses for cache in self.caches.values()),
        )

    def step(self, item: Union[EpochWorkload, Workload]) -> EpochRecord:
        """Advance the loop by one epoch and return its timeline record."""
        advisor = self.advisor
        tracer = self.tracer
        position = self._position
        self._position += 1

        epoch_span = tracer.start_span("online.epoch")
        epoch_item = advisor._as_epoch(item, position)
        epoch = epoch_item.epoch
        workload = epoch_item.workload
        epoch_span.set(epoch=epoch, workload=getattr(workload, "name", "workload"))
        contexts = advisor._contexts(workload, self.caches)
        if self.monitor is None:
            self.monitor = TelemetryMonitor(
                advisor.system,
                thresholds=advisor.thresholds,
                concurrency=getattr(workload, "concurrency", 1),
                outlier_policy=advisor.outlier_policy,
            )
        if self.current is None:
            self.current = contexts[0][0].reference_layout()
        monitor = self.monitor
        current = self.current

        # 1 + 2: observe the epoch on the deployed layout, score drift
        # (and, with a predictor, the extrapolated drift).  An injected
        # telemetry fault perturbs only what the *monitor* sees -- the
        # epoch's accounting stays on the true evaluation, exactly like a
        # flaky counter in front of a healthy system.
        incidents: List[str] = []
        injector = advisor.fault_injector
        observed = advisor._evaluate_epoch(current, workload, contexts)
        telemetry_spec = (
            injector.telemetry_fault(epoch) if injector is not None else None
        )
        dropout = (
            telemetry_spec is not None and telemetry_spec.kind == "telemetry_dropout"
        )
        if dropout:
            monitor.observe_gap(epoch)
            decision = DriftDecision(
                drifted=False,
                share_distance=0.0,
                volume_change=0.0,
                reason="telemetry dropout: no observation to score",
            )
        else:
            run_result = observed.run_result
            if telemetry_spec is not None:  # telemetry_outlier
                run_result = _GlitchedRunResult(run_result, telemetry_spec.factor)
            monitor.observe(epoch, run_result)
            decision = monitor.check_drift()
        initial_epoch = not self.records
        # Optional refinement-phase trigger: a deployed layout violating
        # the epoch's SLA caps is re-optimized even when the telemetry
        # axes stayed inside their thresholds (off by default -- the
        # drift-only loop is the regression-locked legacy behaviour).
        sla_trigger = (
            advisor.retier_on_sla_violation
            and not initial_epoch
            and not decision.drifted
            and not decision.in_cooldown
            and observed.psr < 1.0
        )
        if sla_trigger:
            decision = DriftDecision(
                drifted=decision.drifted,
                share_distance=decision.share_distance,
                volume_change=decision.volume_change,
                reason=f"SLA violation (PSR {observed.psr:.0%})",
            )
        forecast: Optional[PredictionDecision] = None
        if (advisor.predictor is not None and not initial_epoch
                and not decision.drifted and not sla_trigger):
            forecast = monitor.check_predicted_drift(advisor.predictor)
        predicted_trigger = forecast is not None and forecast.predicted

        # 3 + 4: on (predicted) drift or at initial provisioning,
        # re-optimize and gate the transition on the migration-aware TOC
        # comparison.
        reoptimized = False
        migrated = False
        migration: Optional[MigrationCost] = None
        migration_reason = "no drift"
        dot_result: Optional[SolveResult] = None
        retiered_eval: Optional[_EpochEvaluation] = None
        if initial_epoch or decision.drifted or predicted_trigger or sla_trigger:
            reoptimized = True
            candidate: Optional[Layout] = None
            solve_failed = False
            try:
                # The solver scores the dominant component of a mixed epoch:
                # the first of largest weight, as CrossKindWorkload picks it.
                lead = max(contexts, key=lambda pair: pair[1])[0]
                profiles = advisor._reprofile(
                    monitor, lead, not initial_epoch and not dropout,
                    forecast if predicted_trigger else None,
                )
                budget = advisor.retier_budget_s
                solver_spec = (
                    injector.solver_fault(epoch) if injector is not None else None
                )
                if solver_spec is not None:
                    if solver_spec.kind == "solver_error":
                        raise RuntimeError(
                            solver_spec.message
                            or f"injected solver error at epoch {epoch}"
                        )
                    # solver_overrun: a stalled queue eats into the solve's
                    # own deadline before the solver even starts.
                    if solver_spec.delay_s > 0.0:
                        time.sleep(solver_spec.delay_s)
                    if budget is not None:
                        budget = max(0.0, budget - solver_spec.delay_s)
                dot_result, candidate = advisor._reoptimize(
                    lead, profiles,
                    warm_from=None if initial_epoch else current,
                    budget=budget,
                )
                if dot_result.stats.degraded:
                    incidents.extend(dot_result.stats.incidents)
                    budget_note = (
                        f" (budget {budget:.3g} s)" if budget is not None else ""
                    )
                    incidents.append(
                        f"epoch {epoch}: re-tier solve degraded"
                        f"{budget_note}; using best-so-far layout"
                    )
            except Exception as exc:
                # The loop never raises: a failed or timed-out re-tier
                # holds the deployed layout and -- unlike a legitimately
                # infeasible solve -- does NOT rebase the drift reference,
                # so the same drift re-triggers a fresh attempt next epoch.
                solve_failed = True
                dot_result = None
                candidate = None
                incidents.append(
                    f"epoch {epoch}: re-tier solve failed ({exc}); "
                    "holding deployed layout"
                )
            if solve_failed:
                migration_reason = "re-tier solve failed; holding deployed layout"
            elif candidate is None or candidate == current:
                migration_reason = (
                    "no feasible layout" if candidate is None else "layout unchanged"
                )
                # The deployed layout was re-validated against the drifted
                # telemetry; rebase the reference (and arm the cooldown) so
                # the same drift does not trigger a futile re-optimization
                # every remaining epoch.
                monitor.mark_reprovisioned(epoch, observed.run_result)
            elif initial_epoch:
                current = candidate.renamed(f"DOT@epoch{epoch}")
                retiered_eval = advisor._rebase_monitor(
                    monitor, epoch, current, workload, contexts
                )
                migrated = True
                migration_reason = "initial provisioning (not charged)"
            else:
                plan = MigrationPlan.between(current, candidate)
                migration = advisor._assess_migration_with_retry(
                    epoch, plan, candidate, incidents
                )
                if migration is None:
                    # Bounded retries exhausted: hold the deployed layout
                    # (without rebasing the drift reference, so the still-
                    # drifted telemetry re-triggers next epoch).
                    migration_reason = (
                        "migration failed after retries; holding deployed layout"
                    )
                else:
                    candidate_toc = advisor._candidate_toc(
                        candidate, workload, contexts, dot_result
                    )
                    # Restoring SLA feasibility is a constraint, not a cost
                    # tradeoff: the amortization gate only prices re-tiers
                    # between feasible layouts.
                    if sla_trigger or advisor.policy.should_migrate(
                        observed.toc_cents, candidate_toc, migration.cost_cents
                    ):
                        current = candidate.renamed(f"DOT@epoch{epoch}")
                        retiered_eval = advisor._rebase_monitor(
                            monitor, epoch, current, workload, contexts
                        )
                        migrated = True
                        if sla_trigger:
                            migration_reason = (
                                f"restores SLA feasibility (PSR {observed.psr:.0%})"
                            )
                        else:
                            saving = advisor.policy.projected_net_saving_cents(
                                observed.toc_cents, candidate_toc, migration.cost_cents
                            )
                            migration_reason = (
                                f"{'anticipated' if predicted_trigger else 'projected'} "
                                f"net saving {saving:.4g} c"
                            )
                    else:
                        migration = None
                        migration_reason = "migration cost exceeds projected saving"

        # 5: account the epoch on the (possibly re-tiered) layout.  Its
        # report already exists -- `observed` when the layout did not
        # change, the rebase refresh when it did -- so nothing is
        # recomputed.
        final = retiered_eval if retiered_eval is not None else observed
        migration_charge = (
            migration.cost_cents if migrated and migration is not None else 0.0
        )
        epoch_cost = final.toc_cents + migration_charge
        self.cumulative += epoch_cost
        self.current = current
        incidents = monitor.drain_incidents() + incidents
        record = EpochRecord(
            epoch=epoch,
            workload_name=getattr(workload, "name", "workload"),
            phase_weights=tuple(epoch_item.weights),
            layout=current,
            toc_cents=final.toc_cents,
            psr=final.psr,
            drift=decision,
            reoptimized=reoptimized,
            migrated=migrated,
            migration=migration,
            migration_reason=migration_reason,
            epoch_cost_cents=epoch_cost,
            cumulative_cost_cents=self.cumulative,
            dot_result=dot_result,
            report=final.report,
            predicted=predicted_trigger,
            forecast=forecast,
            incidents=tuple(incidents),
        )
        self.records.append(record)
        for incident in incidents:
            epoch_span.event("incident", message=incident)
        tracer.end_span(
            epoch_span,
            toc_cents=final.toc_cents,
            psr=final.psr,
            reoptimized=reoptimized,
            migrated=migrated,
            epoch_cost_cents=epoch_cost,
        )
        return record
