"""Exhaustive search over all data layouts (the paper's ES baseline).

ES enumerates every assignment of objects to storage classes (``M^N``
layouts), evaluates each with the same TOC estimate and feasibility check DOT
uses, and returns the cheapest feasible layout.  The paper uses ES as the
quality yardstick in Sections 4.4.3 and 4.5.3, on reduced object sets because
the enumeration is exponential; this implementation enforces an explicit
layout budget for the same reason.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.context import EvaluationContext, SolveResult, SolveStats
from repro.core.layout import Layout
from repro.core.toc import TOCReport
from repro.exceptions import ConfigurationError, SolverTimeoutError
from repro.objects import DatabaseObject, group_objects
from repro.obs import trace
from repro.obs.instrument import instrument_solver


@instrument_solver
class ExhaustiveSolver:
    """Enumerates and evaluates every possible layout.

    Two execution paths return bitwise-identical results.  The batch path
    (default) runs the pruning
    :class:`~repro.core.parallel_search.ParallelEnumerationEngine`:
    in-process at ``workers=1`` or when little work survives its bounds,
    on a pool of up to ``workers`` processes otherwise.  The per-layout
    scalar loop (``batch=False``) is the test oracle and the automatic
    fallback for configurations the batch evaluator cannot vectorize (cost
    overrides, exotic constraint types).
    ``stats.batch`` is ``None`` exactly when the scalar path ran.

    The solve-time ``budget`` is a hard wall-clock deadline in seconds,
    taken when ``solve`` is entered, that both paths honour: the engine
    stops its warm-up, starts no shard or pool once it has passed and
    aborts with a partial result at the next chunk; the scalar loop stops
    at the next layout.  The result is then the exact best of what was
    enumerated (for the engine, at least the best feasible all-on-one-class
    layout), marked degraded.

    Parameters
    ----------
    objects:
        The enumerated objects (default: every context object); the search
        space is ``M^N`` over them.
    per_group:
        Enumerate placements group by group rather than object by object.
        The space is the same ``M^N``; only the enumeration order (and with
        it the floating-point accumulation order) differs.
    pinned_objects, pinned_class:
        Objects included in every candidate layout at a fixed class (default:
        the cheapest); used when the enumeration is restricted to the "hot"
        objects of a database whose remaining objects still need a placement
        for the workload to be estimable (the Figure 9 study).
    max_layouts:
        Hard limit on the number of enumerated layouts, at every worker
        count and on both paths: a larger space raises
        :class:`ConfigurationError` before anything runs, instead of
        silently running for hours.  Full-paper spaces (e.g. the TPC-C
        study's ``3^19``) need it raised explicitly.
    batch:
        Evaluate candidates through the vectorized
        :class:`~repro.core.batch_eval.BatchLayoutEvaluator` (default).
    workers:
        Most processes the engine scores the mixed-radix index range on; it
        also sets the shard geometry.  ``1`` runs the same sharded, pruned
        enumeration in-process, and so does a larger value when fewer than
        :data:`~repro.core.parallel_search.POOL_MIN_LAYOUTS` layouts
        survive the engine's bounds after its seed (the rule reads counts
        only, so one solve always takes one path).  ``stats.workers``
        reports the processes the enumeration used.  A worker that dies
        mid-shard is replaced and its shard retried, with an incident
        naming the exit code.
    fault_plan:
        Chaos-test :class:`~repro.resilience.FaultPlan` forwarded to the
        engine.
    checkpoint_path:
        Persist the engine's :class:`~repro.core.parallel_search.
        SearchProgress` to this file after every completed shard, and resume
        from it when the file already holds a valid checkpoint (a corrupt
        file is quarantined aside and the search starts over).  Works at any
        worker count; the scalar loop does not checkpoint.
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
        fault_plan=None,
        checkpoint_path=None,
    ):
        self.objects = list(objects) if objects is not None else None
        self.per_group = per_group
        self.pinned_objects = list(pinned_objects)
        self.pinned_class = pinned_class
        self.max_layouts = max_layouts
        self.batch = batch
        self.workers = max(1, int(workers))
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path

    # ------------------------------------------------------------------
    def _objects(self, context: EvaluationContext) -> List[DatabaseObject]:
        return self.objects if self.objects is not None else context.objects

    def _pinned_class(self, context: EvaluationContext) -> str:
        return self.pinned_class or context.system.cheapest().name

    def search_space_size(self, context: EvaluationContext) -> int:
        """Number of layouts the search would enumerate."""
        return len(context.system) ** len(self._objects(context))

    def _variable_objects(self, context: EvaluationContext) -> List[DatabaseObject]:
        """The enumerated objects in candidate-column order.

        Per-group enumeration is the product of per-group placement products,
        which flattens to a plain product over all members in group-by-group
        order -- so both modes reduce to one mixed-radix enumeration; only
        the column order differs (and with it the floating-point accumulation
        order the batch path must preserve).
        """
        objects = self._objects(context)
        if self.per_group:
            return [member for group in group_objects(objects) for member in group.members]
        return list(objects)

    def _layout(self, context: EvaluationContext, assignment, name: str) -> Layout:
        return Layout(self._objects(context) + self.pinned_objects, context.system,
                      assignment, name=name)

    # ------------------------------------------------------------------
    def solve(
        self,
        context: EvaluationContext,
        *,
        initial_layout: Optional[Layout] = None,
        budget: Optional[float] = None,
    ) -> SolveResult:
        """Enumerate all layouts and return the cheapest feasible one."""
        deadline = time.monotonic() + budget if budget is not None else None
        space = self.search_space_size(context)
        if space > self.max_layouts:
            raise ConfigurationError(
                f"exhaustive search space has {space} layouts, exceeding the limit "
                f"of {self.max_layouts}; reduce the object set or raise max_layouts"
            )
        if self.batch:
            result = self._solve_engine(context, budget, deadline)
            if result is not None:
                return result
        return self._solve_scalar(context, budget, deadline)

    def _result(self, context, layout, report, evaluated, elapsed, budget,
                timed_out=False, incidents=(), batch=None) -> SolveResult:
        stats = SolveStats(
            elapsed_s=elapsed,
            build_s=batch.build_s if batch is not None else 0.0,
            evaluated_layouts=evaluated,
            pruned_layouts=batch.pruned_layouts if batch is not None else 0,
            workers=batch.workers if batch is not None else 0,
            batch=batch,
            degraded=timed_out,
            incidents=list(incidents),
            deadline_s=budget,
        )
        return SolveResult(
            solver=self.name,
            layout=layout,
            toc_report=report,
            feasible=layout is not None,
            stats=stats,
            psr=context.psr(report),
        )

    @staticmethod
    def _deadline_incident(budget: float, evaluated: int) -> str:
        return (f"deadline of {budget}s expired after {evaluated} layouts; "
                "returning best-so-far")

    # ------------------------------------------------------------------
    def _solve_engine(self, context: EvaluationContext, budget: Optional[float],
                      deadline: Optional[float]) -> Optional[SolveResult]:
        """Sharded, pruned enumeration; None when the batch evaluator does
        not apply.

        The coordinator builds the evaluator (timed as build cost), and the
        engine warms it fully and scores the uniform seed (timed as warm-up
        cost), then enumerates in-process or, when enough layouts survive
        its bounds, hands the evaluator itself to its worker pool.  Reducing
        the shards' ``(TOC, enumeration index)`` bests reproduces the scalar
        loop's result bit for bit.
        """
        from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress

        tracer = trace.get_tracer()
        build_started = time.perf_counter()
        pinned_class = self._pinned_class(context)
        with trace.span("es.build") as span:
            evaluator = context.batch_evaluator(
                self._variable_objects(context),
                pinned=[(obj, pinned_class) for obj in self.pinned_objects],
            )
            if evaluator is None:
                span.set(vectorizable=False)
                return None
            evaluator.stats.build_s = time.perf_counter() - build_started
            span.set(build_s=evaluator.stats.build_s)

        warm_span = tracer.start_span("es.warm")
        warm_started = time.perf_counter()
        engine = ParallelEnumerationEngine(
            evaluator,
            workers=self.workers,
            deadline_s=None if deadline is None else max(0.0, deadline - time.monotonic()),
            fault_plan=self.fault_plan,
        )
        # Coordinator warm-up (the engine pre-estimates every signature and
        # scores the seed) is its own stats slice -- per-worker set-up
        # time (attach_s) arrives later through the shard outcomes; the
        # stats object is snapshotted before shard deltas replace it.
        stats = evaluator.stats
        stats.warm_s += time.perf_counter() - warm_started
        tracer.end_span(warm_span, build_s=stats.build_s, warm_s=stats.warm_s)

        span = tracer.start_span("es.enumerate", path="engine")
        started = time.perf_counter()
        timed_out = False
        resumed = (
            SearchProgress.load_or_quarantine(self.checkpoint_path)
            if self.checkpoint_path is not None
            else None
        )
        with engine:
            try:
                progress = engine.run(resumed, checkpoint_path=self.checkpoint_path)
            except SolverTimeoutError as exc:
                # Deadline abort: the partial progress travels with the
                # exception and its incumbent is the exact best of the seed
                # and the completed shards -- a degraded but honest result.
                if exc.progress is None:
                    raise
                progress = exc.progress
                timed_out = True
        stats.merge(progress.stats)
        stats.workers = engine.workers_used
        incidents = list(progress.incidents)
        if timed_out:
            incidents.insert(0, self._deadline_incident(budget, progress.evaluated))

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if progress.best_row is not None:
            row = np.array(progress.best_row, dtype=np.int64)
            best_layout = self._layout(context, evaluator.assignment_for_row(row), "ES")
            best_report = context.evaluate(best_layout)
        elapsed = time.perf_counter() - started
        result = self._result(context, best_layout, best_report, progress.evaluated, elapsed,
                              budget, timed_out, incidents, stats)
        tracer.end_span(span, evaluated=progress.evaluated, timed_out=timed_out,
                        shards=progress.total_shards, prefix_depth=engine.prefix_depth,
                        workers=engine.workers_used)
        return result

    # ------------------------------------------------------------------
    def _layouts(self, context: EvaluationContext):
        """Every candidate layout, in the engine's enumeration order."""
        all_objects = self._objects(context) + self.pinned_objects
        pinned_class = self._pinned_class(context)
        pinned_assignment = {obj.name: pinned_class for obj in self.pinned_objects}
        names = [obj.name for obj in self._variable_objects(context)]
        for combo in itertools.product(context.system.class_names, repeat=len(names)):
            assignment = dict(pinned_assignment)
            assignment.update(zip(names, combo))
            yield Layout(all_objects, context.system, assignment, name="ES candidate")

    def _solve_scalar(self, context: EvaluationContext, budget: Optional[float],
                      deadline: Optional[float]) -> SolveResult:
        """The original per-layout evaluation loop (reference path)."""
        checker = context.checker()
        tracer = trace.get_tracer()
        span = tracer.start_span("es.enumerate", path="scalar")
        started = time.perf_counter()

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        evaluated = 0
        timed_out = False
        incidents: List[str] = []
        for layout in self._layouts(context):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                incidents.append(self._deadline_incident(budget, evaluated))
                break
            evaluated += 1
            # Cheap capacity pre-filter before spending an estimate.
            if not layout.satisfies_capacity():
                continue
            report = context.evaluate(layout)
            if not checker.check(layout, report.run_result).feasible:
                continue
            if best_report is None or report.toc_cents < best_report.toc_cents:
                best_layout, best_report = layout, report

        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=evaluated, timed_out=timed_out)
        if best_layout is not None:
            best_layout = best_layout.renamed("ES")
            best_report = context.toc_model.report_from_result(
                best_layout, context.workload, best_report.run_result
            )
        return self._result(context, best_layout, best_report, evaluated, elapsed, budget,
                            timed_out, incidents)
