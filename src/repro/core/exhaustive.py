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

from repro.core.batch_eval import iter_assignment_chunks
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

    Three execution paths return bitwise-identical results: the vectorized
    serial batch path (default), the sharded parallel engine
    (``workers > 1``) and the per-layout scalar loop (``batch=False``, the
    test oracle, also the automatic fallback for configurations the batch
    evaluator cannot vectorize: cost overrides, exotic constraint types).
    ``stats.batch`` is ``None`` exactly when the scalar path ran.

    The solve-time ``budget`` is a hard wall-clock deadline in seconds that
    all three paths honour: the parallel engine aborts with a checkpointed
    partial result, the serial loops stop at the next chunk/layout boundary.
    The result is then the exact best of what was enumerated, marked
    degraded.

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
        Guard on the number of enumerated layouts.  The serial paths treat it
        as a hard limit (exceeding it raises :class:`ConfigurationError`
        instead of silently running forever); with ``workers > 1`` it becomes
        a soft guard the parallel engine may exceed, because sharding plus
        pruning make full-paper spaces (e.g. the TPC-C study's ``3^19``)
        practical.
    batch:
        Evaluate candidates through the vectorized
        :class:`~repro.core.batch_eval.BatchLayoutEvaluator` (default).
    workers:
        With ``workers > 1`` the search runs on the sharded, pruned
        :class:`~repro.core.parallel_search.ParallelEnumerationEngine`
        (multiprocessing over the mixed-radix index range, branch-and-bound
        capacity/incumbent pruning).
    retry_backoff_s, shard_timeout_s, fault_plan:
        Fault-tolerance knobs forwarded to the parallel engine (retry
        backoff, dead-worker watchdog, chaos injection).
    checkpoint_path:
        Persist the parallel engine's :class:`~repro.core.parallel_search.
        SearchProgress` to this file after every completed shard, and resume
        from it when the file already holds a valid checkpoint (a corrupt
        file is quarantined aside and the search starts over).  Only the
        ``workers > 1`` path checkpoints.
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
        self.workers = max(1, int(workers))
        self.retry_backoff_s = retry_backoff_s
        self.shard_timeout_s = shard_timeout_s
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
        space = self.search_space_size(context)
        if self.batch and self.workers > 1:
            # The parallel engine treats max_layouts as a soft guard: sharding
            # plus pruning lift the enumeration ceiling to full-paper spaces.
            result = self._solve_parallel(context, budget)
            if result is not None:
                return result
        if space > self.max_layouts:
            raise ConfigurationError(
                f"exhaustive search space has {space} layouts, exceeding the limit of "
                f"{self.max_layouts}; reduce the object set, raise max_layouts, or "
                f"use workers > 1"
            )
        if self.batch:
            result = self._solve_batch(context, budget)
            if result is not None:
                return result
        return self._solve_scalar(context, budget)

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
    def _build_evaluator(self, context: EvaluationContext):
        """Timed construction of the batch evaluator (None when unsupported).

        Construction (and any estimate-table warm-up the parallel path adds on
        top) is timed separately from the enumeration: the build cost depends
        on how warm a shared estimate cache already is, which would otherwise
        skew ES-vs-DOT search-time comparisons.
        """
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
        return evaluator

    def _solve_batch(self, context: EvaluationContext,
                     budget: Optional[float]) -> Optional[SolveResult]:
        """Vectorized enumeration; returns None when unsupported."""
        evaluator = self._build_evaluator(context)
        if evaluator is None:
            return None
        tracer = trace.get_tracer()
        span = tracer.start_span("es.enumerate", path="batch")
        started = time.perf_counter()
        deadline = time.monotonic() + budget if budget is not None else None

        best_toc = float("inf")
        best_row = None
        evaluated = 0
        timed_out = False
        incidents: List[str] = []
        for _, chunk in iter_assignment_chunks(len(evaluator.variable_objects),
                                               len(context.system)):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                incidents.append(self._deadline_incident(budget, evaluated))
                break
            evaluation = evaluator.evaluate_chunk(chunk)
            evaluated += chunk.shape[0]
            index = evaluation.best_index
            if index is not None and evaluation.toc_cents[index] < best_toc:
                best_toc = float(evaluation.toc_cents[index])
                best_row = chunk[index].copy()

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if best_row is not None:
            best_layout = self._layout(context, evaluator.assignment_for_row(best_row), "ES")
            best_report = context.evaluate(best_layout)
        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=evaluated, timed_out=timed_out)
        return self._result(context, best_layout, best_report, evaluated, elapsed, budget,
                            timed_out, incidents, evaluator.stats)

    # ------------------------------------------------------------------
    def _solve_parallel(self, context: EvaluationContext,
                        budget: Optional[float]) -> Optional[SolveResult]:
        """Sharded, pruned multiprocessing enumeration; None when unsupported.

        The parent builds and fully warms one evaluator (timed as build and
        warm-up cost), hands that evaluator itself to the worker pool, and
        reduces the shards' ``(TOC, enumeration index)`` bests, which
        reproduces the serial batch result bit for bit.
        """
        from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress

        evaluator = self._build_evaluator(context)
        if evaluator is None:
            return None
        tracer = trace.get_tracer()
        warm_span = tracer.start_span("es.warm", workers=self.workers)
        warm_started = time.perf_counter()
        engine = ParallelEnumerationEngine(
            evaluator,
            workers=self.workers,
            deadline_s=budget,
            retry_backoff_s=self.retry_backoff_s,
            shard_timeout_s=self.shard_timeout_s,
            fault_plan=self.fault_plan,
        )
        # Coordinator warm-up (the engine pre-estimates every signature) is
        # its own stats slice -- per-worker initializer time (attach_s)
        # arrives later through the shard outcomes; the stats object is
        # snapshotted before shard deltas replace it.
        stats = evaluator.stats
        stats.warm_s += time.perf_counter() - warm_started
        stats.workers = self.workers
        tracer.end_span(warm_span, build_s=stats.build_s, warm_s=stats.warm_s)

        span = tracer.start_span(
            "es.enumerate", path="parallel", workers=self.workers,
            shards=len(engine.shard_ranges()), prefix_depth=engine.prefix_depth,
        )
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
                # exception and its incumbent is the exact best of the
                # completed shards -- a degraded but honest result.
                if exc.progress is None:
                    raise
                progress = exc.progress
                timed_out = True
        stats.merge(progress.stats)

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if progress.best_row is not None:
            row = np.array(progress.best_row, dtype=np.int64)
            best_layout = self._layout(context, evaluator.assignment_for_row(row), "ES")
            best_report = context.evaluate(best_layout)
        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=progress.evaluated, timed_out=timed_out)
        return self._result(context, best_layout, best_report, progress.evaluated, elapsed,
                            budget, timed_out, progress.incidents, stats)

    # ------------------------------------------------------------------
    def _layouts(self, context: EvaluationContext):
        """Every candidate layout, in the batch paths' enumeration order."""
        all_objects = self._objects(context) + self.pinned_objects
        pinned_class = self._pinned_class(context)
        pinned_assignment = {obj.name: pinned_class for obj in self.pinned_objects}
        names = [obj.name for obj in self._variable_objects(context)]
        for combo in itertools.product(context.system.class_names, repeat=len(names)):
            assignment = dict(pinned_assignment)
            assignment.update(zip(names, combo))
            yield Layout(all_objects, context.system, assignment, name="ES candidate")

    def _solve_scalar(self, context: EvaluationContext,
                      budget: Optional[float]) -> SolveResult:
        """The original per-layout evaluation loop (reference path)."""
        checker = context.checker()
        tracer = trace.get_tracer()
        span = tracer.start_span("es.enumerate", path="scalar")
        started = time.perf_counter()
        deadline = time.monotonic() + budget if budget is not None else None

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
