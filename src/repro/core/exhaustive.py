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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.batch_eval import iter_assignment_chunks
from repro.core.context import make_batch_evaluator
from repro.core.feasibility import FeasibilityChecker
from repro.core.layout import Layout
from repro.core.toc import TOCModel, TOCReport
from repro.exceptions import ConfigurationError, SolverTimeoutError
from repro.objects import DatabaseObject, group_objects
from repro.obs import trace
from repro.sla.constraints import PerformanceConstraint
from repro.storage.storage_class import StorageSystem


@dataclass
class ExhaustiveSearchResult:
    """Outcome of an exhaustive search.

    ``timed_out`` marks a search cut short by ``deadline_s``: the result is
    then the exact best of the portion enumerated before the deadline
    (feasible whenever any candidate was), not the global optimum.
    ``incidents`` records the recovery actions the run took (retries,
    re-queues, the deadline abort itself).
    """

    layout: Optional[Layout]
    toc_report: Optional[TOCReport]
    feasible: bool
    evaluated_layouts: int
    elapsed_s: float
    timed_out: bool = False
    incidents: List[str] = field(default_factory=list)

    @property
    def toc_cents(self) -> float:
        """TOC of the best layout (``inf`` when no feasible layout exists)."""
        if self.toc_report is None:
            return float("inf")
        return self.toc_report.toc_cents


class ExhaustiveSearch:
    """Enumerates and evaluates every possible layout.

    Parameters
    ----------
    objects:
        The placeable objects; the search space is ``M^N`` over them (or
        ``product(M^K_g)`` over groups with ``per_group=True``, which prunes
        nothing when every object is its own group but matches DOT's
        independence assumption otherwise).
    system:
        The storage system.
    estimator:
        Workload estimator shared with DOT.
    constraint:
        SLA constraint applied to each candidate.
    max_layouts:
        Guard on the number of enumerated layouts.  The serial paths treat it
        as a hard limit (exceeding it raises :class:`ConfigurationError`
        instead of silently running forever); with ``workers > 1`` it becomes
        a soft guard the parallel engine may exceed, because sharding plus
        pruning make full-paper spaces (e.g. the TPC-C study's ``3^19``)
        practical.
    per_group:
        Enumerate placements per object group rather than per object.
    pinned_objects:
        Objects included in every candidate layout at a fixed class (given by
        ``pinned_class``); used when the enumeration is restricted to the
        "hot" objects of a database whose remaining objects still need a
        placement for the workload to be estimable.
    batch:
        Evaluate candidates through the vectorized
        :class:`~repro.core.batch_eval.BatchLayoutEvaluator` (default).  The
        batch path returns bitwise-identical results and falls back to the
        scalar loop automatically for configurations it cannot vectorize
        (cost overrides, exotic constraint types).
    estimate_cache:
        Optional shared :class:`~repro.core.batch_eval.QueryEstimateCache`;
        lets the search reuse (and contribute to) the per-(query,
        signature) estimate table of a DOT run over the same estimator and
        workload.  Results are unchanged; the scalar path ignores it.
    workers:
        With ``workers > 1`` the search delegates to the sharded, pruned
        :class:`~repro.core.parallel_search.ParallelEnumerationEngine`
        (multiprocessing over the mixed-radix index range, branch-and-bound
        capacity/incumbent pruning).  Results stay bitwise identical to the
        serial batch path; configurations the batch evaluator cannot
        vectorize fall back to the serial paths as usual.
    deadline_s:
        Hard wall-clock budget for one :meth:`search` call.  All three
        execution paths honour it: the parallel engine aborts with a
        checkpointed partial result, the serial batch/scalar loops stop at
        the next chunk/layout boundary.  The returned result carries
        ``timed_out=True`` and is the exact best of what was enumerated.
    retry_backoff_s, shard_timeout_s, fault_plan:
        Fault-tolerance knobs forwarded to the parallel engine (retry
        backoff, dead-worker watchdog, chaos injection); see
        :class:`~repro.core.parallel_search.ParallelEnumerationEngine`.
    checkpoint_path:
        Persist the parallel engine's :class:`~repro.core.parallel_search.
        SearchProgress` to this file after every completed shard, and resume
        from it when the file already holds a valid checkpoint (a corrupt
        file is quarantined aside and the search starts over).  Only the
        ``workers > 1`` path checkpoints; the serial paths ignore it.
    """

    def __init__(
        self,
        objects: Sequence[DatabaseObject],
        system: StorageSystem,
        estimator,
        constraint: Optional[PerformanceConstraint] = None,
        max_layouts: int = 500_000,
        per_group: bool = False,
        cost_override=None,
        pinned_objects: Sequence[DatabaseObject] = (),
        pinned_class: Optional[str] = None,
        batch: bool = True,
        estimate_cache=None,
        workers: int = 1,
        deadline_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        fault_plan=None,
        checkpoint_path=None,
    ):
        self.objects = list(objects)
        self.system = system
        self.estimator = estimator
        self.constraint = constraint
        self.max_layouts = max_layouts
        self.per_group = per_group
        self.pinned_objects = list(pinned_objects)
        self.pinned_class = pinned_class or system.cheapest().name
        self.batch = batch
        self.estimate_cache = estimate_cache
        self.workers = max(1, int(workers))
        self.deadline_s = deadline_s
        self.retry_backoff_s = retry_backoff_s
        self.shard_timeout_s = shard_timeout_s
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path
        self.toc_model = TOCModel(estimator, cost_override=cost_override)
        self.checker = FeasibilityChecker(constraint)
        #: Batch-evaluation statistics of the last batch-path search (None
        #: when the scalar path ran).
        self.last_batch_stats = None

    # ------------------------------------------------------------------
    def search_space_size(self) -> int:
        """Number of layouts the search would enumerate."""
        class_count = len(self.system)
        if self.per_group:
            size = 1
            for group in group_objects(self.objects):
                size *= class_count ** len(group)
            return size
        return class_count ** len(self.objects)

    def _layouts(self):
        class_names = self.system.class_names
        all_objects = self.objects + self.pinned_objects
        pinned_assignment = {obj.name: self.pinned_class for obj in self.pinned_objects}
        if self.per_group:
            groups = group_objects(self.objects)
            per_group_choices = [
                list(itertools.product(class_names, repeat=len(group))) for group in groups
            ]
            for combo in itertools.product(*per_group_choices):
                assignment = dict(pinned_assignment)
                for group, placement in zip(groups, combo):
                    for member, class_name in zip(group.members, placement):
                        assignment[member.name] = class_name
                yield Layout(all_objects, self.system, assignment, name="ES candidate")
        else:
            names = [obj.name for obj in self.objects]
            for combo in itertools.product(class_names, repeat=len(names)):
                assignment = dict(pinned_assignment)
                assignment.update(zip(names, combo))
                yield Layout(all_objects, self.system, assignment, name="ES candidate")

    def _variable_objects(self) -> List[DatabaseObject]:
        """The enumerated objects in candidate-column order.

        Per-group enumeration is the product of per-group placement products,
        which flattens to a plain product over all members in group-by-group
        order -- so both modes reduce to one mixed-radix enumeration; only
        the column order differs (and with it the floating-point accumulation
        order the batch path must preserve).
        """
        if self.per_group:
            return [member for group in group_objects(self.objects) for member in group.members]
        return list(self.objects)

    # ------------------------------------------------------------------
    def search(self, workload, constraint: Optional[PerformanceConstraint] = None) -> ExhaustiveSearchResult:
        """Enumerate all layouts and return the cheapest feasible one."""
        space = self.search_space_size()
        active_constraint = constraint if constraint is not None else self.constraint
        checker = self.checker if constraint is None else FeasibilityChecker(constraint)
        self.last_batch_stats = None
        if self.batch and self.workers > 1:
            # The parallel engine treats max_layouts as a soft guard: sharding
            # plus pruning lift the enumeration ceiling to full-paper spaces.
            result = self._search_parallel(workload, active_constraint)
            if result is not None:
                return result
        if space > self.max_layouts:
            raise ConfigurationError(
                f"exhaustive search space has {space} layouts, exceeding the limit of "
                f"{self.max_layouts}; reduce the object set, raise max_layouts, or "
                f"use workers > 1"
            )
        if self.batch:
            result = self._search_batch(workload, active_constraint)
            if result is not None:
                return result
        return self._search_scalar(workload, checker)

    # ------------------------------------------------------------------
    def _build_evaluator(self, workload, constraint: Optional[PerformanceConstraint]):
        """Timed construction of the batch evaluator (None when unsupported).

        Construction (and any estimate-table warm-up the parallel path adds on
        top) is timed separately from the enumeration: the build cost depends
        on how warm a shared estimate cache already is, which would otherwise
        skew ES-vs-DOT search-time comparisons.
        """
        build_started = time.perf_counter()
        with trace.span("es.build") as span:
            evaluator = make_batch_evaluator(
                self._variable_objects(),
                self.system,
                self.estimator,
                workload,
                pinned=[(obj, self.pinned_class) for obj in self.pinned_objects],
                constraint=constraint,
                cache=self.estimate_cache,
                toc_model=self.toc_model,
            )
            if evaluator is None:
                span.set(vectorizable=False)
                return None
            evaluator.stats.build_s = time.perf_counter() - build_started
            span.set(build_s=evaluator.stats.build_s)
        return evaluator

    def _search_batch(
        self, workload, constraint: Optional[PerformanceConstraint]
    ) -> Optional[ExhaustiveSearchResult]:
        """Vectorized enumeration; returns None when unsupported."""
        evaluator = self._build_evaluator(workload, constraint)
        if evaluator is None:
            return None
        tracer = trace.get_tracer()
        span = tracer.start_span("es.enumerate", path="batch")
        started = time.perf_counter()
        deadline = (
            time.monotonic() + self.deadline_s if self.deadline_s is not None else None
        )
        variable_objects = evaluator.variable_objects

        best_toc = float("inf")
        best_row = None
        evaluated = 0
        timed_out = False
        incidents: List[str] = []
        for _, chunk in iter_assignment_chunks(len(variable_objects), len(self.system)):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                incidents.append(
                    f"deadline of {self.deadline_s}s expired after "
                    f"{evaluated} layouts; returning best-so-far"
                )
                break
            evaluation = evaluator.evaluate_chunk(chunk)
            evaluated += chunk.shape[0]
            index = evaluation.best_index
            if index is not None and evaluation.toc_cents[index] < best_toc:
                best_toc = float(evaluation.toc_cents[index])
                best_row = chunk[index].copy()
        self.last_batch_stats = evaluator.stats

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if best_row is not None:
            all_objects = self.objects + self.pinned_objects
            best_layout = Layout(
                all_objects, self.system, evaluator.assignment_for_row(best_row), name="ES"
            )
            best_report = self.toc_model.evaluate(best_layout, workload, mode="estimate")
        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=evaluated, timed_out=timed_out)
        return ExhaustiveSearchResult(
            layout=best_layout,
            toc_report=best_report,
            feasible=best_layout is not None,
            evaluated_layouts=evaluated,
            elapsed_s=elapsed,
            timed_out=timed_out,
            incidents=incidents,
        )

    # ------------------------------------------------------------------
    def _search_parallel(
        self, workload, constraint: Optional[PerformanceConstraint]
    ) -> Optional[ExhaustiveSearchResult]:
        """Sharded, pruned multiprocessing enumeration; None when unsupported.

        The parent builds and fully warms one evaluator (timed as build and
        warm-up cost), hands that evaluator itself to the worker pool, and
        reduces the shards' ``(TOC, enumeration index)`` bests, which
        reproduces the serial batch result bit for bit.
        """
        from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress

        evaluator = self._build_evaluator(workload, constraint)
        if evaluator is None:
            return None
        tracer = trace.get_tracer()
        warm_span = tracer.start_span("es.warm", workers=self.workers)
        warm_started = time.perf_counter()
        engine = ParallelEnumerationEngine(
            evaluator,
            workers=self.workers,
            deadline_s=self.deadline_s,
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
        self.last_batch_stats = stats

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        if progress.best_row is not None:
            all_objects = self.objects + self.pinned_objects
            row = np.array(progress.best_row, dtype=np.int64)
            best_layout = Layout(
                all_objects, self.system, evaluator.assignment_for_row(row), name="ES"
            )
            best_report = self.toc_model.evaluate(best_layout, workload, mode="estimate")
        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=progress.evaluated, timed_out=timed_out)
        return ExhaustiveSearchResult(
            layout=best_layout,
            toc_report=best_report,
            feasible=best_layout is not None,
            evaluated_layouts=progress.evaluated,
            elapsed_s=elapsed,
            timed_out=timed_out,
            incidents=list(progress.incidents),
        )

    # ------------------------------------------------------------------
    def _search_scalar(self, workload, checker: FeasibilityChecker) -> ExhaustiveSearchResult:
        """The original per-layout evaluation loop (reference path)."""
        tracer = trace.get_tracer()
        span = tracer.start_span("es.enumerate", path="scalar")
        started = time.perf_counter()
        deadline = (
            time.monotonic() + self.deadline_s if self.deadline_s is not None else None
        )

        best_layout: Optional[Layout] = None
        best_report: Optional[TOCReport] = None
        evaluated = 0
        timed_out = False
        incidents: List[str] = []
        for layout in self._layouts():
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                incidents.append(
                    f"deadline of {self.deadline_s}s expired after "
                    f"{evaluated} layouts; returning best-so-far"
                )
                break
            evaluated += 1
            # Cheap capacity pre-filter before spending an estimate.
            if not layout.satisfies_capacity():
                continue
            report = self.toc_model.evaluate(layout, workload, mode="estimate")
            check = checker.check(layout, report.run_result)
            if not check.feasible:
                continue
            if best_report is None or report.toc_cents < best_report.toc_cents:
                best_layout, best_report = layout, report

        elapsed = time.perf_counter() - started
        tracer.end_span(span, evaluated=evaluated, timed_out=timed_out)
        if best_layout is not None:
            best_layout = best_layout.renamed("ES")
            best_report = self.toc_model.report_from_result(
                best_layout, workload, best_report.run_result
            )
        return ExhaustiveSearchResult(
            layout=best_layout,
            toc_report=best_report,
            feasible=best_layout is not None,
            evaluated_layouts=evaluated,
            elapsed_s=elapsed,
            timed_out=timed_out,
            incidents=incidents,
        )
