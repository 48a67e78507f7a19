"""The profiling phase of DOT (paper Section 3.4, Figure 2).

The profiler runs (or estimates) the workload on a small set of *baseline
layouts* and records the per-object I/O counts.  Two modes mirror the paper:

* ``"estimate"`` -- the extended query optimizer predicts the I/O counts
  without executing anything (used for the TPC-H experiments, Section 4.4);
* ``"testrun"`` -- a short simulated test run provides actual I/O statistics
  (used for the TPC-C experiments, Section 4.5.1, where a single baseline
  layout suffices because the plans never change).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.batch_eval import (
    QueryEstimateCache,
    UnsupportedBatchEvaluation,
    _adopt_cache,
    _replay_mix,
)
from repro.core.layout import Layout
from repro.core.profiles import (
    BaselinePlacement,
    WorkloadProfileSet,
    baseline_placements,
    placement_for_group,
)
from repro.dbms.plan import merge_io_counts
from repro.exceptions import ProfileError
from repro.objects import DatabaseObject, ObjectGroup, group_objects
from repro.storage.storage_class import StorageSystem


class WorkloadProfiler:
    """Produces :class:`WorkloadProfileSet` instances from baseline layouts.

    Parameters
    ----------
    objects:
        The placeable database objects.
    system:
        The storage system (the baseline layouts enumerate its classes).
    estimator:
        A workload estimator exposing ``estimate_workload(workload, placement)``
        and ``run_workload(workload, placement)`` (duck-typed; normally a
        :class:`repro.dbms.executor.WorkloadEstimator`).
    estimate_cache:
        Optional shared :class:`~repro.core.batch_eval.QueryEstimateCache`.
        Estimate-mode profiling resolves per-query estimates through it, so
        the ``M^K`` baseline enumeration re-estimates a query only when its
        touched-placement signature is new -- and an optimizer/search sharing
        the cache starts with every baseline estimate already in its table.
    """

    def __init__(self, objects: Sequence[DatabaseObject], system: StorageSystem, estimator,
                 estimate_cache: Optional[QueryEstimateCache] = None):
        self.objects = list(objects)
        self.system = system
        self.estimator = estimator
        self.estimate_cache = estimate_cache
        self.groups: List[ObjectGroup] = group_objects(self.objects)

    # ------------------------------------------------------------------
    @property
    def max_group_size(self) -> int:
        """The largest object-group size ``K`` (determines the ``M^K`` baselines)."""
        return max(len(group) for group in self.groups)

    def baseline_layout(self, pattern: BaselinePlacement, name: Optional[str] = None) -> Layout:
        """Build the baseline layout ``L(p)``: member k of every group goes to ``p[k]``."""
        assignment = {}
        for group in self.groups:
            placement = placement_for_group(pattern, group)
            for member, class_name in zip(group.members, placement):
                assignment[member.name] = class_name
        return Layout(
            self.objects,
            self.system,
            assignment,
            name=name or f"baseline{tuple(pattern)!r}",
        )

    def baseline_patterns(self) -> List[BaselinePlacement]:
        """The ``M^K`` baseline placement patterns to profile."""
        return baseline_placements(self.system, self.max_group_size)

    # ------------------------------------------------------------------
    def profile(
        self,
        workload,
        mode: str = "estimate",
        patterns: Optional[Sequence[BaselinePlacement]] = None,
        fast: bool = True,
    ) -> WorkloadProfileSet:
        """Profile the workload over baseline layouts.

        ``patterns`` overrides the default ``M^K`` enumeration; passing a
        single pattern reproduces the paper's pruned TPC-C profiling where
        one baseline layout is enough.

        Estimate-mode profiling goes through the per-(query,
        touched-placement-signature) estimate tables of
        :mod:`repro.core.batch_eval` by default: baseline patterns that a
        query cannot distinguish (its signature objects land on the same
        classes) share one optimizer estimate, and the per-object I/O counts
        are re-accumulated from the cached executions in the scalar
        estimator's exact merge order -- the resulting profiles are bitwise
        identical.  ``fast=False`` forces the scalar reference path; test
        runs always take it (their noise and buffer state are stateful).
        """
        if mode not in ("estimate", "testrun"):
            raise ProfileError(f"unknown profiling mode {mode!r}")
        chosen = (
            [tuple(pattern) for pattern in patterns]
            if patterns is not None
            else self.baseline_patterns()
        )
        if not chosen:
            raise ProfileError("no baseline placement patterns to profile")

        profile_set = WorkloadProfileSet(
            system=self.system, concurrency=getattr(workload, "concurrency", 1)
        )
        if mode == "estimate" and fast:
            try:
                return self._profile_estimate_fast(workload, chosen, profile_set)
            except UnsupportedBatchEvaluation:
                pass
        runner = (
            self.estimator.estimate_workload if mode == "estimate" else self.estimator.run_workload
        )
        for pattern in chosen:
            layout = self.baseline_layout(pattern)
            result = runner(workload, layout.placement())
            profile_set.add(pattern, result.io_by_object)
        return profile_set

    def _profile_estimate_fast(
        self,
        workload,
        chosen: Sequence[BaselinePlacement],
        profile_set: WorkloadProfileSet,
    ) -> WorkloadProfileSet:
        """Estimate-mode profiling through the shared estimate tables.

        Replays ``WorkloadEstimator._run_stream`` / ``_run_mix``'s I/O
        accumulation (same per-query order, same dict-merge order) from
        cached :class:`~repro.dbms.executor.ExecutionResult`s, so each
        distinct (query, signature) pair is estimated once across all
        baseline patterns instead of once per pattern.
        """
        kind = getattr(workload, "kind", "dss")
        if kind not in ("dss", "oltp"):
            raise UnsupportedBatchEvaluation(f"unsupported workload kind {kind!r}")
        concurrency = getattr(workload, "concurrency", 1)
        cache = _adopt_cache(self.estimate_cache, self.estimator, concurrency)
        if kind == "oltp":
            mix = list(workload.transaction_mix)
            total_weight = sum(weight for _, weight in mix)
            if total_weight <= 0:
                raise UnsupportedBatchEvaluation(
                    "transaction mix weights must sum to a positive value"
                )
        for pattern in chosen:
            placement = self.baseline_layout(pattern).placement()
            if kind == "oltp":
                io_by_object, _, _, _ = _replay_mix(
                    mix, total_weight, lambda query: cache.get(query, placement)
                )
            else:
                io_by_object = {}
                for query in workload.queries:
                    merge_io_counts(io_by_object, cache.get(query, placement).io_counts)
            profile_set.add(pattern, io_by_object)
        return profile_set

    def single_baseline_pattern(self) -> BaselinePlacement:
        """One baseline pattern placing everything on the priciest class (All H-SSD)."""
        return tuple([self.system.most_expensive().name] * self.max_group_size)
