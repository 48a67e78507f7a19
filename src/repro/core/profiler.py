"""The profiling phase of DOT (paper Section 3.4, Figure 2).

The profiler runs (or estimates) the workload on a small set of *baseline
layouts* and records the per-object I/O counts.  Two modes mirror the paper:

* ``"estimate"`` -- the extended query optimizer predicts the I/O counts
  without executing anything (used for the TPC-H experiments, Section 4.4);
  by default the baselines are priced through the estimate cache's
  :meth:`~repro.core.batch_eval.QueryEstimateCache.run_result`, the same
  cached path DOT's walk uses;
* ``"testrun"`` -- a short simulated test run provides actual I/O statistics
  (used for the TPC-C experiments, Section 4.5.1, where a single baseline
  layout suffices because the plans never change).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

from repro.core.batch_eval import QueryEstimateCache
from repro.core.layout import Layout
from repro.core.profiles import (
    BaselinePlacement,
    WorkloadProfileSet,
    baseline_placements,
    placement_for_group,
)
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
        A cache built for another estimator or for another concurrency than
        the profiled workload's raises
        :class:`~repro.exceptions.ConfigurationError`.
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

        Estimate-mode profiling goes through the estimate cache by default
        (:meth:`~repro.core.batch_eval.QueryEstimateCache.run_result` with
        ``collect_io=True``): baseline patterns that a query cannot
        distinguish (its signature objects land on the same classes) share
        one optimizer estimate, and the per-object I/O counts are merged from
        the cached executions in the scalar estimator's exact order -- the
        resulting profiles are bitwise identical.  ``fast=False`` forces the
        scalar reference path; test runs always take it (their noise and
        buffer state are stateful).
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

        concurrency = getattr(workload, "concurrency", 1)
        profile_set = WorkloadProfileSet(system=self.system, concurrency=concurrency)
        if mode == "testrun":
            runner = self.estimator.run_workload
        elif fast:
            cache = self.estimate_cache
            if cache is None:
                cache = QueryEstimateCache(self.estimator, concurrency)
            cache.check_built_for(self.estimator, concurrency)
            runner = functools.partial(cache.run_result, collect_io=True)
        else:
            runner = self.estimator.estimate_workload
        for pattern in chosen:
            result = runner(workload, self.baseline_layout(pattern).placement())
            profile_set.add(pattern, result.io_by_object)
        return profile_set

    def single_baseline_pattern(self) -> BaselinePlacement:
        """One baseline pattern placing everything on the priciest class (All H-SSD)."""
        return tuple([self.system.most_expensive().name] * self.max_group_size)
