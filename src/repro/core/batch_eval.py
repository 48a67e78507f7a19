"""Vectorized batch evaluation of candidate layouts (TOC + feasibility).

The paper's searches -- exhaustive search (Section 4.4.3/4.5.3), DOT's walk
(Procedure 1) and the MILP relaxation -- all reduce to the same inner loop:
"evaluate total operating cost and feasibility for many candidate layouts".
The scalar implementation pays full Python overhead per candidate: a fresh
:class:`~repro.core.layout.Layout`, a per-object placement dict, a plan-cache
key per query, and dict-merge bookkeeping for I/O counts, even when every
plan is a cache hit.

This module removes that overhead without changing a single result:

* :class:`BatchLayoutEvaluator` represents candidate layouts as integer
  class-index matrices and scores whole batches with array operations.  The
  only remaining per-candidate Python work is one optimizer estimate per
  *new* ``(query, touched-placement-signature)`` pair -- everything else
  (space, capacity, layout cost, workload time, SLA filtering) is numpy.
* :meth:`QueryEstimateCache.run_result` is the scalar counterpart, and the
  one cached pricing path of DOT's move walk, the online loop, SLA
  resolution and estimate-mode profiling: per-query estimates are cached by
  placement signature, so a candidate that only moves one object group
  re-estimates only the queries touching that group.
* :func:`group_placement_coefficients` builds the MILP's per-(group,
  placement) cost/time coefficient vectors from the same machinery.

Exactness contract
------------------
Every floating-point reduction below is performed in the *same operation
order* as the scalar code path it replaces (sequential per-object adds for
space and cost, per-stream-instance adds for workload time, the original
dict-merge order for OLTP aggregation).  IEEE 754 addition is deterministic,
so batch results are bitwise identical to the legacy path -- the exhaustive
search returns the identical best layout and TOC, it just gets there faster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dbms.concurrency import ClosedLoopModel
from repro.dbms.cost_model import ServiceTimeTable
from repro.dbms.executor import ExecutionResult, WorkloadRunResult
from repro.dbms.plan import merge_io_counts, scale_io_counts
from repro.exceptions import ConfigurationError, WorkloadError
from repro.objects import DatabaseObject
from repro.sla.constraints import PerformanceConstraint
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageClass, StorageSystem
from repro.units import MS_PER_SECOND, SECONDS_PER_HOUR


#: Signatures :meth:`BatchLayoutEvaluator.warm_signatures` estimates between
#: two deadline checks (an estimate costs up to ~0.3 ms on TPC-H).
WARM_SLICE = 64
#: Largest signature subspace (``M^k``) of one query that
#: :meth:`BatchLayoutEvaluator.warm_signatures` pre-estimates; a larger
#: table stays on lazy on-demand estimation.
WARM_MAX_SIGNATURES = 262_144


class UnsupportedBatchEvaluation(Exception):
    """Raised when a configuration cannot take the vectorized fast path.

    The exhaustive search catches this (through
    :func:`~repro.core.context.make_batch_evaluator`) and runs its scalar
    loop instead, so raising it is never an error condition -- it is the
    feature gate for cost overrides, constraint types without a batch
    signature and SLA/workload kind pairings the batch scoring cannot
    represent.
    """


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def iter_assignment_chunks(
    num_objects: int,
    num_classes: int,
    chunk_size: int = 4096,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Enumerate assignments ``[start, stop)`` as ``(start_index, matrix)`` chunks.

    Rows follow ``itertools.product(range(M), repeat=N)`` order exactly (the
    last column varies fastest), which is the enumeration order of the scalar
    exhaustive search; each matrix holds class indices with one column per
    object.  ``start``/``stop`` select a sub-range of the full ``[0, M^N)``
    mixed-radix index space, which is how the parallel engine's shards stream
    their own slices of the enumeration.
    """
    if num_objects < 1:
        raise ValueError("need at least one object column to enumerate")
    if num_classes < 1:
        raise ValueError("need at least one storage class to enumerate")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    total = num_classes**num_objects
    if total > np.iinfo(np.int64).max:
        # The mixed-radix index space must fit the int64 indices the decode
        # loop (and every shard/chunk boundary) is computed in; beyond that
        # the arithmetic would silently wrap.  3^19 ~ 1.16e9 is far inside
        # the guard; it trips at ~40 ternary objects.
        raise ValueError(
            f"enumeration space {num_classes}^{num_objects} exceeds the 64-bit "
            "mixed-radix index range"
        )
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid enumeration range [{start}, {stop}) for {total} assignments")
    for chunk_start in range(start, stop, chunk_size):
        chunk_stop = min(chunk_start + chunk_size, stop)
        yield chunk_start, decode_assignments(
            np.arange(chunk_start, chunk_stop, dtype=np.int64), num_objects, num_classes
        )


def decode_assignments(indices: np.ndarray, num_objects: int, num_classes: int) -> np.ndarray:
    """The class-index rows of the mixed-radix assignment ``indices``
    (column 0 most significant, as in :func:`iter_assignment_chunks`)."""
    digits = np.unravel_index(indices, (num_classes,) * num_objects)
    return np.stack(digits, axis=1).astype(np.int64, copy=False)


def accumulate_space_used(
    var_assign: np.ndarray,
    num_classes: int,
    sizes: Sequence[float],
    pinned: Sequence[Tuple[int, float]] = (),
) -> np.ndarray:
    """Per-candidate per-class space usage, in the scalar path's add order.

    Pinned ``(class_index, size_gb)`` pairs are accumulated first, then the
    variable columns left to right -- the exact floating-point order of the
    scalar layout's space computation.  Both the batch evaluator and the
    parallel engine's prefix bounds go through this one helper: the pruning
    soundness argument (a prefix's usage is an exact intermediate of the full
    accumulation) relies on the two never diverging.
    """
    batch = var_assign.shape[0]
    used = np.zeros((batch, num_classes))
    for class_index, size_gb in pinned:
        used[:, class_index] += size_gb
    rows = np.arange(batch)
    for column, size_gb in enumerate(sizes):
        used[rows, var_assign[:, column]] += size_gb
    return used


def _mixed_radix_weights(positions: int, base: int) -> np.ndarray:
    """Weights turning a row of class indices into a single signature code."""
    weights = np.empty(positions, dtype=np.int64)
    value = 1
    for position in range(positions - 1, -1, -1):
        if value > 2**62:
            raise UnsupportedBatchEvaluation(
                "signature space too large for 64-bit encoding"
            )
        weights[position] = value
        value *= base
    return weights


# ---------------------------------------------------------------------------
# Shared replication of the scalar estimator's aggregation
# ---------------------------------------------------------------------------

class _OltpMixModel:
    """The workload-level constants of an OLTP mix evaluation, and the
    replay of ``WorkloadEstimator._run_mix`` from cached executions."""

    __slots__ = ("mix", "total_weight", "model", "measured_fraction")

    def __init__(self, workload, estimator, concurrency: int):
        self.mix = list(workload.transaction_mix)
        self.total_weight = sum(weight for _, weight in self.mix)
        if self.total_weight <= 0:
            raise WorkloadError(
                f"transaction mix of {getattr(workload, 'name', 'workload')!r} has "
                f"weights summing to {self.total_weight}; they must sum to a "
                "positive value"
            )
        self.model = ClosedLoopModel(
            concurrency=concurrency, efficiency=estimator.oltp_efficiency
        )
        self.measured_fraction = getattr(workload, "measured_transaction_fraction", 1.0)

    def replay(self, execution_for):
        """``_run_mix``'s accumulation (same merge and float order).
        ``execution_for`` is called once per mix entry, in mix order."""
        io_by_object: Dict[str, Dict[IOType, float]] = {}
        per_query_times: List[Tuple[str, float]] = []
        avg_response_ms = 0.0
        avg_cpu_ms = 0.0
        for query, weight in self.mix:
            share = weight / self.total_weight
            execution = execution_for(query)
            per_query_times.append((query.name, execution.response_time_ms))
            merge_io_counts(io_by_object, scale_io_counts(execution.io_counts, share))
            avg_response_ms += share * execution.response_time_ms
            avg_cpu_ms += share * execution.cpu_time_ms
        return io_by_object, per_query_times, avg_response_ms, avg_cpu_ms

    def throughput(self, io_by_object, storage_class_of, service_times: ServiceTimeTable,
                   avg_response_ms: float, avg_cpu_ms: float):
        """``(busy_time_by_class_ms, ThroughputEstimate)``: the busy time of
        each storage class, then the closed-loop bound -- ``_run_mix``'s tail.

        The busy times replicate ``CostModel.io_time_by_class`` bit for bit:
        same iteration order, and counts <= 0 contribute an exact ``0.0``.
        """
        busy: Dict[str, float] = {}
        for object_name, by_type in io_by_object.items():
            storage_class = storage_class_of(object_name)
            class_name = storage_class.name
            for io_type, count in by_type.items():
                if count <= 0:
                    time_ms = 0.0
                else:
                    time_ms = count * service_times.latency_ms(storage_class, io_type)
                busy[class_name] = busy.get(class_name, 0.0) + time_ms
        throughput = self.model.estimate(
            response_time_ms=max(avg_response_ms, 1e-9),
            busy_time_by_class_ms=busy,
            cpu_time_ms=avg_cpu_ms,
        )
        return busy, throughput


# ---------------------------------------------------------------------------
# Per-query estimate cache
# ---------------------------------------------------------------------------

class QueryEstimateCache:
    """Caches optimizer estimates by (query, touched-placement-signature),
    and prices whole workloads from them (:meth:`run_result`).

    The signature covers every object whose storage class can influence the
    estimate: the query's referenced objects plus the optimizer's temporary
    object (spills pay I/O against it).  Two placements with equal signatures
    yield bitwise-identical estimates, so the cached
    :class:`~repro.dbms.executor.ExecutionResult` can stand in for a fresh
    call.

    One cache instance can be *shared* between several consumers (ES and
    DOT of the same experiment, or successive epochs of the online advisor):
    entries key on query name and signature only, so any consumer working
    from the same estimator, the same query templates and the same
    concurrency gets bitwise-identical results while re-estimating nothing.
    Signatures encode neither the estimator nor the concurrency, so every
    consumer that takes a shared cache checks it with
    :meth:`check_built_for` once.
    """

    def __init__(self, estimator, concurrency: int):
        self.estimator = estimator
        self.concurrency = concurrency
        self._cache: Dict[tuple, ExecutionResult] = {}
        self._signature_objects: Dict[str, Tuple[str, ...]] = {}
        self._service_times = ServiceTimeTable(concurrency)
        self.hits = 0
        self.misses = 0

    def check_built_for(self, estimator, concurrency: int) -> None:
        """Raise :class:`~repro.exceptions.ConfigurationError` unless this
        cache was built for ``estimator`` at ``concurrency``: its entries
        would otherwise be estimates of another calibration point."""
        if self.estimator is not estimator:
            raise ConfigurationError(
                f"estimate cache built for {_describe(self.estimator)} is shared "
                f"with {_describe(estimator)}; share a cache only between "
                "consumers of one estimator"
            )
        if self.concurrency != concurrency:
            raise ConfigurationError(
                f"estimate cache built for concurrency {self.concurrency} is shared "
                f"with a workload running at concurrency {concurrency}"
            )

    def signature_objects(self, query) -> Tuple[str, ...]:
        names = self._signature_objects.get(query.name)
        if names is None:
            names = self.estimator.signature_objects(query)
            self._signature_objects[query.name] = names
        return names

    def signature(self, query, placement: Mapping[str, StorageClass]) -> tuple:
        parts = []
        for name in self.signature_objects(query):
            storage_class = placement.get(name)
            parts.append(storage_class.name if storage_class is not None else None)
        return tuple(parts)

    def get(self, query, placement: Mapping[str, StorageClass]) -> ExecutionResult:
        key = (query.name, self.signature(query, placement))
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        execution = self.estimator.estimate_query(query, placement, self.concurrency)
        self._cache[key] = execution
        return execution

    def run_result(self, workload, placement: Mapping[str, StorageClass],
                   collect_io: bool = False) -> WorkloadRunResult:
        """The estimate of ``workload`` under ``placement``, from cached
        executions.

        Rebuilds what ``WorkloadEstimator._run_stream`` / ``_run_mix``
        return, looking the queries up in stream (mix) order and adding
        floats in the same order, so every number is bitwise the scalar
        estimate's -- at this cache's concurrency, which the consumer that
        took the cache checked.  A DSS result leaves its busy time by class
        empty and merges the per-object I/O counts only with
        ``collect_io=True``: search loops read neither, the telemetry
        monitor and the profiler read the counts.  An OLTP result always
        carries both, since its throughput needs them.

        Raises :class:`~repro.exceptions.WorkloadError` for a workload that
        is neither ``dss`` nor ``oltp`` (a cross-kind blend is priced per
        component).
        """
        kind = getattr(workload, "kind", "dss")
        name = getattr(workload, "name", "workload")
        if kind == "dss":
            result = WorkloadRunResult(
                workload_name=name, kind="dss", concurrency=self.concurrency
            )
            total_ms = 0.0
            for query in workload.queries:
                execution = self.get(query, placement)
                result.per_query_times_ms.append((query.name, execution.response_time_ms))
                if collect_io:
                    merge_io_counts(result.io_by_object, execution.io_counts)
                total_ms += execution.response_time_ms
            result.total_time_s = total_ms / 1000.0
            return result
        if kind != "oltp":
            raise WorkloadError(
                f"workload {name!r} of kind {kind!r} cannot be priced from cached "
                "estimates; price each dss/oltp component on its own"
            )
        mix = _OltpMixModel(workload, self.estimator, self.concurrency)
        io_by_object, per_query_times, avg_response_ms, avg_cpu_ms = mix.replay(
            lambda query: self.get(query, placement)
        )
        busy_by_class, throughput = mix.throughput(
            io_by_object, placement.__getitem__, self._service_times,
            avg_response_ms, avg_cpu_ms,
        )
        return WorkloadRunResult(
            workload_name=name,
            kind="oltp",
            concurrency=self.concurrency,
            per_query_times_ms=per_query_times,
            io_by_object=io_by_object,
            busy_time_by_class_ms=busy_by_class,
            total_time_s=getattr(workload, "duration_s", 3600.0),
            throughput=throughput,
            measured_transaction_fraction=mix.measured_fraction,
        )


def _describe(estimator) -> str:
    return f"{type(estimator).__name__} at {id(estimator):#x}"


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

@dataclass
class BatchEvalStats:
    """Work accounting of a batch evaluation run.

    ``build_s`` is the evaluator construction time and ``warm_s`` the
    estimate-table warm-up, both reported separately from the search's
    ``elapsed_s`` so that a cold shared cache does not skew ES-vs-DOT
    search-time comparisons.  The ``pruned_*`` counters are written by the
    parallel engine (:mod:`repro.core.parallel_search`): subtrees are
    skipped by the per-prefix capacity bound, chunks by the incumbent-TOC
    bound; the ``*_layouts`` twins count the candidate layouts those skips
    avoided evaluating.
    """

    candidates: int = 0
    capacity_feasible: int = 0
    feasible: int = 0
    estimator_calls: int = 0
    oltp_aggregations: int = 0
    chunks: int = 0
    #: Coordinator evaluator construction time.
    build_s: float = 0.0
    #: Coordinator estimate-table warm-up time (``warm_signatures``).
    warm_s: float = 0.0
    #: Summed per-worker pool initializer time.  Workers adopt the
    #: coordinator's warmed evaluator, so this is their whole boot.
    attach_s: float = 0.0
    #: Cumulative wall time spent inside ``evaluate_chunk`` (the vectorized
    #: scoring itself, excluding enumeration and coordination overhead).
    eval_s: float = 0.0
    workers: int = 0
    shards: int = 0
    #: Shard units dispatched beyond each worker's initial share -- i.e.
    #: ranges idle workers pulled ("stole") from the coordinator deque.
    steals: int = 0
    #: Worker-local estimate-cache hit/miss deltas, folded once per
    #: ``(shard_id, attempt)`` so retried or stolen shards never double-count.
    cache_hits: int = 0
    cache_misses: int = 0
    pruned_subtrees: int = 0
    pruned_subtree_layouts: int = 0
    pruned_chunks: int = 0
    pruned_chunk_layouts: int = 0

    def merge(self, other: "BatchEvalStats") -> None:
        """Fold another stats delta (e.g. one worker's shard) into this one.

        Counting fields add up; ``workers``, ``build_s`` and ``warm_s``
        describe the coordinator and are stamped by the coordinating caller
        (a worker's boot, ``attach_s``, arrives on its first shard outcome,
        which this method does fold).
        """
        self.candidates += other.candidates
        self.capacity_feasible += other.capacity_feasible
        self.feasible += other.feasible
        self.estimator_calls += other.estimator_calls
        self.oltp_aggregations += other.oltp_aggregations
        self.chunks += other.chunks
        self.eval_s += other.eval_s
        self.shards += other.shards
        self.steals += other.steals
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.build_s += other.build_s
        self.warm_s += other.warm_s
        self.attach_s += other.attach_s
        self.pruned_subtrees += other.pruned_subtrees
        self.pruned_subtree_layouts += other.pruned_subtree_layouts
        self.pruned_chunks += other.pruned_chunks
        self.pruned_chunk_layouts += other.pruned_chunk_layouts

    @property
    def pruned_layouts(self) -> int:
        """Candidate layouts never evaluated thanks to either bound."""
        return self.pruned_subtree_layouts + self.pruned_chunk_layouts


@dataclass
class ChunkEvaluation:
    """Scores of one candidate chunk.

    ``toc_cents`` is ``inf`` for candidates failing the capacity pre-filter
    (their workload estimate is never computed, matching the scalar search's
    pre-filter); ``feasible`` combines capacity and SLA feasibility.
    """

    toc_cents: np.ndarray
    capacity_ok: np.ndarray
    feasible: np.ndarray

    @property
    def best_index(self) -> Optional[int]:
        """Row of the cheapest feasible candidate, or ``None``."""
        if not bool(self.feasible.any()):
            return None
        masked = np.where(self.feasible, self.toc_cents, np.inf)
        return int(np.argmin(masked))


class _QueryTable:
    """Per-query estimate table indexed by placement-signature slots."""

    __slots__ = (
        "query", "var_columns", "weights", "code_to_slot",
        "response_ms", "executions", "touched_classes",
        "dense", "_response_array",
    )

    def __init__(self, query, var_columns: List[int], num_classes: int):
        self.query = query
        self.var_columns = np.array(var_columns, dtype=np.int64)
        self.weights = _mixed_radix_weights(len(var_columns), num_classes) \
            if var_columns else np.zeros(0, dtype=np.int64)
        self.code_to_slot: Dict[int, int] = {}
        self.response_ms: List[float] = []
        self.executions: List[ExecutionResult] = []
        #: Per slot: {object_name: class_name} for the signature's placeable
        #: objects (used to type OLTP busy time by storage class).
        self.touched_classes: List[Dict[str, str]] = []
        #: Set by ``warm_signatures`` on a DSS table it filled from empty:
        #: every signature has a slot and slot == code, so the per-chunk
        #: ``np.unique``/dict translation is skipped.
        self.dense = False
        self._response_array: Optional[np.ndarray] = None

    def response_array(self) -> np.ndarray:
        """Responses indexed by slot, as one cached contiguous array
        (re-cached whenever a new slot was appended)."""
        cached = self._response_array
        if cached is None or cached.shape[0] != len(self.response_ms):
            cached = np.array(self.response_ms)
            self._response_array = cached
        return cached


class BatchLayoutEvaluator:
    """Scores batches of candidate layouts with array operations.

    Candidates are rows of an integer matrix: column ``k`` holds the storage
    class index (into ``system.class_names``) of the ``k``-th *variable*
    object.  Pinned objects are part of every candidate at a fixed class and
    participate in space, cost and query signatures, mirroring the scalar
    exhaustive search's ``pinned_objects`` semantics.

    Parameters
    ----------
    variable_objects:
        The objects the candidate columns assign, in column order.  The order
        must match the scalar enumeration being replaced (object order for
        flat enumeration, group-by-group member order for per-group
        enumeration) so that floating-point accumulation order -- and thus
        every result bit -- is preserved.
    pinned:
        ``(object, class_name)`` pairs included in every candidate.
    workload:
        The workload to estimate (DSS stream or OLTP mix).
    constraint:
        Optional SLA; only the two concrete paper constraint types are
        vectorizable, anything else raises
        :class:`UnsupportedBatchEvaluation`.
    cache:
        Optional shared :class:`QueryEstimateCache`; one built for another
        estimator or concurrency raises
        :class:`~repro.exceptions.ConfigurationError`.
    """

    def __init__(
        self,
        variable_objects: Sequence[DatabaseObject],
        system: StorageSystem,
        estimator,
        workload,
        pinned: Sequence[Tuple[DatabaseObject, str]] = (),
        constraint: Optional[PerformanceConstraint] = None,
        cache: Optional[QueryEstimateCache] = None,
    ):
        from repro.core.feasibility import constraint_signature

        if not variable_objects:
            raise UnsupportedBatchEvaluation("no variable objects to enumerate")
        kind = getattr(workload, "kind", "dss")
        if kind not in ("dss", "oltp"):
            raise UnsupportedBatchEvaluation(f"unsupported workload kind {kind!r}")
        signature = constraint_signature(constraint)
        if signature is None:
            raise UnsupportedBatchEvaluation(
                f"constraint type {type(constraint).__name__} is not vectorizable"
            )
        self._constraint_kind, self._constraint_data = signature
        if self._constraint_kind == "response_time" and kind != "dss":
            raise UnsupportedBatchEvaluation("response-time SLA on a non-DSS workload")
        if self._constraint_kind == "throughput" and kind != "oltp":
            raise UnsupportedBatchEvaluation("throughput SLA on a non-OLTP workload")

        self.system = system
        self.estimator = estimator
        self.workload = workload
        self.kind = kind
        self.concurrency = getattr(workload, "concurrency", 1)
        self.class_names: Tuple[str, ...] = tuple(system.class_names)
        self.classes: List[StorageClass] = [system[name] for name in self.class_names]
        self.num_classes = len(self.class_names)

        self.variable_objects = list(variable_objects)
        self.var_names = [obj.name for obj in self.variable_objects]
        self._var_index = {name: k for k, name in enumerate(self.var_names)}
        self.var_sizes = [obj.size_gb for obj in self.variable_objects]
        self.pinned = [(obj.name, system.class_names.index(class_name), obj.size_gb)
                       for obj, class_name in pinned]
        self._pinned_classes = {obj.name: class_name for obj, class_name in pinned}

        self.prices = [storage_class.price_cents_per_gb_hour for storage_class in self.classes]
        self.capacities = np.array(
            [storage_class.capacity_gb for storage_class in self.classes]
        )

        self.cache = cache if cache is not None else QueryEstimateCache(
            estimator, self.concurrency
        )
        self.cache.check_built_for(estimator, self.concurrency)
        self.stats = BatchEvalStats()

        if kind == "oltp":
            self._oltp = _OltpMixModel(workload, estimator, self.concurrency)
            self._instances = [query for query, _ in self._oltp.mix]
        else:
            self._instances = list(workload.queries)
        self._service_times = ServiceTimeTable(self.concurrency)
        self._oltp_aggregates: Dict[tuple, Tuple[float, float]] = {}

        self._fully_warmed = False
        self._tables: Dict[str, _QueryTable] = {}
        self._template_order: List[_QueryTable] = []
        for query in self._instances:
            if query.name in self._tables:
                continue
            var_columns = [
                self._var_index[name]
                for name in self.cache.signature_objects(query)
                if name in self._var_index
            ]
            table = _QueryTable(query, var_columns, self.num_classes)
            self._tables[query.name] = table
            self._template_order.append(table)

    # ------------------------------------------------------------------
    # Estimate-table warm-up and TOC lower bounds (parallel engine support)
    # ------------------------------------------------------------------
    def warm_signatures(self, deadline: Optional[float] = None) -> bool:
        """Pre-populate every query's estimate table over its full signature
        subspace.

        A query's estimate depends only on the classes of its signature
        objects, so its table has at most ``M^k`` slots (``k`` = signature
        objects that are variable columns).  Warming them all makes the
        (possibly shared) estimate cache a complete, read-only lookup
        structure: the parallel engine's pool workers, which adopt this very
        evaluator, never call the optimizer, and :meth:`time_floor_factors`
        can derive sound workload-time lower bounds from the now-exhaustive
        per-query response tables.

        A DSS table this call fills from empty becomes dense: the subspace
        is enumerated in mixed-radix order, so slot ``s`` holds signature
        code ``s`` by construction, and chunk scoring indexes the response
        array by code directly.  OLTP tables stay on the slot path, since
        their aggregation reads full executions, not just response times.

        Queries whose subspace exceeds :data:`WARM_MAX_SIGNATURES` are left
        to lazy on-demand estimation (correct, just not pre-warmed).  Once
        ``deadline`` (a ``time.monotonic`` instant, checked every
        :data:`WARM_SLICE` signatures) passes, the warm-up stops; a table cut
        short stays on the lazy slot path.  Returns True when every table was
        fully warmed.
        """
        fully = True
        for table in self._template_order:
            positions = len(table.var_columns)
            subspace = self.num_classes**positions
            if subspace > WARM_MAX_SIGNATURES:
                fully = False
                continue
            if table.dense:
                continue
            was_empty = not table.response_ms
            # Code order keeps slot == code on a table filled from empty.
            for start in range(0, subspace, WARM_SLICE):
                if deadline is not None and time.monotonic() >= deadline:
                    self._fully_warmed = False
                    return False
                codes = np.arange(start, min(start + WARM_SLICE, subspace))
                rows = np.zeros((codes.size, len(self.var_names)), dtype=np.int64)
                if positions:
                    rows[:, table.var_columns] = decode_assignments(
                        codes, positions, self.num_classes
                    )
                for code, row in zip(codes.tolist(), rows):
                    if code not in table.code_to_slot:
                        self._add_slot(table, code, row)
            if self.kind == "dss" and was_empty:
                table.dense = True
        self._fully_warmed = fully
        return fully

    def toc_floor_factor(self) -> float:
        """A factor ``f`` with ``TOC(row) >= layout_cost(row) * f`` for every
        candidate row, or ``0.0`` when no sound bound is available.

        For DSS workloads this is :meth:`time_floor_factors` at depth 0: the
        sum of each query instance's minimum response time over its (fully
        warmed) signature subspace.  For OLTP the throughput is bounded from
        above through the closed-loop population bound at the minimum
        achievable mix response time.  A small multiplicative margin absorbs
        floating-point rounding so the bound errs on the sound side; the
        incumbent pruning that consumes it compares strictly, so the margin
        never prunes a true optimum.
        """
        if not self._fully_warmed:
            return 0.0
        if self.kind == "dss":
            return float(self.time_floor_factors(0)[0])
        margin = 1.0 - 1e-9
        response_lb_ms = 0.0
        for query, weight in self._oltp.mix:
            table = self._tables[query.name]
            if not table.response_ms:
                return 0.0
            response_lb_ms += (weight / self._oltp.total_weight) * min(table.response_ms)
        response_lb_ms = max(response_lb_ms * margin, 1e-9)
        model = self._oltp.model
        tasks_per_hour_ub = (
            model.efficiency
            * (model.concurrency / (response_lb_ms / MS_PER_SECOND))
            * SECONDS_PER_HOUR
            * self._oltp.measured_fraction
        )
        if not (tasks_per_hour_ub > 0.0 and np.isfinite(tasks_per_hour_ub)):
            return 0.0
        return (1.0 / tasks_per_hour_ub) * margin

    def time_floor_factors(self, depth: int) -> Optional[np.ndarray]:
        """Per-prefix DSS workload-time floors for ``depth`` fixed columns.

        Entry ``p`` of the returned ``M**depth`` array is a factor ``f`` with
        ``TOC(row) >= layout_cost(row) * f`` for every candidate whose
        leading ``depth`` columns spell prefix code ``p`` (mixed radix,
        column 0 most significant -- the prefix's enumeration subtree).
        Each query instance contributes the minimum of its response table
        over the signature codes that agree with the fixed columns; the sum
        runs over the instances in workload order and converts to hours with
        the same ``1 - 1e-9`` margin as :meth:`toc_floor_factor`, which is
        the ``depth == 0`` case.  Every instance's term is at most the
        response the candidate's score adds in that position, so the floor
        is sound bit for bit.

        Returns ``None`` for OLTP workloads and before every table is fully
        warmed.  The array holds ``M**depth`` floats, so callers keep
        ``depth`` small.
        """
        if self.kind != "dss" or not self._fully_warmed:
            return None
        floors: Dict[str, np.ndarray] = {}
        total_ms = np.zeros((self.num_classes,) * depth)
        for query in self._instances:
            floor = floors.get(query.name)
            if floor is None:
                floor = self._prefix_response_floor(self._tables[query.name], depth)
                floors[query.name] = floor
            total_ms += floor
        return ((total_ms.reshape(-1) / MS_PER_SECOND) / SECONDS_PER_HOUR) * (1.0 - 1e-9)

    def _prefix_response_floor(self, table: _QueryTable, depth: int) -> np.ndarray:
        """One query's minimum response per prefix of ``depth`` columns,
        shaped to broadcast over the ``(M,) * depth`` prefix grid.

        The fully warmed table reshapes to ``(M,) * k`` with axis ``i`` the
        class of column ``var_columns[i]`` (the :func:`_mixed_radix_weights`
        order); the minimum runs over the axes of the free columns
        (``>= depth``) and the remaining axes move to their columns.
        """
        num_classes = self.num_classes
        responses = table.response_array()
        if not table.dense:
            # A table warmed after lazy scoring holds slots in first-use
            # order; put them back in code order.
            slot_of_code = np.empty(len(table.code_to_slot), dtype=np.intp)
            slot_of_code[list(table.code_to_slot)] = list(table.code_to_slot.values())
            responses = responses[slot_of_code]
        columns = table.var_columns
        grid = responses.reshape((num_classes,) * columns.size)
        free = tuple(int(axis) for axis in np.flatnonzero(columns >= depth))
        if free:
            grid = np.asarray(grid.min(axis=free))
        fixed = columns[columns < depth]
        grid = grid.transpose(np.argsort(fixed))
        shape = [1] * depth
        for column in fixed:
            shape[int(column)] = num_classes
        return grid.reshape(shape)

    # ------------------------------------------------------------------
    # Candidate materialization helpers
    # ------------------------------------------------------------------
    def assignment_for_row(self, row: np.ndarray) -> Dict[str, str]:
        """The object -> class-name dict of one candidate (scalar dict order:
        pinned objects first, then variable objects in column order)."""
        assignment = {name: self.class_names[class_index]
                      for name, class_index, _ in self.pinned}
        for column, name in enumerate(self.var_names):
            assignment[name] = self.class_names[int(row[column])]
        return assignment

    def _placement_for_row(self, row: np.ndarray) -> Dict[str, StorageClass]:
        placement = {name: self.classes[class_index]
                     for name, class_index, _ in self.pinned}
        placement.update(zip(self.var_names, [self.classes[index] for index in row.tolist()]))
        return placement

    # ------------------------------------------------------------------
    # Space, capacity and layout cost
    # ------------------------------------------------------------------
    def _space_used(self, var_assign: np.ndarray) -> np.ndarray:
        """Per-candidate space per class, accumulated in scalar-path order
        (pinned objects first, then variable objects column by column)."""
        return accumulate_space_used(
            var_assign,
            self.num_classes,
            self.var_sizes,
            [(class_index, size_gb) for _, class_index, size_gb in self.pinned],
        )

    def _layout_cost(self, used: np.ndarray) -> np.ndarray:
        """``C(L) = sum_j p_j * S_j`` with the scalar per-class add order."""
        cost = np.zeros(used.shape[0])
        for class_index, price in enumerate(self.prices):
            cost += price * used[:, class_index]
        return cost

    # ------------------------------------------------------------------
    # Per-query signature slots
    # ------------------------------------------------------------------
    def _slots_for(self, table: _QueryTable, sub_assign: np.ndarray) -> np.ndarray:
        """Slot index per candidate row, estimating new signatures on demand.

        New signatures are resolved through the (possibly shared) estimate
        cache in first-occurrence (enumeration) order; on a cold cache the
        optimizer's plan cache is therefore populated by exactly the same
        placements, in the same order, as in the scalar search, and a warm
        cache serves bitwise-identical executions without re-estimating.

        For a table :meth:`warm_signatures` densified, the slot *is* the
        signature code, so the per-chunk ``np.unique`` + dict translation
        (and any estimator traffic) disappears entirely.
        """
        if table.var_columns.size:
            codes = sub_assign[:, table.var_columns] @ table.weights
        else:
            codes = np.zeros(sub_assign.shape[0], dtype=np.int64)
        if table.dense:
            return codes
        unique_codes, first_rows, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        missing = [position for position, code in enumerate(unique_codes)
                   if int(code) not in table.code_to_slot]
        for position in sorted(missing, key=lambda p: first_rows[p]):
            self._add_slot(table, int(unique_codes[position]), sub_assign[first_rows[position]])
        slot_of_unique = np.array(
            [table.code_to_slot[int(code)] for code in unique_codes], dtype=np.intp
        )
        return slot_of_unique[inverse]

    def _add_slot(self, table: _QueryTable, code: int, row: np.ndarray) -> None:
        """Estimate signature ``code``, placed as candidate ``row``, into a
        new slot of ``table``."""
        placement = self._placement_for_row(row)
        misses_before = self.cache.misses
        execution = self.cache.get(table.query, placement)
        self.stats.estimator_calls += self.cache.misses - misses_before
        table.code_to_slot[code] = len(table.response_ms)
        table.response_ms.append(execution.response_time_ms)
        table.executions.append(execution)
        table.touched_classes.append(
            {
                name: placement[name].name
                for name in self.cache.signature_objects(table.query)
                if name in placement
            }
        )

    # ------------------------------------------------------------------
    # OLTP aggregation (per unique per-query slot tuple)
    # ------------------------------------------------------------------
    def _aggregate_oltp(self, slot_tuple: tuple) -> Tuple[float, float]:
        """``(tasks_per_hour, transactions_per_minute)`` for one slot tuple.

        Replicates ``WorkloadEstimator._run_mix`` (same merge and iteration
        order) from cached per-query executions; candidates sharing the slot
        tuple share the result bit for bit.
        """
        cached = self._oltp_aggregates.get(slot_tuple)
        if cached is not None:
            return cached
        class_of: Dict[str, str] = {}
        slots = iter(slot_tuple)

        def execution_for(query):
            slot = next(slots)
            table = self._tables[query.name]
            class_of.update(table.touched_classes[slot])
            return table.executions[slot]

        io_by_object, _, avg_response_ms, avg_cpu_ms = self._oltp.replay(execution_for)
        _, throughput = self._oltp.throughput(
            io_by_object,
            lambda object_name: self.system[class_of[object_name]],
            self._service_times,
            avg_response_ms,
            avg_cpu_ms,
        )
        tasks_per_hour = throughput.transactions_per_hour * self._oltp.measured_fraction
        transactions_per_minute = (
            throughput.transactions_per_minute * self._oltp.measured_fraction
        )
        result = (tasks_per_hour, transactions_per_minute)
        self._oltp_aggregates[slot_tuple] = result
        self.stats.oltp_aggregations += 1
        return result

    # ------------------------------------------------------------------
    # Chunk evaluation
    # ------------------------------------------------------------------
    def evaluate_chunk(self, var_assign: np.ndarray) -> ChunkEvaluation:
        """Score one batch of candidates.

        ``var_assign`` is a ``(batch, len(variable_objects))`` integer matrix
        of class indices.  Returns per-candidate TOC (``inf`` where the
        capacity pre-filter rejected the candidate) plus feasibility masks.
        The chunk's wall time accumulates into ``stats.eval_s`` (two
        ``perf_counter`` calls per ~4096-candidate chunk -- noise).
        """
        started = time.perf_counter()
        try:
            return self._evaluate_chunk(var_assign)
        finally:
            self.stats.eval_s += time.perf_counter() - started

    def _evaluate_chunk(self, var_assign: np.ndarray) -> ChunkEvaluation:
        var_assign = np.asarray(var_assign, dtype=np.int64)
        batch = var_assign.shape[0]
        self.stats.candidates += batch
        self.stats.chunks += 1

        used = self._space_used(var_assign)
        capacity_ok = (used <= self.capacities[None, :]).all(axis=1)
        toc_cents = np.full(batch, np.inf)
        feasible = np.zeros(batch, dtype=bool)
        rows = np.flatnonzero(capacity_ok)
        self.stats.capacity_feasible += int(rows.size)
        if rows.size == 0:
            return ChunkEvaluation(toc_cents, capacity_ok, feasible)

        cost = self._layout_cost(used[rows])
        sub_assign = var_assign[rows]
        slots = {
            table.query.name: self._slots_for(table, sub_assign)
            for table in self._template_order
        }

        if self.kind == "dss":
            total_ms = np.zeros(rows.size)
            performance_ok = np.ones(rows.size, dtype=bool)
            caps = self._constraint_data if self._constraint_kind == "response_time" else None
            response_arrays = {
                table.query.name: table.response_array()
                for table in self._template_order
            }
            for query in self._instances:
                response = response_arrays[query.name][slots[query.name]]
                total_ms += response
                cap = caps.get(query.name) if caps is not None else None
                if cap is not None:
                    performance_ok &= response <= cap
            toc_cents[rows] = cost * ((total_ms / MS_PER_SECOND) / SECONDS_PER_HOUR)
            feasible[rows] = performance_ok
        else:
            slot_matrix = np.stack(
                [slots[query.name] for query, _ in self._oltp.mix], axis=1
            )
            unique_rows, inverse = np.unique(slot_matrix, axis=0, return_inverse=True)
            tasks = np.empty(unique_rows.shape[0])
            tpm = np.empty(unique_rows.shape[0])
            for position, slot_row in enumerate(unique_rows):
                tasks[position], tpm[position] = self._aggregate_oltp(
                    tuple(int(slot) for slot in slot_row)
                )
            toc_cents[rows] = cost / tasks[inverse]
            if self._constraint_kind == "throughput":
                feasible[rows] = tpm[inverse] >= self._constraint_data
            else:
                feasible[rows] = True

        self.stats.feasible += int(feasible.sum())
        return ChunkEvaluation(toc_cents, capacity_ok, feasible)


# ---------------------------------------------------------------------------
# MILP coefficient tables
# ---------------------------------------------------------------------------

def group_placement_coefficients(
    groups, system: StorageSystem, profiles
) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
    """Cost and I/O-time coefficient vectors for every (group, placement).

    Returns ``(candidates, costs, times)`` where ``candidates`` lists
    ``(group, placement)`` pairs -- per group, every
    ``itertools.product(class_names, repeat=len(group))`` placement in
    product order -- and the arrays hold the layout-cost and Eq.-1
    time-share coefficients the MILP objective/constraints consume.  Service times are looked up once per
    (class, I/O type) instead of once per candidate; accumulation order
    matches the scalar helpers bit for bit.
    """
    class_names = tuple(system.class_names)
    num_classes = len(class_names)
    prices = np.array([system[name].price_cents_per_gb_hour for name in class_names])
    service_times = ServiceTimeTable(profiles.concurrency)

    def service_ms(class_index: int, io_type: IOType) -> float:
        return service_times.latency_ms(system[class_names[class_index]], io_type)

    candidates: List[tuple] = []
    cost_parts: List[np.ndarray] = []
    time_parts: List[np.ndarray] = []
    for group in groups:
        size = len(group.members)
        _, digits = next(iter_assignment_chunks(size, num_classes,
                                                chunk_size=num_classes**size))
        count = digits.shape[0]
        costs = np.zeros(count)
        for column, member in enumerate(group.members):
            costs += prices[digits[:, column]] * member.size_gb
        times = np.zeros(count)
        for position in range(count):
            placement = tuple(class_names[int(digit)] for digit in digits[position])
            profile = profiles.profile_for(placement)
            total_ms = 0.0
            for column, member in enumerate(group.members):
                by_type = profile.get(member.name, {})
                for io_type, io_count in by_type.items():
                    total_ms += io_count * service_ms(int(digits[position, column]), io_type)
            times[position] = total_ms
            candidates.append((group, placement))
        cost_parts.append(costs)
        time_parts.append(times)
    return candidates, np.concatenate(cost_parts), np.concatenate(time_parts)
