"""Workload estimation and simulated execution.

DOT needs two things from the DBMS substrate (paper Figure 2):

* **Optimizer estimates** -- for a candidate layout, how many I/Os of each
  type does the workload issue against each object, and what is the estimated
  response time / throughput?  (``estimateTOC`` in Procedure 1 and the
  profiling phase of Section 3.4, mode (a).)  An estimate is its plan's
  numbers and nothing else -- no buffer pool, no noise -- so two placements
  that agree on a query's signature objects get the same estimate, which is
  what lets :class:`~repro.core.batch_eval.QueryEstimateCache` reuse it.
* **Test runs** -- for the validation phase, a simulated "real" execution that
  may deviate from the estimates (buffer-pool hits, measurement noise) and
  yields actual I/O statistics.  (Section 3.4, mode (b).)

:class:`WorkloadEstimator` provides both, working from the storage-aware
optimizer's plans.  A DSS workload is a sequence of queries executed one
after another (response-time metric); an OLTP workload is a weighted
transaction mix executed by a closed population of clients (throughput
metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dbms.buffer_pool import BufferPool
from repro.dbms.catalog import DatabaseCatalog
from repro.dbms.concurrency import ClosedLoopModel, ThroughputEstimate
from repro.dbms.cost_model import CostModel, CostParameters
from repro.dbms.optimizer import QueryOptimizer
from repro.dbms.plan import ObjectIOCounts, QueryPlan, merge_io_counts, scale_io_counts
from repro.dbms.query import Query
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageClass
from repro.units import SECONDS_PER_HOUR


@dataclass
class ExecutionResult:
    """Outcome of estimating or simulating a single query."""

    query_name: str
    response_time_ms: float
    io_time_ms: float
    cpu_time_ms: float
    io_counts: ObjectIOCounts
    plan: Optional[QueryPlan] = None


@dataclass
class WorkloadRunResult:
    """Outcome of estimating or simulating a whole workload under one layout."""

    workload_name: str
    kind: str
    concurrency: int
    per_query_times_ms: List[Tuple[str, float]] = field(default_factory=list)
    io_by_object: ObjectIOCounts = field(default_factory=dict)
    busy_time_by_class_ms: Dict[str, float] = field(default_factory=dict)
    total_time_s: float = 0.0
    throughput: Optional[ThroughputEstimate] = None
    measured_transaction_fraction: float = 1.0

    # ------------------------------------------------------------------
    @property
    def total_time_hours(self) -> float:
        """Execution time of the workload in hours (``t(L, W)`` for DSS)."""
        return self.total_time_s / SECONDS_PER_HOUR

    @property
    def tasks_per_hour(self) -> float:
        """Throughput ``T(L, W)`` in tasks/hour.

        For DSS workloads a "task" is one full pass over the query stream;
        for OLTP workloads it is one measured transaction (e.g. New-Order).
        """
        if self.throughput is not None:
            return self.throughput.transactions_per_hour * self.measured_transaction_fraction
        if self.total_time_hours <= 0:
            return float("inf")
        return 1.0 / self.total_time_hours

    @property
    def transactions_per_minute(self) -> Optional[float]:
        """tpmC-style metric for OLTP workloads (measured transactions only)."""
        if self.throughput is None:
            return None
        return self.throughput.transactions_per_minute * self.measured_transaction_fraction

    def query_time_ms(self, query_name: str) -> float:
        """Response time of the first query with the given name."""
        for name, time_ms in self.per_query_times_ms:
            if name == query_name:
                return time_ms
        raise KeyError(query_name)

    def times_by_query(self) -> Dict[str, List[float]]:
        """All response times grouped by query name."""
        grouped: Dict[str, List[float]] = {}
        for name, time_ms in self.per_query_times_ms:
            grouped.setdefault(name, []).append(time_ms)
        return grouped


class WorkloadEstimator:
    """Estimates and simulates workloads on top of the storage-aware optimizer.

    Parameters
    ----------
    catalog:
        The database catalog (schema plus statistics).
    parameters:
        Cost-model constants.
    temp_object:
        Optional name of the temporary-space object used for spills.
    buffer_pool:
        Buffer pool applied in *test-run* mode (estimates ignore caching, as
        the paper's estimates do; the TPC-C experiments get the buffer's
        effect from test-run profiling).
    noise:
        Coefficient of variation of the log-normal noise applied to simulated
        ("actual") query times.  Estimates are always noise-free.
    oltp_efficiency:
        Efficiency factor of the closed-loop throughput model (lock/latch
        interference at high concurrency).
    seed:
        Random seed for the test-run noise.
    """

    def __init__(
        self,
        catalog: DatabaseCatalog,
        parameters: Optional[CostParameters] = None,
        temp_object: Optional[str] = None,
        buffer_pool: Optional[BufferPool] = None,
        noise: float = 0.03,
        oltp_efficiency: float = 0.85,
        seed: Optional[int] = 2011,
    ):
        self.catalog = catalog
        self.parameters = parameters or CostParameters()
        self.optimizer = QueryOptimizer(catalog, self.parameters, temp_object=temp_object)
        self.buffer_pool = buffer_pool
        self.noise = noise
        self.oltp_efficiency = oltp_efficiency
        self._rng = np.random.default_rng(seed)
        self._object_sizes: Dict[str, float] = {
            obj.name: obj.size_gb for obj in catalog.database_objects()
        }

    # ------------------------------------------------------------------
    # Placement signatures
    # ------------------------------------------------------------------
    def signature_objects(self, query: Query) -> Tuple[str, ...]:
        """Objects whose storage class can influence this query's estimate.

        The optimizer's :meth:`~repro.dbms.optimizer.QueryOptimizer.signature_objects`,
        which its plan cache keys on: the query's referenced objects plus the
        temporary-space object.  Two placements agreeing on these objects
        produce identical estimates -- the invariant the estimate cache and
        the batch evaluator key their tables on.
        """
        return self.optimizer.signature_objects(query)

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def estimate_query(
        self, query: Query, placement: Mapping[str, StorageClass], concurrency: int = 1
    ) -> ExecutionResult:
        """Optimizer estimate for one query under one placement."""
        plan = self.optimizer.plan(query, placement, concurrency=concurrency)
        return ExecutionResult(
            query_name=query.name,
            response_time_ms=plan.io_time_ms + plan.cpu_time_ms,
            io_time_ms=plan.io_time_ms,
            cpu_time_ms=plan.cpu_time_ms,
            io_counts=plan.io_by_object,
            plan=plan,
        )

    def simulate_query(
        self, query: Query, placement: Mapping[str, StorageClass], concurrency: int = 1
    ) -> ExecutionResult:
        """Simulated "actual" execution of one query (buffer pool + noise)."""
        plan = self.optimizer.plan(query, placement, concurrency=concurrency)
        io_counts = plan.io_by_object
        if self.buffer_pool is not None:
            io_counts = self.buffer_pool.absorb_reads(io_counts, self._object_sizes)
        cost_model = CostModel(placement, concurrency=concurrency, parameters=self.parameters)
        io_time_ms = cost_model.io_time_for_counts(io_counts)
        cpu_time_ms = plan.cpu_time_ms
        response = io_time_ms + cpu_time_ms
        if self.noise > 0:
            sigma = float(np.sqrt(np.log1p(self.noise**2)))
            response *= float(self._rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
        return ExecutionResult(
            query_name=query.name,
            response_time_ms=response,
            io_time_ms=io_time_ms,
            cpu_time_ms=cpu_time_ms,
            io_counts=io_counts,
            plan=plan,
        )

    # ------------------------------------------------------------------
    # Query streams (DSS)
    # ------------------------------------------------------------------
    def _run_stream(
        self,
        queries: Sequence[Query],
        placement: Mapping[str, StorageClass],
        concurrency: int,
        workload_name: str,
        simulate: bool,
    ) -> WorkloadRunResult:
        runner = self.simulate_query if simulate else self.estimate_query
        result = WorkloadRunResult(
            workload_name=workload_name, kind="dss", concurrency=concurrency
        )
        cost_model = CostModel(placement, concurrency=concurrency, parameters=self.parameters)
        total_ms = 0.0
        for query in queries:
            execution = runner(query, placement, concurrency)
            result.per_query_times_ms.append((query.name, execution.response_time_ms))
            merge_io_counts(result.io_by_object, execution.io_counts)
            total_ms += execution.response_time_ms
        result.total_time_s = total_ms / 1000.0
        result.busy_time_by_class_ms = cost_model.io_time_by_class(result.io_by_object)
        return result

    # ------------------------------------------------------------------
    # Transaction mixes (OLTP)
    # ------------------------------------------------------------------
    def _run_mix(
        self,
        mix: Sequence[Tuple[Query, float]],
        placement: Mapping[str, StorageClass],
        concurrency: int,
        workload_name: str,
        simulate: bool,
        measured_fraction: float,
        duration_s: float,
    ) -> WorkloadRunResult:
        runner = self.simulate_query if simulate else self.estimate_query
        total_weight = sum(weight for _, weight in mix)
        if total_weight <= 0:
            raise ValueError("transaction mix weights must sum to a positive value")
        cost_model = CostModel(placement, concurrency=concurrency, parameters=self.parameters)

        avg_io_counts: ObjectIOCounts = {}
        avg_response_ms = 0.0
        avg_cpu_ms = 0.0
        result = WorkloadRunResult(
            workload_name=workload_name,
            kind="oltp",
            concurrency=concurrency,
            measured_transaction_fraction=measured_fraction,
        )
        for query, weight in mix:
            share = weight / total_weight
            execution = runner(query, placement, concurrency)
            result.per_query_times_ms.append((query.name, execution.response_time_ms))
            merge_io_counts(result.io_by_object, scale_io_counts(execution.io_counts, share))
            avg_response_ms += share * execution.response_time_ms
            avg_cpu_ms += share * execution.cpu_time_ms

        busy_by_class = cost_model.io_time_by_class(result.io_by_object)
        model = ClosedLoopModel(concurrency=concurrency, efficiency=self.oltp_efficiency)
        result.throughput = model.estimate(
            response_time_ms=max(avg_response_ms, 1e-9),
            busy_time_by_class_ms=busy_by_class,
            cpu_time_ms=avg_cpu_ms,
        )
        result.busy_time_by_class_ms = busy_by_class
        result.total_time_s = duration_s
        return result

    # ------------------------------------------------------------------
    # Workload-level dispatch
    # ------------------------------------------------------------------
    def estimate_workload(self, workload, placement: Mapping[str, StorageClass]) -> WorkloadRunResult:
        """Optimizer-estimate a workload (no caching effects, no noise)."""
        return self._dispatch(workload, placement, simulate=False)

    def run_workload(self, workload, placement: Mapping[str, StorageClass]) -> WorkloadRunResult:
        """Simulate an "actual" run of a workload (buffer pool + noise)."""
        return self._dispatch(workload, placement, simulate=True)

    def _dispatch(self, workload, placement, simulate: bool) -> WorkloadRunResult:
        kind = getattr(workload, "kind", "dss")
        concurrency = getattr(workload, "concurrency", 1)
        name = getattr(workload, "name", "workload")
        if kind == "oltp":
            return self._run_mix(
                mix=workload.transaction_mix,
                placement=placement,
                concurrency=concurrency,
                workload_name=name,
                simulate=simulate,
                measured_fraction=getattr(workload, "measured_transaction_fraction", 1.0),
                duration_s=getattr(workload, "duration_s", 3600.0),
            )
        return self._run_stream(
            queries=list(workload.queries),
            placement=placement,
            concurrency=concurrency,
            workload_name=name,
            simulate=simulate,
        )
