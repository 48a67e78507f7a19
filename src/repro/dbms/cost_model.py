"""Storage-aware cost estimation (the paper's extended query optimizer, Section 3.5).

A stock PostgreSQL cost model assumes a single random/sequential page cost for
the whole database.  The paper's extension makes plan costs depend on *which
storage class each object lives on*; this module provides exactly that: given
a placement (object name -> storage class) and a degree of concurrency, it
converts per-object I/O counts into milliseconds using each class's calibrated
I/O profile, and adds CPU time from per-row constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.exceptions import UnknownObjectError
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageClass


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model.

    The CPU constants play the role of PostgreSQL's ``cpu_tuple_cost`` /
    ``cpu_operator_cost`` but are expressed directly in milliseconds so the
    optimizer's output is a response-time estimate (Section 3.5: I/O time
    plus CPU time).
    """

    #: CPU time to process one row through a scan or filter (ms).
    cpu_tuple_cost_ms: float = 0.0002
    #: CPU time to apply one operator/aggregate step to a row (ms).
    cpu_operator_cost_ms: float = 0.00005
    #: CPU time to insert one row into a hash table or probe it (ms).
    cpu_hash_cost_ms: float = 0.0003
    #: CPU time per row per comparison level while sorting (ms).
    cpu_sort_cost_ms: float = 0.0004
    #: CPU time to navigate one B+-tree level (ms).
    cpu_index_descent_cost_ms: float = 0.0005
    #: Memory available to a single sort/hash before spilling (MB).
    work_mem_mb: float = 256.0
    #: Share of an unclustered index scan's heap fetches that hit a page
    #: already fetched by the same scan (simple correlation discount).
    heap_refetch_discount: float = 0.0
    #: Number of upper B+-tree levels assumed resident in memory: descents
    #: only pay I/O for the levels below them (root and first interior levels
    #: of any actively used index are effectively always cached).
    cached_index_levels: int = 2

    def __post_init__(self) -> None:
        for field_name in (
            "cpu_tuple_cost_ms",
            "cpu_operator_cost_ms",
            "cpu_hash_cost_ms",
            "cpu_sort_cost_ms",
            "cpu_index_descent_cost_ms",
            "work_mem_mb",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} cannot be negative")
        if not 0.0 <= self.heap_refetch_discount < 1.0:
            raise ValueError("heap_refetch_discount must be in [0, 1)")
        if self.cached_index_levels < 0:
            raise ValueError("cached_index_levels cannot be negative")

    def descent_io_levels(self, height: int) -> float:
        """Number of index levels a descent actually reads from storage."""
        return float(max(height - self.cached_index_levels, 1))


def placed_class(placement: Mapping[str, StorageClass], object_name: str) -> StorageClass:
    """The storage class ``placement`` puts an object on.

    Raises :class:`UnknownObjectError` naming the object when the placement
    has no entry for it.
    """
    try:
        return placement[object_name]
    except KeyError:
        raise UnknownObjectError(
            f"object {object_name!r} has no storage assignment in this placement"
        ) from None


class ServiceTimeTable:
    """Memoized per-(storage class, I/O type) service times at one concurrency.

    Values are exactly ``StorageClass.service_time_ms`` results, cached like
    :meth:`CostModel.io_latency_ms` does per placement but shared across
    every placement priced at this concurrency.  Classes are keyed by name,
    as the optimizer's plan cache and the estimate tables key them.
    """

    __slots__ = ("concurrency", "_cache")

    def __init__(self, concurrency: int):
        self.concurrency = concurrency
        self._cache: Dict[Tuple[str, IOType], float] = {}

    def latency_ms(self, storage_class: StorageClass, io_type: IOType) -> float:
        key = (storage_class.name, io_type)
        cached = self._cache.get(key)
        if cached is None:
            cached = storage_class.service_time_ms(io_type, self.concurrency)
            self._cache[key] = cached
        return cached


class CostModel:
    """Converts I/O counts and row counts into time under a given placement.

    Parameters
    ----------
    placement:
        Mapping from object name to the :class:`StorageClass` it is placed on.
        Every object a plan touches must be present.
    concurrency:
        Degree of concurrency used to pick effective per-I/O latencies.
    parameters:
        CPU and memory constants.
    """

    def __init__(
        self,
        placement: Mapping[str, StorageClass],
        concurrency: int = 1,
        parameters: Optional[CostParameters] = None,
    ):
        if concurrency < 1:
            raise ValueError("degree of concurrency must be >= 1")
        self.placement = dict(placement)
        self.concurrency = concurrency
        self.parameters = parameters or CostParameters()
        # Cache of per-(object, io_type) latencies; placements are immutable
        # for the lifetime of a CostModel instance.
        self._latency_cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def storage_class_for(self, object_name: str) -> StorageClass:
        """The storage class an object is placed on."""
        return placed_class(self.placement, object_name)

    def io_latency_ms(self, object_name: str, io_type: IOType) -> float:
        """Effective per-I/O latency for one object at this concurrency."""
        key = (object_name, io_type)
        cached = self._latency_cache.get(key)
        if cached is None:
            storage_class = self.storage_class_for(object_name)
            cached = storage_class.service_time_ms(io_type, self.concurrency)
            self._latency_cache[key] = cached
        return cached

    def io_time_ms(self, object_name: str, io_type: IOType, count: float) -> float:
        """Time to perform ``count`` I/Os of ``io_type`` against one object."""
        if count <= 0:
            return 0.0
        return count * self.io_latency_ms(object_name, io_type)

    def io_time_for_counts(self, io_counts: Mapping[str, Mapping[IOType, float]]) -> float:
        """Total I/O time for a per-object I/O count structure (paper Eq. 1)."""
        total = 0.0
        for object_name, by_type in io_counts.items():
            for io_type, count in by_type.items():
                total += self.io_time_ms(object_name, io_type, count)
        return total

    def io_time_by_class(
        self, io_counts: Mapping[str, Mapping[IOType, float]]
    ) -> Dict[str, float]:
        """I/O busy time per storage class (used by the throughput model)."""
        busy: Dict[str, float] = {}
        for object_name, by_type in io_counts.items():
            class_name = self.storage_class_for(object_name).name
            for io_type, count in by_type.items():
                busy[class_name] = busy.get(class_name, 0.0) + self.io_time_ms(
                    object_name, io_type, count
                )
        return busy

    # ------------------------------------------------------------------
    # CPU helpers
    # ------------------------------------------------------------------
    def scan_cpu_ms(self, rows: float) -> float:
        """CPU time to scan/filter ``rows`` rows."""
        return rows * self.parameters.cpu_tuple_cost_ms

    def hash_cpu_ms(self, build_rows: float, probe_rows: float) -> float:
        """CPU time to build a hash table and probe it."""
        return (build_rows + probe_rows) * self.parameters.cpu_hash_cost_ms

    def sort_cpu_ms(self, rows: float) -> float:
        """CPU time to sort ``rows`` rows (n log2 n comparisons)."""
        if rows <= 1:
            return 0.0
        import math

        return rows * math.log2(rows) * self.parameters.cpu_sort_cost_ms

    def aggregate_cpu_ms(self, rows: float) -> float:
        """CPU time to aggregate ``rows`` input rows."""
        return rows * self.parameters.cpu_operator_cost_ms

    def index_probe_cpu_ms(self, probes: float, height: int) -> float:
        """CPU time for ``probes`` B+-tree descents of the given height."""
        return probes * height * self.parameters.cpu_index_descent_cost_ms

    def work_mem_bytes(self) -> float:
        """Available working memory per operator in bytes."""
        return self.parameters.work_mem_mb * 1024.0 * 1024.0
