"""Device-level I/O simulation.

The reproduction has no physical disks, so "running" I/O against a storage
class means sampling per-request service times from the class's calibrated
I/O profile (with a small log-normal jitter to mimic measurement noise) and
accumulating busy time.  The simulator underpins the Section 3.5.1
micro-benchmark (which regenerates Table 1) and the "actual test run" mode
of the workload executor used by DOT's validation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.storage.io_profile import ALL_IO_TYPES, IOType
from repro.storage.storage_class import StorageClass


@dataclass(frozen=True)
class IORequest:
    """A batch of identical I/O requests issued against one storage class.

    Attributes
    ----------
    io_type:
        Access pattern of the batch.
    count:
        Number of individual I/O operations (or rows, for writes).
    object_name:
        Optional database object the batch belongs to; used for per-object
        accounting by the executor.
    """

    io_type: IOType
    count: float = 1.0
    object_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("I/O request count cannot be negative")


@dataclass
class DeviceCounters:
    """Accumulated per-I/O-type counters for a simulated device."""

    requests: Dict[IOType, float] = field(default_factory=lambda: {t: 0.0 for t in ALL_IO_TYPES})
    busy_time_ms: Dict[IOType, float] = field(default_factory=lambda: {t: 0.0 for t in ALL_IO_TYPES})

    def total_requests(self) -> float:
        """Total number of requests across all I/O types."""
        return sum(self.requests.values())

    def total_busy_time_ms(self) -> float:
        """Total device busy time across all I/O types."""
        return sum(self.busy_time_ms.values())

    def mean_service_time_ms(self, io_type: IOType) -> float:
        """Observed mean per-request service time for one I/O type."""
        count = self.requests[io_type]
        if count == 0:
            return 0.0
        return self.busy_time_ms[io_type] / count


class DeviceSimulator:
    """Simulates servicing I/O requests against one storage class.

    Parameters
    ----------
    storage_class:
        The storage class whose calibrated profile provides mean latencies.
    concurrency:
        Degree of concurrency (number of concurrent DBMS threads) under which
        the requests are issued; selects/interpolates the calibration point.
    jitter:
        Coefficient of variation of the log-normal measurement noise applied
        per request batch.  ``0`` disables noise entirely (deterministic).
    seed:
        Seed for the random generator used for jitter (anything
        ``numpy.random.default_rng`` accepts, including a ``SeedSequence``).
    """

    def __init__(
        self,
        storage_class: StorageClass,
        concurrency: int = 1,
        jitter: float = 0.05,
        seed: Optional[int] = None,
    ):
        if concurrency < 1:
            raise ValueError("degree of concurrency must be >= 1")
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.storage_class = storage_class
        self.concurrency = concurrency
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)
        self.counters = DeviceCounters()

    # ------------------------------------------------------------------
    def mean_service_time_ms(self, io_type: IOType) -> float:
        """Calibrated mean latency for one I/O of ``io_type`` at this concurrency."""
        return self.storage_class.service_time_ms(io_type, self.concurrency)

    def _sample_batch_time_ms(self, io_type: IOType, count: float) -> float:
        """Sample the busy time for a batch of ``count`` identical requests."""
        mean = self.mean_service_time_ms(io_type) * count
        if self.jitter == 0 or count == 0:
            return mean
        # Log-normal multiplicative noise with the requested coefficient of
        # variation; the batch mean stays centred on the calibrated value.
        sigma = float(np.sqrt(np.log1p(self.jitter**2)))
        factor = float(self._rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
        return mean * factor

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> float:
        """Service one request batch; returns the busy time in milliseconds."""
        elapsed = self._sample_batch_time_ms(request.io_type, request.count)
        self.counters.requests[request.io_type] += request.count
        self.counters.busy_time_ms[request.io_type] += elapsed
        return elapsed

    def run(self, requests: Iterable[IORequest]) -> float:
        """Service a sequence of request batches; returns total busy time (ms).

        A single device services its queue serially, so with ``K`` client
        threads the wall-clock elapsed time equals the accumulated busy time;
        the *effective per-request* time observed by each thread is therefore
        ``busy_time / total_requests`` which, by construction of the profile,
        converges to the calibrated latency at this degree of concurrency.
        """
        return sum(self.submit(request) for request in requests)

    def reset(self) -> None:
        """Clear accumulated counters."""
        self.counters = DeviceCounters()

    def observed_service_time_ms(self, io_type: IOType) -> float:
        """Mean observed per-request latency since the last reset."""
        return self.counters.mean_service_time_ms(io_type)
