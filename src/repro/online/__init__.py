"""Online re-provisioning: workload drift, migration-aware TOC, epoch loop.

The paper's advisor provisions a *static* layout for a *fixed* workload;
this package keeps provisioning as the workload moves.  It adds four
pieces on top of the core pipeline:

* :mod:`repro.online.drift` -- time-varying workloads composed from the
  existing generators under phase schedules (ramp, diurnal, flash crowd,
  OLTP-to-OLAP crossfade -- including *cross-kind* crossfades whose epochs
  blend an OLTP mix with a DSS stream) with seeded, reproducible epoch
  streams;
* :mod:`repro.online.monitor` -- per-epoch, per-object I/O telemetry folded
  into workload profiles, threshold-based drift detection, and the
  :class:`TrendPredictor` that extrapolates the telemetry window so the
  loop can re-tier before a ramp or flash crowd peaks;
* :mod:`repro.online.migration` -- migration plans between layouts, the
  analytic cost model charging bytes moved between class pairs against the
  TOC, and the amortization policy gating every re-tier;
* :mod:`repro.online.controller` -- the :class:`OnlineAdvisor` epoch loop:
  each epoch evaluates through one
  :class:`~repro.core.context.EvaluationContext` per pure component
  (per-concurrency estimate tables shared across epochs), re-profiles from
  telemetry (the estimator replay only runs at cold start and on telemetry
  dropouts) and re-tiers through the uniform
  :class:`~repro.core.solver.Solver` protocol (warm-started DOT by
  default), emitting a timeline of layouts, PSRs and cumulative
  migration-aware cost.
"""

from repro.online.drift import (
    DriftingWorkloadGenerator,
    EpochWorkload,
    PhaseSchedule,
    WorkloadPhase,
)
from repro.online.monitor import (
    DriftDecision,
    DriftThresholds,
    EpochTelemetry,
    PredictionDecision,
    TelemetryMonitor,
    TrendPredictor,
)
from repro.online.migration import (
    MigrationCost,
    MigrationCostModel,
    MigrationPlan,
    ObjectMove,
    ReProvisioningPolicy,
)
from repro.online.controller import (
    EpochRecord,
    FrozenEpochRecord,
    FrozenRunResult,
    OnlineAdvisor,
    OnlineLoop,
    OnlineRunResult,
)

__all__ = [
    "DriftingWorkloadGenerator",
    "EpochWorkload",
    "PhaseSchedule",
    "WorkloadPhase",
    "DriftDecision",
    "DriftThresholds",
    "EpochTelemetry",
    "PredictionDecision",
    "TelemetryMonitor",
    "TrendPredictor",
    "MigrationCost",
    "MigrationCostModel",
    "MigrationPlan",
    "ObjectMove",
    "ReProvisioningPolicy",
    "EpochRecord",
    "FrozenEpochRecord",
    "FrozenRunResult",
    "OnlineAdvisor",
    "OnlineLoop",
    "OnlineRunResult",
]
