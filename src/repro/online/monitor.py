"""Telemetry aggregation, workload-drift detection and trend forecasting.

The online advisor cannot see workload *definitions* change -- in a real
deployment it only sees the I/O stream.  This module watches exactly that:
per-epoch, per-object I/O counts taken from the executor/simulator's
:class:`~repro.dbms.executor.WorkloadRunResult`, folded into fresh
:class:`~repro.core.profiles.WorkloadProfileSet`s, and compared against the
telemetry observed when the current layout was last provisioned.

Drift is scored on two axes:

* **share drift** -- the total-variation distance between the normalised
  per-object I/O distributions (where the I/O goes moved);
* **volume drift** -- the relative change in total I/O count (how much I/O
  arrives changed).

Either exceeding its threshold marks the epoch as drifted, which is the
controller's trigger to re-profile and re-optimize.  A workload that does
not change (and is observed noise-free, i.e. in estimate mode) scores 0.0
on both axes and therefore never triggers a re-tier.

Two consumers sit on top of the telemetry history:

* :meth:`TelemetryMonitor.profile_set` turns the latest (or any projected)
  per-object counts into a :class:`~repro.core.profiles.WorkloadProfileSet`,
  which is how the controller re-profiles from *measurements* instead of
  replaying the workload through the estimator;
* :class:`TrendPredictor` extrapolates the per-object I/O-share trend over
  the telemetry window (least-squares slopes) so the controller can re-tier
  *before* a ramp or flash crowd peaks -- the anticipated drift decision is
  gated by exactly the same thresholds (and cooldown) as the reactive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.profiles import BaselinePlacement, WorkloadProfileSet
from repro.exceptions import TelemetryGapError
from repro.storage.storage_class import StorageSystem


@dataclass(frozen=True)
class EpochTelemetry:
    """Aggregated per-object I/O counts of one epoch."""

    epoch: int
    workload_name: str
    io_by_object: Dict[str, Dict[object, float]]
    total_ios: float

    def object_totals(self) -> Dict[str, float]:
        """Total I/O count per object (all I/O types pooled)."""
        return {
            object_name: sum(by_type.values())
            for object_name, by_type in self.io_by_object.items()
        }


@dataclass(frozen=True)
class DriftDecision:
    """Outcome of one drift check.

    ``in_cooldown`` is True when the thresholds were not even consulted
    because too few epochs have elapsed since the last re-provision --
    consumers adding their own triggers (the controller's SLA-violation
    re-tier) must honour it to keep the thrash protection intact.
    """

    drifted: bool
    share_distance: float
    volume_change: float
    reason: str
    in_cooldown: bool = False


@dataclass(frozen=True)
class PredictionDecision:
    """Outcome of one trend-extrapolation check.

    ``share_distance`` / ``volume_change`` score the *projected* telemetry
    (``epochs_ahead`` epochs past the latest observation) against the
    last-provisioned reference, on the same two axes as
    :class:`DriftDecision`; ``io_by_object`` carries the projected per-object
    counts so the controller can re-profile against the anticipated workload
    rather than the current one.
    """

    predicted: bool
    share_distance: float
    volume_change: float
    epochs_ahead: int
    reason: str
    io_by_object: Dict[str, Dict[object, float]] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass(frozen=True)
class DriftThresholds:
    """Configurable sensitivities of the drift detector.

    ``share_threshold`` bounds the total-variation distance between
    normalised per-object I/O distributions (0..1); ``volume_threshold``
    bounds the relative change in total I/O volume.  ``min_epochs_between``
    is a cooldown: after a re-provision, at least that many epochs must
    elapse before the next one (thrash protection).
    """

    share_threshold: float = 0.10
    volume_threshold: float = 0.50
    min_epochs_between: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.share_threshold <= 1.0:
            raise ValueError("share threshold must be in (0, 1]")
        if self.volume_threshold <= 0:
            raise ValueError("volume threshold must be positive")
        if self.min_epochs_between < 0:
            raise ValueError("cooldown cannot be negative")


@dataclass(frozen=True)
class OutlierPolicy:
    """MAD-based clamp for physically implausible telemetry epochs.

    A flaky I/O counter can report 25x the real traffic for one epoch; fed
    raw into the drift detector that single epoch would trigger a re-tier
    (and pollute the trend window) for a workload that never changed.  The
    clamp scores each incoming epoch's total I/O count against the median of
    the last ``window`` accepted epochs: a deviation beyond ``k`` times the
    median absolute deviation -- floored at ``rel_floor`` of the median so a
    noise-free history cannot make the test infinitely strict -- is treated
    as a counter glitch, and the epoch's counts are rescaled to the median
    volume (its *shares* are preserved: only the implausible magnitude is
    clamped).  Fewer than ``min_history`` accepted epochs, or a non-positive
    median, disables the test.
    """

    window: int = 5
    k: float = 6.0
    rel_floor: float = 0.05
    min_history: int = 3

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("outlier window must span at least two epochs")
        if self.k <= 0:
            raise ValueError("the MAD multiplier must be positive")
        if self.rel_floor < 0:
            raise ValueError("the relative floor cannot be negative")
        if self.min_history < 2:
            raise ValueError("need at least two epochs of history to clamp against")


@dataclass(frozen=True)
class TrendPredictor:
    """Extrapolates the per-object I/O-share trend of the telemetry window.

    The predictor fits one ordinary-least-squares slope per object to the
    I/O *shares* of the last ``window`` epochs observed under the currently
    deployed layout (telemetry from before the last re-provision is
    layout-dependent and excluded), plus one slope to the total I/O volume,
    and projects both ``horizon_epochs`` ahead.  Projected shares are
    clipped at zero and renormalised; projected counts distribute each
    object's projected total over its I/O types in the proportions of the
    latest observation.

    With fewer than ``min_history`` observations in the window no prediction
    is made -- in particular, a freshly re-provisioned layout must accumulate
    evidence again before the predictor can fire, which is the predictive
    path's thrash protection on top of the monitor's cooldown.
    """

    window: int = 4
    horizon_epochs: int = 2
    min_history: int = 3

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("trend window must span at least two epochs")
        if self.horizon_epochs < 1:
            raise ValueError("prediction horizon must be at least one epoch")
        if self.min_history < 2:
            raise ValueError("need at least two observations to fit a trend")
        if self.min_history > self.window:
            raise ValueError(
                "min_history cannot exceed the window: the truncated "
                "telemetry could never satisfy it and the predictor would "
                "silently never fire"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _slope(epochs: Sequence[float], values: Sequence[float]) -> float:
        """Least-squares per-epoch slope of one series."""
        x = np.asarray(epochs, dtype=float)
        y = np.asarray(values, dtype=float)
        x_centred = x - x.mean()
        denominator = float(np.dot(x_centred, x_centred))
        if denominator <= 0.0:
            return 0.0
        return float(np.dot(x_centred, y - y.mean()) / denominator)

    def project(self, telemetry_window: Sequence[EpochTelemetry]
                ) -> Optional[EpochTelemetry]:
        """The projected telemetry ``horizon_epochs`` past the latest epoch.

        Returns ``None`` when the window holds fewer than ``min_history``
        observations.  The projection is deterministic (no RNG).
        """
        entries = list(telemetry_window)[-self.window:]
        if len(entries) < self.min_history:
            return None
        latest = entries[-1]
        epochs = [float(entry.epoch) for entry in entries]
        totals = [entry.total_ios for entry in entries]

        object_names: List[str] = []
        for entry in entries:
            for name in entry.io_by_object:
                if name not in object_names:
                    object_names.append(name)
        totals_by_entry = [entry.object_totals() for entry in entries]
        sums_by_entry = [sum(totals.values()) for totals in totals_by_entry]
        share_series: Dict[str, List[float]] = {
            name: [
                totals.get(name, 0.0) / total if total > 0 else 0.0
                for totals, total in zip(totals_by_entry, sums_by_entry)
            ]
            for name in object_names
        }

        volume_hat = max(totals[-1] + self._slope(epochs, totals) * self.horizon_epochs, 0.0)
        shares_hat = {
            name: max(series[-1] + self._slope(epochs, series) * self.horizon_epochs, 0.0)
            for name, series in share_series.items()
        }
        share_total = sum(shares_hat.values())
        if share_total <= 0.0:
            shares_hat = {name: series[-1] for name, series in share_series.items()}
            share_total = sum(shares_hat.values())
            if share_total <= 0.0:
                return None
        shares_hat = {name: share / share_total for name, share in shares_hat.items()}

        io_by_object: Dict[str, Dict[object, float]] = {}
        for name in object_names:
            projected_total = shares_hat[name] * volume_hat
            if projected_total <= 0.0:
                continue
            by_type = None
            for entry in reversed(entries):
                if name in entry.io_by_object and sum(entry.io_by_object[name].values()) > 0:
                    by_type = entry.io_by_object[name]
                    break
            if by_type is None:
                continue
            type_total = sum(by_type.values())
            io_by_object[name] = {
                io_type: projected_total * (count / type_total)
                for io_type, count in by_type.items()
            }
        return EpochTelemetry(
            epoch=latest.epoch + self.horizon_epochs,
            workload_name=latest.workload_name,
            io_by_object=io_by_object,
            total_ios=sum(sum(by_type.values()) for by_type in io_by_object.values()),
        )


class TelemetryMonitor:
    """Aggregates epoch telemetry and flags workload drift.

    Parameters
    ----------
    system:
        The storage system (profile sets carry it for service-time lookups).
    thresholds:
        Drift sensitivities (:class:`DriftThresholds`).
    concurrency:
        Concurrency calibration point recorded in emitted profile sets.
    outlier_policy:
        Optional :class:`OutlierPolicy` enabling the MAD clamp on incoming
        telemetry; ``None`` (the default) accepts every epoch verbatim.

    Recovery actions the monitor takes on faulty telemetry (outlier clamps,
    recorded gaps) accumulate in :attr:`incidents`;
    :meth:`drain_incidents` hands them to the controller for the epoch
    record.
    """

    def __init__(self, system: StorageSystem,
                 thresholds: Optional[DriftThresholds] = None,
                 concurrency: int = 1,
                 outlier_policy: Optional[OutlierPolicy] = None):
        self.system = system
        self.thresholds = thresholds or DriftThresholds()
        self.concurrency = concurrency
        self.outlier_policy = outlier_policy
        self.history: List[EpochTelemetry] = []
        self.incidents: List[str] = []
        #: Epochs whose telemetry never arrived (dropouts); see observe_gap.
        self.gap_epochs: List[int] = []
        self._reference: Optional[EpochTelemetry] = None
        self._last_reprovision_epoch: Optional[int] = None
        self._window: List[EpochTelemetry] = []

    # ------------------------------------------------------------------
    @staticmethod
    def _telemetry_from(epoch: int, run_result) -> EpochTelemetry:
        io_by_object = {
            object_name: dict(by_type)
            for object_name, by_type in run_result.io_by_object.items()
        }
        return EpochTelemetry(
            epoch=epoch,
            workload_name=run_result.workload_name,
            io_by_object=io_by_object,
            total_ios=sum(sum(by_type.values()) for by_type in io_by_object.values()),
        )

    def observe(self, epoch: int, run_result) -> EpochTelemetry:
        """Fold one epoch's run result into the telemetry history.

        With an :class:`OutlierPolicy` configured, an epoch whose total I/O
        volume is implausible against the recent window is clamped to the
        median volume (shares preserved) before entering the history, and
        the clamp is recorded as an incident.
        """
        telemetry = self._telemetry_from(epoch, run_result)
        telemetry = self._clamp_outlier(telemetry)
        self.history.append(telemetry)
        self._window.append(telemetry)
        if self._reference is None:
            self._reference = telemetry
        return telemetry

    def observe_gap(self, epoch: int) -> None:
        """Record that ``epoch``'s telemetry never arrived (a dropout).

        The history is left untouched -- fabricating counts would corrupt
        both the drift reference and the trend window -- so drift checks
        keep scoring the last *real* observation and the controller falls
        back to estimator-derived profiles for any re-profiling this epoch.
        """
        self.gap_epochs.append(epoch)
        self.incidents.append(
            f"epoch {epoch}: telemetry dropout; holding last observation and "
            "falling back to estimator profiles"
        )

    def drain_incidents(self) -> List[str]:
        """Return and clear the accumulated telemetry incidents."""
        drained, self.incidents = self.incidents, []
        return drained

    def _clamp_outlier(self, telemetry: EpochTelemetry) -> EpochTelemetry:
        """Apply the MAD clamp to one incoming epoch (no-op without policy)."""
        policy = self.outlier_policy
        if policy is None or len(self.history) < policy.min_history:
            return telemetry
        totals = np.array(
            [entry.total_ios for entry in self.history[-policy.window:]], dtype=float
        )
        median = float(np.median(totals))
        if median <= 0.0:
            return telemetry
        mad = float(np.median(np.abs(totals - median)))
        threshold = policy.k * max(mad, policy.rel_floor * median)
        deviation = abs(telemetry.total_ios - median)
        if deviation <= threshold or telemetry.total_ios <= 0.0:
            return telemetry
        scale = median / telemetry.total_ios
        self.incidents.append(
            f"epoch {telemetry.epoch}: telemetry outlier clamped "
            f"({telemetry.total_ios:.0f} I/Os vs median {median:.0f}, "
            f"deviation {deviation:.0f} > {threshold:.0f}); volume rescaled "
            f"x{scale:.3g} with shares preserved"
        )
        return EpochTelemetry(
            epoch=telemetry.epoch,
            workload_name=telemetry.workload_name,
            io_by_object={
                object_name: {
                    io_type: count * scale for io_type, count in by_type.items()
                }
                for object_name, by_type in telemetry.io_by_object.items()
            },
            total_ios=telemetry.total_ios * scale,
        )

    def trend_window(self) -> List[EpochTelemetry]:
        """Telemetry observed under the *currently deployed* layout.

        Re-tiers can flip plans and shift I/O between objects, so slopes
        fitted across a re-provision boundary would mistake the layout change
        for workload drift; the window therefore restarts at every
        :meth:`mark_reprovisioned` (seeded with the rebased reference).
        """
        return list(self._window)

    def profile_set(self, pattern: Optional[BaselinePlacement] = None,
                    concurrency: Optional[int] = None) -> WorkloadProfileSet:
        """A fresh single-pattern profile set from the latest telemetry.

        The paper's TPC-C profiling shows a single observed baseline is
        enough when plans are placement-stable; the pattern defaults to the
        all-most-expensive placement so
        :meth:`WorkloadProfileSet._lookup`'s single-profile fallback serves
        every requested placement.  ``concurrency`` overrides the monitor's
        calibration point (the controller passes the epoch workload's own
        concurrency when kinds drift).
        """
        if not self.history:
            raise TelemetryGapError("no telemetry observed yet")
        return self.profile_set_from_counts(
            self.history[-1].io_by_object, pattern=pattern, concurrency=concurrency
        )

    def profile_set_from_counts(
        self,
        io_by_object: Dict[str, Dict[object, float]],
        pattern: Optional[BaselinePlacement] = None,
        concurrency: Optional[int] = None,
    ) -> WorkloadProfileSet:
        """Wrap arbitrary per-object counts (observed or projected) into a
        single-pattern profile set -- the common carrier for telemetry-driven
        and predictive re-profiling."""
        chosen = tuple(pattern) if pattern is not None else (
            self.system.most_expensive().name,
        )
        profile = WorkloadProfileSet(
            system=self.system,
            concurrency=self.concurrency if concurrency is None else concurrency,
        )
        profile.add(chosen, io_by_object)
        return profile

    # ------------------------------------------------------------------
    def check_drift(self) -> DriftDecision:
        """Score the latest epoch against the last-provisioned reference."""
        if not self.history:
            return DriftDecision(False, 0.0, 0.0, "no telemetry yet")
        latest = self.history[-1]
        reference = self._reference
        if reference is None or reference is latest:
            return DriftDecision(False, 0.0, 0.0, "reference epoch")

        share = self._share_distance(reference, latest)
        volume = self._volume_change(reference, latest)

        if self._last_reprovision_epoch is not None:
            elapsed = latest.epoch - self._last_reprovision_epoch
            if elapsed < self.thresholds.min_epochs_between:
                return DriftDecision(
                    False, share, volume,
                    f"cooldown ({elapsed}/{self.thresholds.min_epochs_between} epochs)",
                    in_cooldown=True,
                )

        if share > self.thresholds.share_threshold:
            return DriftDecision(
                True, share, volume,
                f"I/O share moved {share:.1%} > {self.thresholds.share_threshold:.1%}",
            )
        if volume > self.thresholds.volume_threshold:
            return DriftDecision(
                True, share, volume,
                f"I/O volume changed {volume:.1%} > {self.thresholds.volume_threshold:.1%}",
            )
        return DriftDecision(False, share, volume, "within thresholds")

    def check_predicted_drift(self, predictor: TrendPredictor) -> PredictionDecision:
        """Score the predictor's projected telemetry against the reference.

        The projection is gated by the same thresholds and re-provision
        cooldown as :meth:`check_drift`, so a predictive controller can never
        re-tier more often than its thrash protection allows; it only gets to
        re-tier *earlier* when the trend says the thresholds are about to be
        crossed.
        """
        reference = self._reference
        if reference is None or not self.history:
            return PredictionDecision(False, 0.0, 0.0, predictor.horizon_epochs,
                                      "no telemetry yet")
        latest = self.history[-1]
        if self._last_reprovision_epoch is not None:
            elapsed = latest.epoch - self._last_reprovision_epoch
            if elapsed < self.thresholds.min_epochs_between:
                return PredictionDecision(
                    False, 0.0, 0.0, predictor.horizon_epochs,
                    f"cooldown ({elapsed}/{self.thresholds.min_epochs_between} epochs)",
                )
        projected = predictor.project(self.trend_window())
        if projected is None:
            return PredictionDecision(
                False, 0.0, 0.0, predictor.horizon_epochs,
                f"insufficient telemetry ({len(self._window)}/{predictor.min_history} epochs)",
            )
        share = self._share_distance(reference, projected)
        volume = self._volume_change(reference, projected)
        if share > self.thresholds.share_threshold:
            return PredictionDecision(
                True, share, volume, predictor.horizon_epochs,
                f"projected I/O share moves {share:.1%} > "
                f"{self.thresholds.share_threshold:.1%} within "
                f"{predictor.horizon_epochs} epochs",
                io_by_object=projected.io_by_object,
            )
        if volume > self.thresholds.volume_threshold:
            return PredictionDecision(
                True, share, volume, predictor.horizon_epochs,
                f"projected I/O volume changes {volume:.1%} > "
                f"{self.thresholds.volume_threshold:.1%} within "
                f"{predictor.horizon_epochs} epochs",
                io_by_object=projected.io_by_object,
            )
        return PredictionDecision(False, share, volume, predictor.horizon_epochs,
                                  "projection within thresholds")

    def mark_reprovisioned(self, epoch: int, run_result=None) -> None:
        """Reset the drift reference after a re-provision at ``epoch``.

        Telemetry is layout-dependent (a re-tier can flip plans and shift
        I/O between objects), so callers should pass the ``run_result``
        observed *under the newly deployed layout* -- otherwise the next
        epoch's unchanged workload would score spurious drift against
        counts measured on the old layout.  The trend window restarts at the
        new reference.
        """
        if run_result is not None:
            self._reference = self._telemetry_from(epoch, run_result)
        elif self.history:
            self._reference = self.history[-1]
        self._last_reprovision_epoch = epoch
        self._window = [self._reference] if self._reference is not None else []

    # ------------------------------------------------------------------
    @staticmethod
    def _share_distance(a: EpochTelemetry, b: EpochTelemetry) -> float:
        """Total-variation distance between normalised per-object I/O shares."""
        totals_a = a.object_totals()
        totals_b = b.object_totals()
        sum_a = sum(totals_a.values())
        sum_b = sum(totals_b.values())
        if sum_a <= 0 or sum_b <= 0:
            return 0.0 if sum_a == sum_b else 1.0
        names = set(totals_a) | set(totals_b)
        distance = 0.0
        for name in names:
            distance += abs(totals_a.get(name, 0.0) / sum_a - totals_b.get(name, 0.0) / sum_b)
        return 0.5 * distance

    @staticmethod
    def _volume_change(a: EpochTelemetry, b: EpochTelemetry) -> float:
        """Relative change in total I/O volume."""
        if a.total_ios <= 0:
            return 0.0 if b.total_ios <= 0 else float("inf")
        return abs(b.total_ios - a.total_ios) / a.total_ios
