"""Seeded, deterministic fault injection for chaos-testing the advisor stack.

A provisioning run on a real fleet survives crashed workers, stragglers,
blown solve budgets, truncated checkpoints and telemetry gaps -- or it is not
useful.  This module makes those failure modes *injectable* so the recovery
machinery in :mod:`repro.core.parallel_search`, :mod:`repro.core.solver` and
:mod:`repro.online.controller` can be exercised deterministically:

* a :class:`FaultPlan` is pure data -- an explicit map from injection points
  (``(shard_id, attempt)`` for the parallel search, ``epoch`` for the online
  control plane) to :class:`FaultSpec` instructions.  Plans built through the
  seeded constructors (:meth:`FaultPlan.chaos_search`,
  :meth:`FaultPlan.chaos_online`) are reproducible bit for bit from their
  seed, and a plan is picklable so it travels to pool workers unchanged;
* a :class:`FaultInjector` wraps a plan at run time and answers the hook
  queries the machinery places at its injection points.  With no plan (or no
  entry for the query) every hook is a no-op, so production runs pay one
  dictionary lookup per injection point;
* :func:`fire_shard_fault` performs a shard-scoped fault inside a worker
  (raise, delay, or hard ``os._exit`` process kill), and
  :func:`corrupt_file` damages a checkpoint on disk the way a crashed or
  out-of-space writer would (truncation, garbled bytes, non-JSON junk).

The cardinal rule of every injected fault: recovery must reproduce the
fault-free result exactly (the parallel search's bitwise-identity contract)
or degrade along a declared path with the incident recorded -- never both
silently wrong and silently quiet.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, ShardFailureError

#: Fault kinds scoped to one enumeration shard attempt (parallel search).
SHARD_FAULT_KINDS = ("worker_crash", "shard_exception", "straggler_delay")
#: Fault kinds scoped to one epoch of the online control plane.
EPOCH_FAULT_KINDS = (
    "telemetry_dropout",
    "telemetry_outlier",
    "solver_overrun",
    "solver_error",
    "migration_failure",
)
#: Fault kinds scoped to one scheduler tick of the multi-tenant service.
SERVICE_FAULT_KINDS = ("worker_kill", "overload_burst", "slow_solve")
#: Checkpoint damage modes understood by :func:`corrupt_file`.
CORRUPTION_MODES = ("truncate", "garble", "junk")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault instruction.

    ``kind`` selects the failure mode; the remaining fields parameterise it
    (only the ones the kind reads matter):

    * ``straggler_delay`` -- sleep ``delay_s`` before processing;
    * ``telemetry_outlier`` -- scale the epoch's observed I/O counts by
      ``factor`` (a flaky counter reporting 25x the real traffic);
    * ``migration_failure`` -- fail the first ``attempts`` executor attempts;
    * ``solver_overrun`` -- stall the re-tier solve by ``delay_s`` so it
      blows its deadline (rather than erroring outright like
      ``solver_error``);
    * ``worker_kill`` -- crash ``count`` busy service workers at the tick,
      before their in-flight steps commit (the supervisor's heartbeat
      watchdog must detect and requeue);
    * ``overload_burst`` -- occupy ``count`` slots of the service's bounded
      work queue for the tick, forcing admission control to shed;
    * ``slow_solve`` -- charge ``delay_s`` extra wall-clock seconds to every
      solve dispatched at the tick (a stalled estimator or noisy neighbour).
    """

    kind: str
    delay_s: float = 0.0
    factor: float = 1.0
    attempts: int = 1
    count: int = 1
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SHARD_FAULT_KINDS + EPOCH_FAULT_KINDS + SERVICE_FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults to inject into one run.

    ``shard_faults`` keys are ``(shard_id, attempt)`` -- keying by attempt is
    what makes chaos runs *recoverable by construction*: a fault registered
    for attempt 0 does not re-fire on the retry, so a bounded-retry search
    converges to the fault-free answer.  ``epoch_faults`` keys are epoch
    numbers of the online loop; ``service_faults`` keys are scheduler ticks
    of the multi-tenant service daemon (kills/bursts/slowdowns only delay
    work -- shed items are re-offered -- so a chaos service run converges to
    the fault-free layouts the same way).
    """

    shard_faults: Dict[Tuple[int, int], FaultSpec] = field(default_factory=dict)
    epoch_faults: Dict[int, Tuple[FaultSpec, ...]] = field(default_factory=dict)
    service_faults: Dict[int, Tuple[FaultSpec, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_shard_fault(self, shard_id: int, spec: FaultSpec, attempt: int = 0) -> "FaultPlan":
        """Register one shard-scoped fault; returns self for chaining."""
        if spec.kind not in SHARD_FAULT_KINDS:
            raise ConfigurationError(f"{spec.kind!r} is not a shard-scoped fault")
        self.shard_faults[(shard_id, attempt)] = spec
        return self

    def add_epoch_fault(self, epoch: int, spec: FaultSpec) -> "FaultPlan":
        """Register one epoch-scoped fault; returns self for chaining."""
        if spec.kind not in EPOCH_FAULT_KINDS:
            raise ConfigurationError(f"{spec.kind!r} is not an epoch-scoped fault")
        self.epoch_faults[epoch] = self.epoch_faults.get(epoch, ()) + (spec,)
        return self

    def add_service_fault(self, tick: int, spec: FaultSpec) -> "FaultPlan":
        """Register one service-tick-scoped fault; returns self for chaining."""
        if spec.kind not in SERVICE_FAULT_KINDS:
            raise ConfigurationError(f"{spec.kind!r} is not a service-scoped fault")
        self.service_faults[tick] = self.service_faults.get(tick, ()) + (spec,)
        return self

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not (self.shard_faults or self.epoch_faults or self.service_faults)

    # ------------------------------------------------------------------
    @classmethod
    def chaos_search(
        cls,
        seed: int,
        shard_ids: Sequence[int],
        crash_fraction: float = 0.5,
        exception_fraction: float = 0.0,
        delay_fraction: float = 0.0,
        delay_s: float = 0.05,
    ) -> "FaultPlan":
        """A seeded chaos schedule over one enumeration's shards.

        Disjoint subsets of ``shard_ids`` are assigned a hard worker kill, a
        shard exception, or a straggler delay (all on attempt 0, so every
        shard recovers on its first retry).  The same seed always yields the
        same plan.
        """
        if crash_fraction + exception_fraction + delay_fraction > 1.0:
            raise ConfigurationError("fault fractions sum past 1.0: shards would overlap")
        rng = random.Random(seed)
        shuffled = list(shard_ids)
        rng.shuffle(shuffled)
        plan = cls()
        cursor = 0
        for fraction, kind in (
            (crash_fraction, "worker_crash"),
            (exception_fraction, "shard_exception"),
            (delay_fraction, "straggler_delay"),
        ):
            count = int(round(fraction * len(shuffled)))
            for shard_id in shuffled[cursor:cursor + count]:
                plan.add_shard_fault(shard_id, FaultSpec(kind=kind, delay_s=delay_s))
            cursor += count
        return plan

    @classmethod
    def chaos_online(
        cls,
        seed: int,
        num_epochs: int,
        dropout_fraction: float = 0.2,
        outlier_fraction: float = 0.0,
        outlier_factor: float = 25.0,
        solver_error_epochs: Sequence[int] = (),
        solver_overrun_epochs: Sequence[int] = (),
        overrun_delay_s: float = 0.0,
        migration_failure_epochs: Sequence[int] = (),
        migration_failure_attempts: int = 1,
    ) -> "FaultPlan":
        """A seeded chaos schedule over one online run's epochs.

        Epoch 0 (the cold initial provisioning) is never given a telemetry
        fault -- there is no telemetry before the first observation to drop.
        Dropouts and outliers draw from disjoint epoch subsets.
        """
        rng = random.Random(seed)
        eligible = list(range(1, num_epochs))
        rng.shuffle(eligible)
        plan = cls()
        dropouts = int(round(dropout_fraction * num_epochs))
        outliers = int(round(outlier_fraction * num_epochs))
        for epoch in eligible[:dropouts]:
            plan.add_epoch_fault(epoch, FaultSpec(kind="telemetry_dropout"))
        for epoch in eligible[dropouts:dropouts + outliers]:
            plan.add_epoch_fault(
                epoch, FaultSpec(kind="telemetry_outlier", factor=outlier_factor)
            )
        for epoch in solver_error_epochs:
            plan.add_epoch_fault(epoch, FaultSpec(kind="solver_error"))
        for epoch in solver_overrun_epochs:
            plan.add_epoch_fault(
                epoch, FaultSpec(kind="solver_overrun", delay_s=overrun_delay_s)
            )
        for epoch in migration_failure_epochs:
            plan.add_epoch_fault(
                epoch,
                FaultSpec(kind="migration_failure", attempts=migration_failure_attempts),
            )
        return plan

    @classmethod
    def chaos_service(
        cls,
        seed: int,
        num_ticks: int,
        kill_fraction: float = 0.1,
        kill_count: int = 1,
        burst_fraction: float = 0.1,
        burst_slots: int = 4,
        slow_fraction: float = 0.1,
        slow_s: float = 0.02,
    ) -> "FaultPlan":
        """A seeded kill/overload/slow-solve storm over one service run.

        Disjoint tick subsets get a worker kill (``kill_count`` workers
        crash before their in-flight steps commit), an overload burst
        (``burst_slots`` queue slots occupied, shedding admissions) or a
        slow solve (``delay_s`` charged to every step of the tick).  Tick 0
        is spared so the storm always hits a running service, and the same
        seed yields the same storm -- the chaos recovery lock compares the
        stormed run bitwise against the fault-free one.
        """
        if kill_fraction + burst_fraction + slow_fraction > 1.0:
            raise ConfigurationError("fault fractions sum past 1.0: ticks would overlap")
        rng = random.Random(seed)
        eligible = list(range(1, num_ticks))
        rng.shuffle(eligible)
        plan = cls()
        cursor = 0
        for fraction, spec in (
            (kill_fraction, FaultSpec(kind="worker_kill", count=kill_count)),
            (burst_fraction, FaultSpec(kind="overload_burst", count=burst_slots)),
            (slow_fraction, FaultSpec(kind="slow_solve", delay_s=slow_s)),
        ):
            count = int(round(fraction * num_ticks))
            for tick in eligible[cursor:cursor + count]:
                plan.add_service_fault(tick, spec)
            cursor += count
        return plan


class FaultInjector:
    """Runtime face of a :class:`FaultPlan`: the hooks the machinery queries.

    Instances are cheap, stateless between queries (all determinism lives in
    the plan) and picklable, so one injector serves the coordinator and every
    pool worker.  ``injector=None`` at every injection point means "no
    faults"; the hooks below also accept a missing plan entry as a no-op.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()

    # -- parallel search -------------------------------------------------
    def shard_fault(self, shard_id: int, attempt: int) -> Optional[FaultSpec]:
        """The fault (if any) scheduled for this shard attempt."""
        return self.plan.shard_faults.get((shard_id, attempt))

    # -- online control plane --------------------------------------------
    def _epoch_fault(self, epoch: int, *kinds: str) -> Optional[FaultSpec]:
        for spec in self.plan.epoch_faults.get(epoch, ()):
            if spec.kind in kinds:
                return spec
        return None

    def telemetry_fault(self, epoch: int) -> Optional[FaultSpec]:
        """A telemetry dropout/outlier scheduled for this epoch, if any."""
        return self._epoch_fault(epoch, "telemetry_dropout", "telemetry_outlier")

    def solver_fault(self, epoch: int) -> Optional[FaultSpec]:
        """A solver error/overrun scheduled for this epoch, if any."""
        return self._epoch_fault(epoch, "solver_error", "solver_overrun")

    def migration_fault(self, epoch: int, attempt: int) -> bool:
        """True when this migration-executor attempt should fail."""
        spec = self._epoch_fault(epoch, "migration_failure")
        return spec is not None and attempt < spec.attempts

    # -- multi-tenant service --------------------------------------------
    def _service_fault(self, tick: int, kind: str) -> Optional[FaultSpec]:
        for spec in self.plan.service_faults.get(tick, ()):
            if spec.kind == kind:
                return spec
        return None

    def worker_kills(self, tick: int) -> int:
        """How many service workers an injected kill crashes at this tick."""
        spec = self._service_fault(tick, "worker_kill")
        return spec.count if spec is not None else 0

    def burst_slots(self, tick: int) -> int:
        """Queue slots an injected overload burst occupies at this tick."""
        spec = self._service_fault(tick, "overload_burst")
        return spec.count if spec is not None else 0

    def solve_delay_s(self, tick: int) -> float:
        """Extra seconds an injected slowdown charges to solves at this tick."""
        spec = self._service_fault(tick, "slow_solve")
        return spec.delay_s if spec is not None else 0.0


def fire_shard_fault(spec: FaultSpec, shard_id: int, attempt: int,
                     allow_process_kill: bool = True) -> None:
    """Perform one shard-scoped fault at its injection point.

    Runs inside the worker (or the in-process serial path, where a hard
    process kill is demoted to an exception -- killing the coordinator would
    test nothing).  ``worker_crash`` uses ``os._exit`` so not even cleanup
    handlers run: the pool loses the process mid-task exactly like an OOM
    kill, and the coordinator sees only the worker's pipe close.
    """
    if spec.kind == "straggler_delay":
        time.sleep(spec.delay_s)
        return
    if spec.kind == "worker_crash" and allow_process_kill:
        os._exit(17)
    raise ShardFailureError(
        spec.message or f"injected {spec.kind} on shard {shard_id} attempt {attempt}",
        shard_id=shard_id,
        attempts=attempt + 1,
    )


def corrupt_file(path: Union[str, Path], mode: str = "truncate", seed: int = 0) -> Path:
    """Damage a file on disk the way real checkpoint corruption does.

    * ``truncate`` -- keep only the first half of the bytes (a writer that
      died mid-flush or ran out of space);
    * ``garble`` -- overwrite a span in the middle with seeded random bytes
      (bit rot / a torn sector), keeping the length unchanged;
    * ``junk`` -- replace the content with non-JSON garbage.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "garble":
        rng = random.Random(seed)
        blob = bytearray(data)
        span = max(1, len(blob) // 8)
        start = len(blob) // 3
        for position in range(start, min(start + span, len(blob))):
            blob[position] = rng.randrange(256)
        path.write_bytes(bytes(blob))
    elif mode == "junk":
        path.write_bytes(b"\x00not json at all\xff")
    else:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r} (known: {', '.join(CORRUPTION_MODES)})"
        )
    return path


__all__ = [
    "SHARD_FAULT_KINDS",
    "EPOCH_FAULT_KINDS",
    "CORRUPTION_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "fire_shard_fault",
    "corrupt_file",
]
