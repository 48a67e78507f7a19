"""The supervised multi-tenant advisor daemon.

:class:`AdvisorService` fronts the existing solver/online machinery with a
control plane: tenants register :class:`~repro.service.tenants.TenantSpec`
registrations, a bounded :class:`~repro.service.queue.WorkQueue` admits one
work item per (tenant, epoch) under budgets and backpressure, and a
:class:`~repro.service.supervisor.Supervisor`-owned worker pool advances
each tenant's :class:`~repro.online.controller.OnlineLoop` one epoch per
item.  Everything is driven by a deterministic **tick loop**:

1. the watchdog restarts (with backoff) workers whose heartbeats died;
2. the pump offers every idle tenant's next epoch to admission (injected
   overload bursts occupy queue slots; sheds are counted with reasons and
   re-offered next tick -- overload delays work, never skips it);
3. free workers take queued items deficit-round-robin;
4. injected ``worker_kill`` faults crash workers *before their step
   commits* -- the in-flight item requeues with a bumped attempt;
5. surviving steps execute, settle their budget charge, and **commit** to
   the write-ahead journal (the layout assignment travels in the record);
6. every ``snapshot_every_ticks`` ticks the scheduler state (queue
   contents, consumed budgets, breaker circuits, cursors) snapshots.

Because a killed step never ran (its loop never advanced) and sheds only
delay admission, a chaos-stormed run executes the exact same per-tenant
epoch sequence as a fault-free run -- the chaos recovery lock in the test
suite pins that the final layouts match *bitwise*.  :meth:`recover` rebuilds
a crashed service from journal + snapshots and re-executes committed epochs,
verifying every replayed layout against the journaled assignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import CheckpointCorruptionError, ConfigurationError
from repro.obs import instrument as obs_instrument
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.online.controller import OnlineAdvisor
from repro.resilience.faults import FaultInjector
from repro.service.breaker import BreakerBoard, GuardedFallbackSolver
from repro.service.journal import JOURNAL_NAME, Journal, SnapshotStore
from repro.service.queue import AdmissionController, WorkItem, WorkQueue
from repro.service.supervisor import Supervisor
from repro.service.tenants import TenantRuntime, TenantSpec, build_runtime

LOG = obs_log.get_logger("repro.service")

#: EWMA weight of the newest step measurement in the declared-cost estimate.
_COST_ALPHA = 0.5
#: Dispatch attempts per epoch before the tenant is marked failed.
MAX_STEP_ATTEMPTS = 4


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one advisor service instance."""

    workers: int = 2
    queue_depth: int = 8
    snapshot_every_ticks: int = 8
    #: ``fsync`` every journal append (turn off only in benchmarks).
    sync_journal: bool = True


@dataclass(frozen=True)
class TenantStatus:
    """One tenant's summary row in a :class:`ServiceReport`."""

    tenant_id: str
    epochs_committed: int
    num_epochs: int
    done: bool
    exhausted: bool
    failed: bool
    final_assignment: Optional[Dict[str, str]]
    cumulative_cost_cents: float
    provenance: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {
            "tenant_id": self.tenant_id,
            "epochs_committed": self.epochs_committed,
            "num_epochs": self.num_epochs,
            "done": self.done,
            "exhausted": self.exhausted,
            "failed": self.failed,
            "final_assignment": self.final_assignment,
            "cumulative_cost_cents": self.cumulative_cost_cents,
            "provenance": list(self.provenance),
        }


@dataclass(frozen=True)
class ServiceReport:
    """The outcome of one service session (or recovery session)."""

    ticks: int
    tenants: Dict[str, TenantStatus]
    shed: Dict[str, int]
    admitted: int
    completed_epochs: int
    worker_kills: int
    worker_restarts: int
    workers_retired: int
    breaker_trips: int
    breaker_states: Dict[str, str]
    replayed_epochs: int = 0
    recovered: bool = False
    torn_tail_note: Optional[str] = None

    @property
    def all_done(self) -> bool:
        """True when every tenant finished (committed, exhausted or failed)."""
        return all(status.done for status in self.tenants.values())

    def layouts(self) -> Dict[str, Optional[Dict[str, str]]]:
        """Final deployed assignment per tenant (the convergence-lock key)."""
        return {tid: status.final_assignment for tid, status in self.tenants.items()}

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (run records and the example walkthrough use it)."""
        return {
            "ticks": self.ticks,
            "tenants": {tid: status.to_dict() for tid, status in self.tenants.items()},
            "shed": dict(self.shed),
            "admitted": self.admitted,
            "completed_epochs": self.completed_epochs,
            "worker_kills": self.worker_kills,
            "worker_restarts": self.worker_restarts,
            "workers_retired": self.workers_retired,
            "breaker_trips": self.breaker_trips,
            "breaker_states": dict(self.breaker_states),
            "replayed_epochs": self.replayed_epochs,
            "recovered": self.recovered,
            "torn_tail_note": self.torn_tail_note,
        }


@dataclass
class _Assignment:
    """One dispatched (worker, item) pair of the current tick."""

    worker: object
    item: WorkItem


class AdvisorService:
    """A supervised, crash-safe, multi-tenant advisor daemon.

    All state transitions happen inside :meth:`tick`; :meth:`run` drives
    ticks until every tenant finished and wraps the session in the usual
    observability envelope (``service.run`` span, ``service.*`` metrics,
    one run record of kind ``"service"`` when recording is active).
    """

    def __init__(self, state_dir: Union[str, Path],
                 config: Optional[ServiceConfig] = None,
                 fault_injector: Optional[FaultInjector] = None):
        self.state_dir = Path(state_dir)
        self.config = config if config is not None else ServiceConfig()
        self.injector = fault_injector
        self.journal = Journal(self.state_dir / JOURNAL_NAME, sync=self.config.sync_journal)
        self.snapshots = SnapshotStore(self.state_dir / "snapshots")
        self.queue = WorkQueue(max_depth=self.config.queue_depth)
        self.admission = AdmissionController(self.queue)
        self.supervisor = Supervisor(workers=self.config.workers)
        self.board = BreakerBoard()
        self.solver = GuardedFallbackSolver(board=self.board)
        self.tenants: Dict[str, TenantRuntime] = {}
        self.ticks = 0
        self.draining = False
        self.shed_counts: Dict[str, int] = {}
        self.admitted = 0
        self.completed_epochs = 0
        self.replayed_epochs = 0
        self.recovered = False
        self.torn_tail_note: Optional[str] = None
        #: Wall seconds of every committed step (the bench's p99 source).
        self.step_s: List[float] = []

    # -- registration --------------------------------------------------
    def register(self, spec: TenantSpec) -> TenantRuntime:
        """Register one tenant: build its runtime and journal the spec."""
        if self.draining:
            raise ConfigurationError("cannot register tenants on a draining service")
        if spec.tenant_id in self.tenants:
            raise ConfigurationError(f"tenant {spec.tenant_id!r} is already registered")
        runtime = self._admit_tenant(spec)
        self.journal.append("tenant_registered", spec=spec.to_dict())
        LOG.info("service: registered tenant %s (%s, %d epochs, drift=%s)",
                 spec.tenant_id, spec.scenario, spec.num_epochs, spec.drift)
        return runtime

    def _admit_tenant(self, spec: TenantSpec) -> TenantRuntime:
        """Build and wire a tenant runtime without journaling (recovery path)."""
        runtime = build_runtime(spec, self.solver)
        self.tenants[spec.tenant_id] = runtime
        self.admission.register_tenant(spec.tenant_id, budget_s=spec.budget_s)
        return runtime

    # -- explicit (raising) admission ----------------------------------
    def submit_next(self, tenant_id: str) -> WorkItem:
        """Admit the tenant's next epoch or raise the typed shed error.

        The tick loop's pump uses the non-raising :meth:`AdmissionController.
        offer` and simply retries next tick; this is the strict client API
        (:class:`~repro.exceptions.AdmissionRejectedError` and friends).
        """
        runtime = self.tenants.get(tenant_id)
        if runtime is None:
            raise ConfigurationError(f"unknown tenant {tenant_id!r}")
        if runtime.in_flight or runtime.done:
            raise ConfigurationError(
                f"tenant {tenant_id!r} has no admissible next epoch "
                f"(in_flight={runtime.in_flight}, done={runtime.done})"
            )
        item = self._next_item(runtime)
        self.admission.require(item, burst_slots=self._burst_slots(),
                               draining=self.draining)
        runtime.in_flight = True
        self.admitted += 1
        return item

    def _next_item(self, runtime: TenantRuntime) -> WorkItem:
        """The work item for a tenant's cursor epoch, cost pre-declared."""
        return WorkItem(
            tenant_id=runtime.spec.tenant_id,
            epoch=runtime.cursor,
            cost_units=runtime.predicted_step_s,
            attempt=runtime.attempts,
            enqueued_tick=self.ticks,
        )

    def _burst_slots(self) -> int:
        return self.injector.burst_slots(self.ticks) if self.injector else 0

    # -- the tick loop -------------------------------------------------
    @property
    def all_done(self) -> bool:
        """True when no tenant has schedulable work left."""
        return all(runtime.done for runtime in self.tenants.values())

    def tick(self) -> None:
        """Advance the service by one deterministic scheduler tick."""
        self.ticks += 1
        self.board.tick = self.ticks
        registry = obs_metrics.get_metrics()
        registry.counter("service.ticks").inc()

        # 1. Watchdog: restart (or retire) workers whose heartbeats died.
        for incident in self.supervisor.watchdog(self.ticks):
            registry.counter("service.worker_restarts").inc()
            self.journal.append("worker_restarted", tick=self.ticks, incident=incident)
            LOG.info("service: %s", incident)

        # 2. Pump: offer every idle tenant's next epoch to admission.
        if not self.draining:
            self._pump(registry)

        # 3. Dispatch free workers over the queue, fair-share order.
        assignments: List[_Assignment] = []
        for worker in self.supervisor.available(self.ticks):
            item = self.queue.take()
            if item is None:
                break
            self.supervisor.dispatch(worker)
            assignments.append(_Assignment(worker, item))

        # 4. Injected kills crash workers *before* their step commits.
        kills = self.injector.worker_kills(self.ticks) if self.injector else 0
        victims, survivors = assignments[:kills], assignments[kills:]
        for assignment in victims:
            self._kill(assignment, registry)

        # 5. Surviving steps execute and commit.
        for assignment in survivors:
            self._execute(assignment, registry)

        # 6. Periodic snapshot + gauges.
        if self.config.snapshot_every_ticks and (
                self.ticks % self.config.snapshot_every_ticks == 0):
            self.save_snapshot()
        registry.gauge("service.queue_depth").set(self.queue.depth)

    def _pump(self, registry) -> None:
        """Offer one item per idle tenant; count and journal the sheds."""
        burst = self._burst_slots()
        for runtime in self.tenants.values():
            if runtime.in_flight or runtime.done:
                continue
            item = self._next_item(runtime)
            decision = self.admission.offer(item, burst_slots=burst,
                                            draining=self.draining)
            if decision.admitted:
                runtime.in_flight = True
                self.admitted += 1
                registry.counter("service.admitted").inc()
                continue
            self.shed_counts[decision.reason] = self.shed_counts.get(decision.reason, 0) + 1
            registry.counter("service.shed").inc()
            registry.counter(f"service.shed.{decision.reason}").inc()
            self.journal.append("work_shed", tick=self.ticks,
                                tenant_id=item.tenant_id, epoch=item.epoch,
                                reason=decision.reason)
            runtime.note(
                f"tick {self.ticks}: epoch {item.epoch} shed ({decision.reason})"
            )
            if decision.reason == "budget_exhausted":
                runtime.exhausted = True
                runtime.note(
                    f"tick {self.ticks}: budget exhausted "
                    f"({self.admission.used_s(item.tenant_id):.3f}s of "
                    f"{self.admission.budget_s(item.tenant_id)}s); tenant stopped"
                )
                LOG.warning("service: tenant %s stopped (budget exhausted)",
                            item.tenant_id)

    def _kill(self, assignment: _Assignment, registry) -> None:
        """Crash one dispatched worker; requeue its uncommitted item."""
        item = assignment.item
        self.supervisor.kill(assignment.worker, self.ticks)
        registry.counter("service.worker_kills").inc()
        self.journal.append("worker_killed", tick=self.ticks,
                            worker_id=assignment.worker.worker_id,
                            tenant_id=item.tenant_id, epoch=item.epoch,
                            attempt=item.attempt)
        runtime = self.tenants[item.tenant_id]
        runtime.note(
            f"tick {self.ticks}: worker {assignment.worker.worker_id} killed "
            f"holding epoch {item.epoch} (attempt {item.attempt}); requeued"
        )
        LOG.info("service: worker %d killed holding %s epoch %d",
                 assignment.worker.worker_id, item.tenant_id, item.epoch)
        self._requeue(runtime, item, registry)

    def _requeue(self, runtime: TenantRuntime, item: WorkItem, registry) -> None:
        """Requeue an admitted-but-uncommitted item, bounding its attempts."""
        runtime.attempts = item.attempt + 1
        if runtime.attempts >= MAX_STEP_ATTEMPTS:
            runtime.failed = True
            runtime.in_flight = False
            runtime.note(
                f"tick {self.ticks}: epoch {item.epoch} exceeded "
                f"{MAX_STEP_ATTEMPTS} attempts; tenant failed"
            )
            registry.counter("service.step_failures").inc()
            LOG.error("service: tenant %s failed (epoch %d retry bound)",
                      runtime.spec.tenant_id, item.epoch)
            return
        retry = WorkItem(tenant_id=item.tenant_id, epoch=item.epoch,
                         cost_units=item.cost_units, attempt=runtime.attempts,
                         enqueued_tick=self.ticks)
        self.queue.push(retry)  # capacity-exempt: already admitted

    def _execute(self, assignment: _Assignment, registry) -> None:
        """Run one tenant step to completion and commit it to the journal."""
        item = assignment.item
        runtime = self.tenants[item.tenant_id]
        delay_s = self.injector.solve_delay_s(self.ticks) if self.injector else 0.0
        started = time.perf_counter()
        try:
            record = runtime.loop.step(runtime.epochs[item.epoch])
        except Exception as exc:  # the loop degrades internally; this is rare
            registry.counter("service.step_errors").inc()
            runtime.note(
                f"tick {self.ticks}: epoch {item.epoch} raised "
                f"{type(exc).__name__}: {exc}; retrying"
            )
            self.supervisor.complete(assignment.worker, self.ticks)
            self._requeue(runtime, item, registry)
            return
        actual_s = (time.perf_counter() - started) + delay_s
        if delay_s:
            runtime.note(
                f"tick {self.ticks}: epoch {item.epoch} slowed by injected "
                f"{delay_s:.3f}s solve delay"
            )
        self.admission.settle(item, actual_s)
        self.step_s.append(actual_s)
        runtime.predicted_step_s = (
            actual_s if runtime.predicted_step_s == 0.0
            else (1 - _COST_ALPHA) * runtime.predicted_step_s + _COST_ALPHA * actual_s
        )
        self.journal.append(
            "epoch_committed",
            tick=self.ticks,
            tenant_id=item.tenant_id,
            epoch=item.epoch,
            attempt=item.attempt,
            assignment=record.layout.assignment(),
            toc_cents=record.toc_cents,
            psr=record.psr,
            migrated=record.migrated,
            epoch_cost_cents=record.epoch_cost_cents,
            cumulative_cost_cents=record.cumulative_cost_cents,
            incidents=list(record.incidents),
        )
        runtime.cursor += 1
        runtime.in_flight = False
        runtime.attempts = 0
        for incident in record.incidents:
            runtime.note(f"epoch {item.epoch}: {incident}")
        self.completed_epochs += 1
        registry.counter("service.completed_epochs").inc()
        self.supervisor.complete(assignment.worker, self.ticks)

    # -- durability ----------------------------------------------------
    def save_snapshot(self):
        """Snapshot the scheduler state at the journal's current watermark."""
        state = {
            "tick": self.ticks,
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "used_budget_s": self.admission.snapshot(),
            "breakers": self.board.snapshot(),
            "supervisor": self.supervisor.snapshot(),
            "counters": {
                "shed": dict(self.shed_counts),
                "admitted": self.admitted,
                "completed_epochs": self.completed_epochs,
            },
            "tenants": {
                tid: {
                    "cursor": runtime.cursor,
                    "attempts": runtime.attempts,
                    "exhausted": runtime.exhausted,
                    "failed": runtime.failed,
                    "predicted_step_s": runtime.predicted_step_s,
                    "provenance": list(runtime.provenance),
                }
                for tid, runtime in self.tenants.items()
            },
        }
        return self.snapshots.save(self.journal.last_seq, state)

    # -- session drivers -----------------------------------------------
    def run(self, max_ticks: Optional[int] = None) -> ServiceReport:
        """Tick until every tenant finished (or ``max_ticks`` elapsed).

        Observed as one ``service.run`` span; folds nothing per tick beyond
        the cheap ``service.*`` counters and -- when recording is active at
        the outermost scope -- persists one run record of kind
        ``"service"``.
        """
        tracer = obs_trace.get_tracer()
        obs_instrument.enter_scope()
        started = time.perf_counter()
        root = tracer.start_span("service.run", solver=self.solver.name,
                                 tenants=len(self.tenants))
        report: Optional[ServiceReport] = None
        try:
            guard = 0
            while not self.all_done:
                if max_ticks is not None and guard >= max_ticks:
                    break
                self.tick()
                guard += 1
            report = self.report()
            return report
        finally:
            wall_s = time.perf_counter() - started
            if report is not None:
                root.set(ticks=report.ticks,
                         completed_epochs=report.completed_epochs,
                         shed=sum(report.shed.values()),
                         worker_kills=report.worker_kills)
            tracer.end_span(root)
            outermost = obs_instrument.exit_scope()
            if report is not None:
                for runtime in self.tenants.values():
                    OnlineAdvisor._fold_run_metrics(runtime.loop.result())
                if outermost and obs_recorder.active_store() is not None:
                    obs_recorder.maybe_record(
                        "service",
                        self.solver.name,
                        elapsed_s=wall_s,
                        wall_s=wall_s,
                        stats=report.to_dict(),
                        metrics_snapshot=obs_metrics.get_metrics().snapshot(),
                        spans=root.to_dict(),
                    )

    def shutdown(self, drain: bool = True, max_ticks: int = 64) -> None:
        """Stop the service: drain in-flight work, snapshot, close the journal.

        With ``drain=False`` (a hard stop) queued work stays queued -- the
        journal + snapshot carry it and :meth:`recover` resumes it.
        """
        self.draining = True
        if drain:
            guard = 0
            while (self.queue.depth > 0 or any(
                    runtime.in_flight for runtime in self.tenants.values())):
                if guard >= max_ticks:
                    break
                self.tick()
                guard += 1
        self.save_snapshot()
        self.journal.close()
        LOG.info("service: shut down after %d ticks (%d epochs committed)",
                 self.ticks, self.completed_epochs)

    def report(self) -> ServiceReport:
        """The current session summary."""
        statuses = {}
        for tid, runtime in self.tenants.items():
            deployed = runtime.loop.deployed
            statuses[tid] = TenantStatus(
                tenant_id=tid,
                epochs_committed=runtime.cursor,
                num_epochs=runtime.spec.num_epochs,
                done=runtime.done,
                exhausted=runtime.exhausted,
                failed=runtime.failed,
                final_assignment=deployed.assignment() if deployed is not None else None,
                cumulative_cost_cents=runtime.loop.cumulative,
                provenance=tuple(runtime.provenance),
            )
        return ServiceReport(
            ticks=self.ticks,
            tenants=statuses,
            shed=dict(self.shed_counts),
            admitted=self.admitted,
            completed_epochs=self.completed_epochs,
            worker_kills=self.supervisor.kills,
            worker_restarts=self.supervisor.restarts,
            workers_retired=self.supervisor.retired,
            breaker_trips=self.board.trips,
            breaker_states=self.board.states(),
            replayed_epochs=self.replayed_epochs,
            recovered=self.recovered,
            torn_tail_note=self.torn_tail_note,
        )

    def layouts(self) -> Dict[str, Optional[Dict[str, str]]]:
        """Deployed assignment per tenant right now."""
        return {
            tid: (runtime.loop.deployed.assignment()
                  if runtime.loop.deployed is not None else None)
            for tid, runtime in self.tenants.items()
        }

    # -- crash recovery ------------------------------------------------
    @classmethod
    def recover(cls, state_dir: Union[str, Path],
                config: Optional[ServiceConfig] = None,
                fault_injector: Optional[FaultInjector] = None) -> "AdvisorService":
        """Rebuild a crashed service from its journal and snapshots.

        The journal is the redo log *and* the integrity oracle: tenant specs
        are re-registered from ``tenant_registered`` records, committed
        epochs are **re-executed** through the same
        :meth:`~repro.online.controller.OnlineLoop.step` path, and every
        replayed layout is verified bitwise against the journaled
        assignment -- a mismatch raises
        :class:`~repro.exceptions.CheckpointCorruptionError` rather than
        resuming from silently diverged state.  Scheduler state the journal
        does not re-derive (queue contents, consumed budgets, breaker
        circuits) restores from the latest intact snapshot, and the tick
        clock resumes past the last journaled tick so a resumed fault plan
        continues where it stopped.
        """
        service = cls(state_dir, config=config, fault_injector=fault_injector)
        registry = obs_metrics.get_metrics()
        records, torn_note = Journal.load(service.journal.path)
        service.torn_tail_note = torn_note
        if torn_note:
            LOG.warning("service: %s", torn_note)
        committed: Dict[str, List[Dict[str, object]]] = {}
        last_tick = 0
        for record in records:
            kind = record.get("kind")
            payload = record.get("payload", {})
            last_tick = max(last_tick, int(payload.get("tick", 0)))
            if kind == "tenant_registered":
                spec = TenantSpec.from_dict(payload["spec"])
                service._admit_tenant(spec)
                committed.setdefault(spec.tenant_id, [])
            elif kind == "epoch_committed":
                committed.setdefault(str(payload["tenant_id"]), []).append(payload)

        snapshot = service.snapshots.load_latest()
        state = snapshot.get("state", {}) if snapshot else {}
        service.admission.restore(state.get("used_budget_s", {}))
        service.board.restore(state.get("breakers", {}))
        service.supervisor.restore(state.get("supervisor", {}))
        counters = state.get("counters", {})
        service.shed_counts = dict(counters.get("shed", {}))
        service.admitted = int(counters.get("admitted", 0))
        service.completed_epochs = int(counters.get("completed_epochs", 0))
        tenant_state = state.get("tenants", {})

        # Re-execute the committed epochs, verifying layouts bitwise.
        for tid, runtime in service.tenants.items():
            saved = tenant_state.get(tid, {})
            runtime.exhausted = bool(saved.get("exhausted", False))
            runtime.failed = bool(saved.get("failed", False))
            runtime.predicted_step_s = float(saved.get("predicted_step_s", 0.0))
            runtime.provenance = list(saved.get("provenance", []))
            runtime.attempts = int(saved.get("attempts", 0))
            history = committed.get(tid, [])
            for payload in history:
                epoch_index = runtime.cursor
                record = runtime.loop.step(runtime.epochs[epoch_index])
                if record.layout.assignment() != payload.get("assignment"):
                    raise CheckpointCorruptionError(
                        f"recovery replay diverged for tenant {tid!r} at epoch "
                        f"{epoch_index}: journaled assignment does not match "
                        f"the re-executed layout",
                        path=service.journal.path,
                    )
                runtime.cursor += 1
                service.replayed_epochs += 1
                registry.counter("service.replayed_epochs").inc()
            if history:
                runtime.note(f"recovery: replayed {len(history)} committed epochs")

        # Re-seed the queue from the snapshot, dropping items the journal
        # already saw commit (the snapshot may predate the journal tail).
        queue_state = state.get("queue", {})
        live_items = []
        for raw in queue_state.get("items", []):
            item = WorkItem.from_dict(raw)
            runtime = service.tenants.get(item.tenant_id)
            if runtime is not None and item.epoch == runtime.cursor and runtime.active:
                live_items.append(item)
        service.queue.restore({"cursor": queue_state.get("cursor", 0),
                               "items": [item.to_dict() for item in live_items]})
        for item in live_items:
            service.tenants[item.tenant_id].in_flight = True

        service.ticks = max(int(state.get("tick", 0)), last_tick)
        service.board.tick = service.ticks
        service.journal.resume_at(records[-1]["seq"] if records else 0)
        service.journal.append("recovery", tick=service.ticks,
                               replayed_epochs=service.replayed_epochs,
                               torn_tail=torn_note)
        service.recovered = True
        registry.counter("service.recoveries").inc()
        LOG.info("service: recovered at tick %d (%d epochs replayed%s)",
                 service.ticks, service.replayed_epochs,
                 "; torn journal tail sliced" if torn_note else "")
        return service
