"""Tests for the fault-tolerant multi-tenant advisor service.

Four layers, mirroring the package:

* queue/admission unit tests plus Hypothesis property tests pinning the
  control-plane contracts (no starvation within one rotation, deterministic
  shed decisions, accepted-at-admission work never exceeds the budget);
* circuit breakers and the breaker-guarded degradation ladder;
* journal/snapshot durability: torn tails replay, mid-file damage and
  sequence gaps refuse, corrupt snapshots quarantine;
* the daemon itself, ending in the **chaos recovery lock**: a seeded storm
  of worker kills, overload bursts and slow solves plus one hard process
  restart must converge every tenant to the bitwise-identical layouts of
  the fault-free run, with every incident in tenant provenance and the
  kill/replay/commit counts in the session's ``ServiceReport``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    AdmissionRejectedError,
    CheckpointCorruptionError,
    ConfigurationError,
    ReproError,
    ServiceShutdownError,
    TenantBudgetExceededError,
)
from repro.resilience import FaultInjector, FaultPlan, FaultSpec, corrupt_file
from repro.service import (
    AdmissionController,
    AdvisorService,
    BreakerBoard,
    CircuitBreaker,
    GuardedFallbackSolver,
    Journal,
    ServiceConfig,
    SnapshotStore,
    TenantSpec,
    WorkItem,
    WorkQueue,
    build_epoch_stream,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.queue import (
    SHED_BUDGET_EXHAUSTED,
    SHED_QUEUE_FULL,
    SHED_SHUTTING_DOWN,
)
from repro import scenarios


@pytest.fixture(scope="module")
def synthetic_small_bundle():
    return scenarios.build("synthetic_small")


@pytest.fixture
def synthetic_small_context(synthetic_small_bundle):
    bundle = synthetic_small_bundle
    return bundle.context(estimator=bundle.fresh_estimator())


# ---------------------------------------------------------------------------
# Queue + admission
# ---------------------------------------------------------------------------

class TestWorkQueue:
    def test_fifo_per_tenant_round_robin_across(self):
        queue = WorkQueue(max_depth=8)
        for tenant in ("a", "b"):
            queue.register_tenant(tenant)
        for epoch in range(2):
            queue.push(WorkItem("a", epoch))
            queue.push(WorkItem("b", epoch))
        order = [(item.tenant_id, item.epoch)
                 for item in (queue.take() for _ in range(4))]
        # alternates tenants fair-share; epochs stay FIFO within a tenant
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_take_serves_every_tenant_within_one_rotation(self):
        queue = WorkQueue(max_depth=16)
        tenants = [f"t{i}" for i in range(5)]
        for tenant in tenants:
            queue.register_tenant(tenant)
            queue.push(WorkItem(tenant, 0))
        served = [queue.take().tenant_id for _ in tenants]
        assert sorted(served) == sorted(tenants)

    def test_depth_bound_and_burst_slots(self):
        queue = WorkQueue(max_depth=2)
        queue.register_tenant("a")
        assert queue.slots_free() == 2
        assert queue.slots_free(burst_slots=1) == 1
        assert queue.slots_free(burst_slots=5) == 0

    def test_snapshot_round_trip(self):
        queue = WorkQueue(max_depth=4)
        for tenant in ("a", "b"):
            queue.register_tenant(tenant)
        queue.push(WorkItem("a", 3, cost_units=0.5, attempt=1))
        queue.push(WorkItem("b", 0))
        state = queue.snapshot()
        clone = WorkQueue(max_depth=4)
        for tenant in ("a", "b"):
            clone.register_tenant(tenant)
        clone.restore(state)
        assert [item.to_dict() for item in clone.contents()] == \
            [item.to_dict() for item in queue.contents()]

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkQueue(max_depth=0)


class TestAdmission:
    def _controller(self, depth=2):
        controller = AdmissionController(WorkQueue(max_depth=depth))
        controller.register_tenant("a", budget_s=1.0)
        controller.register_tenant("b")
        return controller

    def test_shed_reasons_in_fixed_order(self):
        controller = self._controller()
        # draining wins over everything
        decision = controller.decide(WorkItem("a", 0), draining=True)
        assert (decision.admitted, decision.reason) == (False, SHED_SHUTTING_DOWN)
        # budget beats capacity
        decision = controller.decide(WorkItem("a", 0, cost_units=2.0), burst_slots=99)
        assert decision.reason == SHED_BUDGET_EXHAUSTED
        # full queue sheds with queue_full
        controller.offer(WorkItem("b", 0))
        controller.offer(WorkItem("b", 1))
        assert controller.decide(WorkItem("b", 2)).reason == SHED_QUEUE_FULL

    def test_offer_reserves_and_settle_trues_up(self):
        controller = self._controller(depth=8)
        item = WorkItem("a", 0, cost_units=0.4)
        assert controller.offer(item).admitted
        assert controller.used_s("a") == pytest.approx(0.4)
        controller.settle(item, actual_s=0.1)
        assert controller.used_s("a") == pytest.approx(0.1)

    def test_require_raises_typed_errors(self):
        controller = self._controller()
        with pytest.raises(ServiceShutdownError):
            controller.require(WorkItem("a", 0), draining=True)
        with pytest.raises(TenantBudgetExceededError) as excinfo:
            controller.require(WorkItem("a", 0, cost_units=2.0))
        assert excinfo.value.tenant_id == "a"
        assert excinfo.value.budget_s == pytest.approx(1.0)
        controller.offer(WorkItem("b", 0))
        controller.offer(WorkItem("b", 1))
        with pytest.raises(AdmissionRejectedError) as excinfo:
            controller.require(WorkItem("b", 2))
        assert excinfo.value.reason == SHED_QUEUE_FULL

    def test_exception_hierarchy(self):
        # budget error IS an admission rejection IS a repro error
        assert issubclass(TenantBudgetExceededError, AdmissionRejectedError)
        assert issubclass(AdmissionRejectedError, ReproError)
        assert issubclass(ServiceShutdownError, ReproError)


# ---------------------------------------------------------------------------
# Property tests (the satellite contracts)
# ---------------------------------------------------------------------------

class TestServiceProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_tenants=st.integers(min_value=1, max_value=6),
        pushes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
    )
    def test_no_tenant_starves_within_one_rotation(self, n_tenants, pushes):
        """Any tenant with queued work is served within ``n_tenants`` takes."""
        queue = WorkQueue(max_depth=64)
        tenants = [f"t{i}" for i in range(n_tenants)]
        for tenant in tenants:
            queue.register_tenant(tenant)
        for which in pushes:
            queue.push(WorkItem(tenants[which % n_tenants], 0))
        while queue.depth > 0:
            pending = {item.tenant_id for item in queue.contents()}
            window = []
            for _ in range(n_tenants):
                item = queue.take()
                if item is None:
                    break
                window.append(item.tenant_id)
            # every tenant that had work at window start was served in the
            # window of ``n_tenants`` takes -- one full rotation
            assert pending <= set(window)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        depth=st.integers(min_value=1, max_value=4),
        offers=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.floats(min_value=0.0, max_value=2.0),
                      st.integers(min_value=0, max_value=3)),
            max_size=40,
        ),
    )
    def test_shed_decisions_deterministic(self, seed, depth, offers):
        """Replaying the same offer sequence reproduces the same decisions."""
        def play():
            controller = AdmissionController(WorkQueue(max_depth=depth))
            for i in range(4):
                controller.register_tenant(f"t{i}", budget_s=1.0 + (seed % 7))
            decisions = []
            for epoch, (which, cost, burst) in enumerate(offers):
                decision = controller.offer(
                    WorkItem(f"t{which}", epoch, cost_units=cost), burst_slots=burst
                )
                decisions.append((decision.admitted, decision.reason))
                if decision.admitted and len(decisions) % 2 == 0:
                    controller.queue.take()  # drain deterministically
            return decisions

        assert play() == play()

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        budget=st.floats(min_value=0.1, max_value=5.0),
        costs=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=30),
    )
    def test_accepted_work_never_exceeds_budget(self, budget, costs):
        """With declared == actual cost, admissions never overrun the budget."""
        controller = AdmissionController(WorkQueue(max_depth=1024))
        controller.register_tenant("t", budget_s=budget)
        for epoch, cost in enumerate(costs):
            item = WorkItem("t", epoch, cost_units=cost)
            if controller.offer(item).admitted:
                controller.settle(item, actual_s=cost)
            assert controller.used_s("t") <= budget + 1e-9


# ---------------------------------------------------------------------------
# Circuit breakers + the guarded ladder
# ---------------------------------------------------------------------------

class TestBreakers:
    def test_trips_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker("es", failure_threshold=2, cooldown_ticks=3)
        assert breaker.allow(0) and breaker.state == CLOSED
        assert not breaker.record_failure(0)
        assert breaker.record_failure(0)  # second failure trips
        assert breaker.state == OPEN and breaker.trips == 1
        assert not breaker.allow(1)  # cooling down
        assert breaker.allow(3)  # cooldown elapsed -> probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("es", failure_threshold=1, cooldown_ticks=2)
        breaker.record_failure(0)
        assert breaker.allow(2) and breaker.state == HALF_OPEN
        breaker.record_failure(2)
        assert breaker.state == OPEN
        assert not breaker.allow(3)

    def test_board_snapshot_round_trip(self):
        board = BreakerBoard(failure_threshold=1, cooldown_ticks=2)
        board.tick = 5
        board.failure("es")
        clone = BreakerBoard(failure_threshold=1, cooldown_ticks=2)
        clone.restore(board.snapshot())
        assert clone.tick == 5
        assert clone.states() == {"es": OPEN}
        assert clone.trips == 1

    def test_guarded_solver_routes_down_ladder(self, synthetic_small_context):
        board = BreakerBoard(failure_threshold=1, cooldown_ticks=100)
        solver = GuardedFallbackSolver(board=board)
        es_name = solver.chain[0].name
        board.failure(es_name)  # trip the first stage's circuit
        result = solver.solve(synthetic_small_context)
        assert result.feasible
        assert not result.solver.endswith(f":{es_name}")  # a later stage answered
        assert result.stats.degraded
        assert any("circuit open" in incident for incident in result.stats.incidents)

    def test_guarded_solver_closes_circuit_on_success(self, synthetic_small_context):
        board = BreakerBoard(failure_threshold=3, cooldown_ticks=1)
        solver = GuardedFallbackSolver(board=board)
        es_name = solver.chain[0].name
        board.failure(es_name)  # one failure, below threshold
        result = solver.solve(synthetic_small_context)
        assert result.feasible and not result.stats.degraded
        assert board.breaker(es_name).state == CLOSED
        assert board.breaker(es_name).failures == 0


# ---------------------------------------------------------------------------
# Journal + snapshots
# ---------------------------------------------------------------------------

class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("tenant_registered", spec={"tenant_id": "a"})
        journal.append("epoch_committed", tenant_id="a", epoch=0)
        journal.close()
        records, note = Journal.load(tmp_path / "j.jsonl")
        assert note is None
        assert [r["kind"] for r in records] == ["tenant_registered", "epoch_committed"]
        assert [r["seq"] for r in records] == [1, 2]

    def test_torn_tail_sliced_with_note(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "c", "truncated...')
        records, note = Journal.load(path)
        assert len(records) == 2
        assert note is not None and "torn" in note

    def test_mid_file_damage_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        for kind in ("a", "b", "c"):
            journal.append(kind)
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"payload": {}', '"payload": {"x": 1}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptionError):
            Journal.load(path)

    def test_sequence_gap_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        for kind in ("a", "b", "c"):
            journal.append(kind)
        journal.close()
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(CheckpointCorruptionError):
            Journal.load(path)

    #: A two-record journal and one snapshot exactly as the format-1 writers
    #: put them on disk.  Both must keep loading, and writing the same
    #: records must keep producing these bytes.
    PINNED_JOURNAL = (
        b'{"checksum": "3d96137d869b8814dc53e8ae014c3b6f147862b18e1571b0dbedaba5f644a2f7", '
        b'"format_version": 1, "kind": "tenant_registered", "payload": {"spec": '
        b'{"drift": "steady", "num_epochs": 2, "tenant_id": "alpha"}, "tick": 0}, "seq": 1}\n'
        b'{"checksum": "def24bae322958930c4d43b03beee2f9a1693a560f06cf63e856945517bbedf2", '
        b'"format_version": 1, "kind": "epoch_committed", "payload": {"assignment": '
        b'{"lineitem": "H-SSD", "orders": "L-SSD"}, "epoch": 0, "tenant_id": "alpha", '
        b'"tick": 1, "toc_cents": 1.5}, "seq": 2}\n'
    )
    PINNED_SNAPSHOT = (
        b'{"checksum": "257255ac96a13ebd3a1c5c132f892569f79500f944c73598db4904355f95dc9f", '
        b'"format_version": 1, "seq": 2, "state": {"queue": {"cursor": 0, "items": []}, '
        b'"tick": 1, "used_budget_s": {"alpha": 0.25}}}\n'
    )

    def test_on_disk_formats_are_pinned(self, tmp_path):
        spec = {"tenant_id": "alpha", "num_epochs": 2, "drift": "steady"}
        assignment = {"lineitem": "H-SSD", "orders": "L-SSD"}
        state = {"tick": 1, "queue": {"cursor": 0, "items": []},
                 "used_budget_s": {"alpha": 0.25}}

        old = tmp_path / "old"
        old.mkdir()
        (old / "journal.jsonl").write_bytes(self.PINNED_JOURNAL)
        records, note = Journal.load(old / "journal.jsonl")
        assert note is None
        assert [(r["seq"], r["kind"]) for r in records] == \
            [(1, "tenant_registered"), (2, "epoch_committed")]
        assert records[0]["payload"] == {"tick": 0, "spec": spec}
        assert records[1]["payload"] == {"tick": 1, "tenant_id": "alpha", "epoch": 0,
                                         "assignment": assignment, "toc_cents": 1.5}
        (old / "snaps").mkdir()
        (old / "snaps" / "snapshot-0000000002.json").write_bytes(self.PINNED_SNAPSHOT)
        snapshot = SnapshotStore(old / "snaps").load_latest()
        assert (snapshot["seq"], snapshot["state"]) == (2, state)

        new = tmp_path / "new"
        journal = Journal(new / "journal.jsonl")
        journal.append("tenant_registered", tick=0, spec=spec)
        journal.append("epoch_committed", tick=1, tenant_id="alpha", epoch=0,
                       assignment=assignment, toc_cents=1.5)
        journal.close()
        assert (new / "journal.jsonl").read_bytes() == self.PINNED_JOURNAL
        saved = SnapshotStore(new / "snaps").save(2, state)
        assert saved.name == "snapshot-0000000002.json"
        assert saved.read_bytes() == self.PINNED_SNAPSHOT

    def test_non_utf8_journal_line_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        for kind in ("a", "b", "c"):
            journal.append(kind)
        journal.close()
        corrupt_file(path, "garble", seed=3)
        with pytest.raises(UnicodeDecodeError):
            path.read_bytes().decode("utf-8")
        with pytest.raises(CheckpointCorruptionError) as info:
            Journal.load(path)
        assert str(path) in str(info.value)

    def test_junk_newest_snapshot_falls_back_and_is_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        store.save(1, {"tick": 1})
        newest = store.save(2, {"tick": 2})
        corrupt_file(newest, "junk")
        latest = store.load_latest()
        assert (latest["seq"], latest["state"]) == (1, {"tick": 1})
        assert not newest.exists()
        assert newest.with_name(newest.name + ".quarantined").exists()

    def test_snapshot_save_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
            self, tmp_path, durable_calls):
        path = SnapshotStore(tmp_path).save(1, {"tick": 1})
        assert durable_calls == [
            ("fsync", path.stat().st_ino),
            ("replace", path.name + ".tmp", path.name),
            ("fsync", tmp_path.stat().st_ino),
        ]

    def test_snapshot_store_quarantines_corrupt(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        store.save(1, {"tick": 1})
        good = store.save(2, {"tick": 2})
        # corrupt the newest snapshot in place
        payload = json.loads(good.read_text())
        payload["state"]["tick"] = 99  # checksum now wrong
        good.write_text(json.dumps(payload))
        latest = store.load_latest()
        assert latest is not None and latest["state"]["tick"] == 1
        assert any(p.suffix == ".quarantined" for p in (tmp_path / "snaps").iterdir())


# ---------------------------------------------------------------------------
# Tenant streams
# ---------------------------------------------------------------------------

class TestTenantStreams:
    def test_stream_shapes_and_determinism(self, synthetic_small_bundle):
        for drift in ("steady", "crossfade", "flash"):
            spec = TenantSpec(tenant_id="t", num_epochs=6, drift=drift)
            one = build_epoch_stream(synthetic_small_bundle, spec)
            two = build_epoch_stream(synthetic_small_bundle, spec)
            assert len(one) == 6
            assert [e.weights for e in one] == [e.weights for e in two]

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(tenant_id="", num_epochs=1)
        with pytest.raises(ConfigurationError):
            TenantSpec(tenant_id="t", drift="sideways")

    def test_spec_round_trips_through_journal_form(self):
        spec = TenantSpec(tenant_id="t", num_epochs=3, drift="flash",
                          budget_s=4.5, sla_ratio=1.5)
        assert TenantSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

def _fleet_service(state_dir, injector=None, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("queue_depth", 4)
    service = AdvisorService(state_dir, ServiceConfig(**config_kwargs),
                             fault_injector=injector)
    service.register(TenantSpec(tenant_id="alpha", num_epochs=4, drift="crossfade"))
    service.register(TenantSpec(tenant_id="beta", num_epochs=4, drift="flash"))
    service.register(TenantSpec(tenant_id="gamma", num_epochs=3, drift="steady"))
    return service


class TestAdvisorService:
    def test_fault_free_run_completes_every_tenant(self, tmp_path):
        service = _fleet_service(tmp_path / "state")
        report = service.run(max_ticks=64)
        service.shutdown()
        assert report.all_done
        assert report.completed_epochs == 11
        assert all(s.final_assignment for s in report.tenants.values())
        assert report.worker_kills == 0 and report.breaker_trips == 0

    def test_duplicate_and_draining_registration_rejected(self, tmp_path):
        service = _fleet_service(tmp_path / "state")
        with pytest.raises(ConfigurationError):
            service.register(TenantSpec(tenant_id="alpha"))
        service.draining = True
        with pytest.raises(ConfigurationError):
            service.register(TenantSpec(tenant_id="delta"))

    def test_submit_next_raises_when_draining(self, tmp_path):
        service = _fleet_service(tmp_path / "state")
        service.draining = True
        with pytest.raises(ServiceShutdownError):
            service.submit_next("alpha")

    def test_submit_next_budget_error(self, tmp_path):
        service = AdvisorService(tmp_path / "state", ServiceConfig())
        service.register(TenantSpec(tenant_id="broke", num_epochs=2, budget_s=0.05))
        service.tenants["broke"].predicted_step_s = 1.0  # declared cost > budget
        with pytest.raises(TenantBudgetExceededError):
            service.submit_next("broke")

    def test_budget_exhaustion_stops_tenant_with_provenance(self, tmp_path):
        service = AdvisorService(tmp_path / "state", ServiceConfig())
        service.register(TenantSpec(tenant_id="broke", num_epochs=8, budget_s=1e-4))
        report = service.run(max_ticks=32)
        status = report.tenants["broke"]
        assert status.exhausted and status.done
        assert 0 < status.epochs_committed < 8  # first epoch ran, then stopped
        assert any("budget exhausted" in line for line in status.provenance)
        assert report.shed.get("budget_exhausted", 0) >= 1

    def test_overload_burst_sheds_then_recovers(self, tmp_path):
        plan = FaultPlan()
        plan.add_service_fault(1, FaultSpec(kind="overload_burst", count=8))
        service = _fleet_service(tmp_path / "state", injector=FaultInjector(plan))
        report = service.run(max_ticks=64)
        assert report.shed.get("queue_full", 0) >= 1  # burst shed admissions
        assert report.all_done  # ...but only delayed the work
        assert report.completed_epochs == 11

    def test_worker_kill_requeues_and_restarts(self, tmp_path):
        plan = FaultPlan()
        plan.add_service_fault(1, FaultSpec(kind="worker_kill", count=1))
        service = _fleet_service(tmp_path / "state", injector=FaultInjector(plan))
        report = service.run(max_ticks=64)
        assert report.all_done and report.completed_epochs == 11
        assert report.worker_kills == 1
        assert report.worker_restarts == 1
        assert any("killed holding" in line
                   for s in report.tenants.values() for line in s.provenance)

    def test_retier_budget_flows_to_solver(self, tmp_path):
        service = AdvisorService(tmp_path / "state", ServiceConfig())
        service.register(TenantSpec(tenant_id="t", num_epochs=2,
                                    retier_budget_s=30.0))
        assert service.tenants["t"].advisor.retier_budget_s == 30.0
        assert service.tenants["t"].advisor.solver is service.solver

    def test_recovery_replays_to_exact_layouts(self, tmp_path):
        state = tmp_path / "state"
        service = _fleet_service(state)
        for _ in range(3):
            service.tick()
        midway = service.layouts()
        service.save_snapshot()
        service.journal.close()  # hard stop
        recovered = AdvisorService.recover(
            state, ServiceConfig(workers=2, queue_depth=4))
        assert recovered.recovered
        assert recovered.replayed_epochs >= 1
        assert recovered.layouts() == midway  # bitwise pre-crash layouts
        report = recovered.run(max_ticks=64)
        recovered.shutdown()
        assert report.all_done and report.completed_epochs == 11

    def test_recovery_without_snapshot_uses_journal_alone(self, tmp_path):
        state = tmp_path / "state"
        service = _fleet_service(state)
        for _ in range(2):
            service.tick()
        midway = service.layouts()
        service.journal.close()  # crash before any snapshot
        recovered = AdvisorService.recover(
            state, ServiceConfig(workers=2, queue_depth=4))
        assert recovered.layouts() == midway

    def test_recovery_refuses_tampered_journal(self, tmp_path):
        state = tmp_path / "state"
        service = _fleet_service(state)
        for _ in range(2):
            service.tick()
        service.journal.close()
        path = state / "journal.jsonl"
        lines = path.read_text().splitlines()
        doctored = []
        import json as _json
        from repro.durable import checksum
        for line in lines:
            record = _json.loads(line)
            if record["kind"] == "epoch_committed":
                # forge a *valid-checksum* record with a wrong assignment
                assignment = record["payload"]["assignment"]
                name = next(iter(assignment))
                classes = sorted({v for v in assignment.values()})
                record["payload"]["assignment"][name] = classes[-1] \
                    if assignment[name] != classes[-1] else classes[0]
                record.pop("checksum")
                record["checksum"] = checksum(record)
            doctored.append(_json.dumps(record, sort_keys=True))
        path.write_text("\n".join(doctored) + "\n")
        with pytest.raises(CheckpointCorruptionError):
            AdvisorService.recover(state, ServiceConfig(workers=2, queue_depth=4))

    def test_torn_journal_tail_is_survivable(self, tmp_path):
        state = tmp_path / "state"
        service = _fleet_service(state)
        for _ in range(2):
            service.tick()
        service.journal.close()
        path = state / "journal.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "kind": "epoch_committed", "pay')
        recovered = AdvisorService.recover(
            state, ServiceConfig(workers=2, queue_depth=4))
        assert recovered.torn_tail_note is not None
        report = recovered.run(max_ticks=64)
        assert report.all_done

    def test_second_crash_after_a_torn_tail_still_recovers(self, tmp_path):
        """Recovery cuts the torn bytes before it appends, so the journal
        stays recoverable through a second crash and the run converges to
        the fault-free layouts."""
        clean = _fleet_service(tmp_path / "clean")
        clean_report = clean.run(max_ticks=64)
        clean.shutdown()

        state = tmp_path / "state"
        service = _fleet_service(state)
        for _ in range(2):
            service.tick()
        service.journal.close()
        with (state / "journal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "kind": "epoch_committed", "pay')
        recovered = AdvisorService.recover(
            state, ServiceConfig(workers=2, queue_depth=4))
        assert recovered.torn_tail_note is not None
        recovered.tick()
        recovered.journal.close()  # second hard stop

        again = AdvisorService.recover(state, ServiceConfig(workers=2, queue_depth=4))
        assert again.torn_tail_note is None
        report = again.run(max_ticks=64)
        again.shutdown()
        assert report.all_done
        assert report.layouts() == clean_report.layouts()


# ---------------------------------------------------------------------------
# The chaos recovery lock (the PR's acceptance gate)
# ---------------------------------------------------------------------------

class TestChaosRecoveryLock:
    def test_storm_plus_hard_restart_converges_bitwise(self, tmp_path):
        clean = _fleet_service(tmp_path / "clean")
        clean_report = clean.run(max_ticks=64)
        clean.shutdown()
        assert clean_report.all_done

        plan = FaultPlan.chaos_service(
            seed=17, num_ticks=16, kill_fraction=0.2, kill_count=1,
            burst_fraction=0.2, burst_slots=4,
            slow_fraction=0.1, slow_s=0.001,
        )
        state = tmp_path / "chaos"
        stormed = _fleet_service(state, injector=FaultInjector(plan))
        for _ in range(4):
            stormed.tick()
        stormed.save_snapshot()
        stormed.journal.close()  # mid-run hard process stop

        resumed = AdvisorService.recover(
            state, ServiceConfig(workers=2, queue_depth=4),
            fault_injector=FaultInjector(plan))
        chaos_report = resumed.run(max_ticks=64)
        resumed.shutdown()

        # every tenant converges to the bitwise-identical fault-free layout
        assert chaos_report.all_done
        assert chaos_report.layouts() == clean_report.layouts()
        for tid, status in chaos_report.tenants.items():
            assert status.cumulative_cost_cents == pytest.approx(
                clean_report.tenants[tid].cumulative_cost_cents)

        # the storm actually stormed, and every incident left provenance
        assert chaos_report.recovered
        total_kills = stormed.supervisor.kills + resumed.supervisor.kills
        if total_kills:
            assert any("killed holding" in line
                       for s in chaos_report.tenants.values()
                       for line in s.provenance)
        if chaos_report.shed:
            assert any("shed" in line
                       for s in chaos_report.tenants.values()
                       for line in s.provenance)
        assert any("recovery: replayed" in line
                   for s in chaos_report.tenants.values()
                   for line in s.provenance)

        # and the session report carries the counts: recovery replayed
        # every epoch committed before the stop, and the resumed session
        # committed the rest
        assert chaos_report.replayed_epochs == stormed.completed_epochs >= 1
        assert chaos_report.completed_epochs == clean_report.completed_epochs
