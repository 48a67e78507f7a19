"""Fleet walkthrough: the fault-tolerant multi-tenant advisor service.

Run with::

    python examples/fleet_service.py

One seeded, fully deterministic session of :mod:`repro.service` end to end:

1. **Register a fleet** -- four tenants with different drift shapes
   (crossfade, flash crowd, steady) and one tenant on a deliberately tiny
   wall-clock budget, all advised by one shared breaker-guarded solver.
2. **Storm it** -- a seeded chaos plan (`FaultPlan.chaos_service`) injects
   worker kills, an overload burst and slow solves into the tick loop while
   the service schedules tenants fair-share under admission control.
3. **Crash it** -- after a few ticks the daemon is hard-stopped mid-run
   (journal closed, process state dropped on the floor).
4. **Recover it** -- :meth:`AdvisorService.recover` reloads the checksummed
   write-ahead journal and the latest snapshot, re-executes every committed
   epoch through the same code path while verifying each replayed layout
   bitwise against the journaled assignment, and resumes the tick clock so
   the same fault plan continues where it stopped.
5. **Verify convergence** -- the resumed run must land every unbudgeted
   tenant on the bitwise-identical final layout of a fault-free twin run,
   with every kill/shed/replay in the tenant provenance trail and the
   counts in the session's ``ServiceReport``.

The script exits non-zero if any acceptance property fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import log as obs_log
from repro.resilience import FaultInjector, FaultPlan
from repro.service import AdvisorService, ServiceConfig, TenantSpec

obs_log.configure()
log = obs_log.get_logger("examples.fleet_service")

SEED = 2026
NUM_EPOCHS = 4
RESTART_AFTER_TICKS = 3
CONFIG = ServiceConfig(workers=2, queue_depth=4)


def build_fleet(state_dir, injector=None):
    """A four-tenant drifting fleet plus one budget-capped tenant."""
    service = AdvisorService(state_dir, CONFIG, fault_injector=injector)
    service.register(TenantSpec(tenant_id="erp", num_epochs=NUM_EPOCHS,
                                drift="crossfade"))
    service.register(TenantSpec(tenant_id="analytics", num_epochs=NUM_EPOCHS,
                                drift="flash"))
    service.register(TenantSpec(tenant_id="archive", num_epochs=NUM_EPOCHS,
                                drift="steady"))
    service.register(TenantSpec(tenant_id="freeloader", num_epochs=NUM_EPOCHS,
                                drift="steady", budget_s=1e-4))
    return service


def any_failed(checks) -> bool:
    failed = False
    for label, ok in checks.items():
        log.info("%s %s", "PASS" if ok else "FAIL", label)
        failed |= not ok
    return failed


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="fleet-service-"))
    try:
        # -- the fault-free twin ---------------------------------------
        clean = build_fleet(root / "clean")
        clean_report = clean.run(max_ticks=64)
        clean.shutdown()
        log.info("fault-free run: %d ticks, %d epochs committed",
                 clean_report.ticks, clean_report.completed_epochs)

        # -- the stormed run, hard-stopped mid-flight ------------------
        plan = FaultPlan.chaos_service(
            seed=SEED, num_ticks=16, kill_fraction=0.2, kill_count=1,
            burst_fraction=0.2, burst_slots=4, slow_fraction=0.1, slow_s=0.001,
        )
        state = root / "stormed"
        stormed = build_fleet(state, injector=FaultInjector(plan))
        for _ in range(RESTART_AFTER_TICKS):
            stormed.tick()
        stormed.save_snapshot()
        stormed.journal.close()
        log.info("hard stop at tick %d (%d epochs committed, %d kills so far)",
                 stormed.ticks, stormed.completed_epochs, stormed.supervisor.kills)

        # -- recovery: journal replay + bitwise verification -----------
        resumed = AdvisorService.recover(state, CONFIG,
                                         fault_injector=FaultInjector(plan))
        chaos_report = resumed.run(max_ticks=64)
        resumed.shutdown()
        log.info("recovered run: %d epochs replayed, %d total kills, sheds %s",
                 chaos_report.replayed_epochs,
                 chaos_report.worker_kills, chaos_report.shed)

        # -- acceptance ------------------------------------------------
        clean_layouts = clean_report.layouts()
        chaos_layouts = chaos_report.layouts()
        provenance = [line for status in chaos_report.tenants.values()
                      for line in status.provenance]
        freeloader = chaos_report.tenants["freeloader"]
        failed = any_failed({
            "every tenant finished in both runs":
                clean_report.all_done and chaos_report.all_done,
            "chaos + restart converged to the bitwise fault-free layouts":
                chaos_layouts == clean_layouts,
            "the storm actually injected worker kills":
                chaos_report.worker_kills >= 1,
            "killed workers were restarted with backoff":
                chaos_report.worker_restarts >= 1,
            "recovery replayed the journaled epochs":
                chaos_report.replayed_epochs >= 1,
            "kills and replays left tenant provenance":
                any("killed holding" in line for line in provenance)
                and any("recovery: replayed" in line for line in provenance),
            "the budget-capped tenant was stopped with a reasoned shed":
                freeloader.exhausted
                and chaos_report.shed.get("budget_exhausted", 0) >= 1,
        })
        if failed:
            raise SystemExit(1)
        log.info("fleet service walkthrough: all acceptance properties hold")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
