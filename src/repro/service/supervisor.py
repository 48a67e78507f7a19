"""Worker supervision: heartbeats, crash detection, restart with backoff.

The service runs tenant steps on a pool of *logical* workers driven by the
daemon's tick loop -- real process isolation already lives one layer down
(the parallel search engine kills and replaces genuine OS processes); what
the control plane needs from its pool is deterministic, replayable
supervision semantics, and a cooperative pool is the only way to get chaos
runs that converge bitwise to their fault-free twins.  The protocol is the
real one regardless:

* a worker **heartbeats** every tick it is scheduled; an injected
  ``worker_kill`` crashes it *before its in-flight step commits* (the WAL
  commit record is written after execution, so a killed step simply never
  happened) and its heartbeat stops;
* the **watchdog** declares a worker dead once its heartbeat is
  :data:`HEARTBEAT_TIMEOUT_TICKS` stale, requeues nothing itself (the daemon
  requeued the lost item at kill time) and schedules a **restart with
  exponential backoff** (``RESTART_BACKOFF_TICKS * 2^(restarts-1)``);
* a worker past :data:`MAX_RESTARTS` is **retired** -- capacity shrinks
  rather than flaps, and the daemon reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exceptions import ConfigurationError

#: Ticks without a heartbeat before the watchdog declares a worker dead.
HEARTBEAT_TIMEOUT_TICKS = 1
#: Restarts per worker before it is retired.
MAX_RESTARTS = 3
#: Backoff before a worker's first restart; it doubles with every restart.
RESTART_BACKOFF_TICKS = 1

#: Worker states.
IDLE = "idle"
BUSY = "busy"
DEAD = "dead"
BACKOFF = "backoff"
RETIRED = "retired"


@dataclass
class Worker:
    """One logical worker slot of the service's pool."""

    worker_id: int
    state: str = IDLE
    restarts: int = 0
    last_heartbeat_tick: int = -1
    #: First tick a restarting worker may serve again.
    available_at_tick: int = 0

    def heartbeat(self, tick: int) -> None:
        """Record liveness for the watchdog."""
        self.last_heartbeat_tick = tick


class Supervisor:
    """Owns the worker pool and its failure/restart lifecycle."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("the service needs at least one worker")
        self.workers = [Worker(worker_id=i) for i in range(workers)]
        self.kills = 0
        self.restarts = 0
        self.retired = 0

    # -- scheduling ----------------------------------------------------
    def available(self, tick: int) -> List[Worker]:
        """Workers that may serve this tick (backoffs that elapsed rejoin)."""
        ready = []
        for worker in self.workers:
            if worker.state == BACKOFF and tick >= worker.available_at_tick:
                worker.state = IDLE
            if worker.state == IDLE:
                worker.heartbeat(tick)
                ready.append(worker)
        return ready

    def dispatch(self, worker: Worker) -> None:
        """Mark a worker busy with one step."""
        worker.state = BUSY

    def complete(self, worker: Worker, tick: int) -> None:
        """A step committed; the worker returns to the pool."""
        worker.state = IDLE
        worker.heartbeat(tick)

    # -- failures ------------------------------------------------------
    def kill(self, worker: Worker, tick: int) -> None:
        """Crash one worker mid-step (its heartbeat stops here)."""
        worker.state = DEAD
        self.kills += 1

    def watchdog(self, tick: int) -> List[str]:
        """Detect dead workers by stale heartbeat; schedule restarts.

        Returns human-readable incidents for the service provenance trail.
        """
        incidents: List[str] = []
        for worker in self.workers:
            if worker.state != DEAD:
                continue
            if tick - worker.last_heartbeat_tick < HEARTBEAT_TIMEOUT_TICKS:
                continue
            worker.restarts += 1
            if worker.restarts > MAX_RESTARTS:
                worker.state = RETIRED
                self.retired += 1
                incidents.append(
                    f"tick {tick}: worker {worker.worker_id} exceeded "
                    f"{MAX_RESTARTS} restarts; retired"
                )
                continue
            backoff = RESTART_BACKOFF_TICKS * (2 ** (worker.restarts - 1))
            worker.state = BACKOFF
            worker.available_at_tick = tick + backoff
            self.restarts += 1
            incidents.append(
                f"tick {tick}: worker {worker.worker_id} heartbeat lost; "
                f"restart {worker.restarts}/{MAX_RESTARTS} "
                f"after {backoff}-tick backoff"
            )
        return incidents

    # -- introspection ---------------------------------------------------
    @property
    def alive(self) -> int:
        """Workers not permanently retired."""
        return sum(1 for worker in self.workers if worker.state != RETIRED)

    def states(self) -> Dict[int, str]:
        """Current state per worker id."""
        return {worker.worker_id: worker.state for worker in self.workers}

    def snapshot(self) -> Dict[str, object]:
        """Pure-data form for the service snapshot."""
        return {
            "kills": self.kills,
            "restarts": self.restarts,
            "retired": self.retired,
            "workers": [
                {
                    "worker_id": worker.worker_id,
                    "state": worker.state,
                    "restarts": worker.restarts,
                    "last_heartbeat_tick": worker.last_heartbeat_tick,
                    "available_at_tick": worker.available_at_tick,
                }
                for worker in self.workers
            ],
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Restore pool counters and per-worker lifecycle state.

        A worker that was ``busy`` or ``dead`` at snapshot time comes back
        ``idle``: the process restart already lost whatever it held, and
        the journal decides which steps actually committed.
        """
        self.kills = int(payload.get("kills", 0))
        self.restarts = int(payload.get("restarts", 0))
        self.retired = int(payload.get("retired", 0))
        by_id = {worker.worker_id: worker for worker in self.workers}
        for raw in payload.get("workers", []):
            worker = by_id.get(int(raw.get("worker_id", -1)))
            if worker is None:
                continue
            state = str(raw.get("state", IDLE))
            worker.state = state if state in (RETIRED, BACKOFF) else IDLE
            worker.restarts = int(raw.get("restarts", 0))
            worker.last_heartbeat_tick = int(raw.get("last_heartbeat_tick", -1))
            worker.available_at_tick = int(raw.get("available_at_tick", 0))
