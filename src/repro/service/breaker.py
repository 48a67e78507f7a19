"""Per-solver-class circuit breakers and the guarded degradation ladder.

A :class:`CircuitBreaker` guards one solver class (``es``, ``dot``, ...)
with the classic three-state protocol driven by the service's *logical*
scheduler ticks: ``closed`` (normal), ``open`` (tripped after
``failure_threshold`` consecutive failures/timeouts; the stage is skipped),
``half_open`` (after ``cooldown_ticks`` one probe is let through -- success
closes the circuit, failure re-opens it).  The :class:`BreakerBoard` keys
one breaker per solver name and serialises to pure data so breaker state
survives a service restart.

:class:`GuardedFallbackSolver` plugs the board into the existing
:class:`~repro.core.solver.FallbackSolver` degradation ladder through its
stage-outcome hooks: a stage whose circuit is open is skipped (recorded as
an incident) and the chain routes down ES -> DOT -> hold exactly as the
plain fallback chain would on an organic failure -- tenants keep getting
layouts while a flapping solver class cools down, instead of paying its
failure latency every epoch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.solver import FallbackSolver, Solver
from repro.exceptions import ConfigurationError

#: Breaker states, exactly as exported under ``service.breaker.<solver>``.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One solver class's failure circuit, clocked by logical ticks."""

    def __init__(self, name: str, failure_threshold: int = 3, cooldown_ticks: int = 4):
        if failure_threshold < 1:
            raise ConfigurationError("breaker failure threshold must be >= 1")
        if cooldown_ticks < 1:
            raise ConfigurationError("breaker cooldown must be >= 1 tick")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.state = CLOSED
        self.failures = 0
        self.trips = 0
        self.opened_tick: Optional[int] = None

    def allow(self, tick: int) -> bool:
        """May the guarded stage run at this tick?  (May half-open it.)"""
        if self.state == OPEN:
            if self.opened_tick is not None and tick - self.opened_tick >= self.cooldown_ticks:
                self.state = HALF_OPEN
                return True
            return False
        return True

    def record_failure(self, tick: int) -> bool:
        """Count one failure; returns True when this call tripped the circuit."""
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            already_open = self.state == OPEN
            self.state = OPEN
            self.opened_tick = tick
            if not already_open:
                self.trips += 1
                return True
        return False

    def record_success(self) -> None:
        """A clean full-effort result closes the circuit and resets the count."""
        self.state = CLOSED
        self.failures = 0
        self.opened_tick = None

    def to_dict(self) -> Dict[str, object]:
        """Pure-data form for the service snapshot."""
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "opened_tick": self.opened_tick,
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Restore circuit state from its snapshot form."""
        self.state = str(payload.get("state", CLOSED))
        self.failures = int(payload.get("failures", 0))
        self.trips = int(payload.get("trips", 0))
        opened = payload.get("opened_tick")
        self.opened_tick = None if opened is None else int(opened)


class BreakerBoard:
    """A registry of circuit breakers keyed by solver-class name.

    The board owns the logical clock (``board.tick``, advanced by the
    service daemon every scheduler tick) so breaker cooldowns are
    deterministic and replayable -- wall time never enters the protocol.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_ticks: int = 4):
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.tick = 0
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one solver class."""
        guard = self._breakers.get(name)
        if guard is None:
            guard = CircuitBreaker(
                name,
                failure_threshold=self.failure_threshold,
                cooldown_ticks=self.cooldown_ticks,
            )
            self._breakers[name] = guard
        return guard

    def allow(self, name: str) -> bool:
        """May the named solver class run at the board's current tick?"""
        return self.breaker(name).allow(self.tick)

    def failure(self, name: str) -> bool:
        """Record a failure; True when it tripped the circuit open."""
        return self.breaker(name).record_failure(self.tick)

    def success(self, name: str) -> None:
        """Record a clean success (closes the circuit)."""
        self.breaker(name).record_success()

    @property
    def trips(self) -> int:
        """Total circuit trips across all solver classes."""
        return sum(guard.trips for guard in self._breakers.values())

    def states(self) -> Dict[str, str]:
        """Current state per guarded solver class."""
        return {name: guard.state for name, guard in sorted(self._breakers.items())}

    def snapshot(self) -> Dict[str, object]:
        """Pure-data form for the service snapshot."""
        return {
            "tick": self.tick,
            "breakers": {name: guard.to_dict() for name, guard in self._breakers.items()},
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Restore every breaker (and the logical clock) from a snapshot."""
        self.tick = int(payload.get("tick", 0))
        for name, raw in payload.get("breakers", {}).items():
            self.breaker(name).restore(raw)


class GuardedFallbackSolver(FallbackSolver):
    """The fallback ladder with per-solver-class circuit breakers.

    Identical to :class:`~repro.core.solver.FallbackSolver` (ES -> DOT ->
    hold, shared budget, degraded-but-honest results) except that every
    stage consults its circuit first: an open circuit skips the stage with
    an incident, failures and deadline-degraded answers count toward
    tripping it, and a clean success closes it.  The board is shared across
    all tenants of a service, so one tenant's solver failures protect every
    other tenant from the same flapping stage.
    """

    name = "guarded-fallback"

    def __init__(self, chain: Optional[Sequence[Solver]] = None,
                 board: Optional[BreakerBoard] = None):
        super().__init__(chain=chain)
        self.board = board if board is not None else BreakerBoard()

    def _stage_blocked(self, stage: Solver) -> Optional[str]:
        if not self.board.allow(stage.name):
            return "circuit open; routing down the degradation ladder"
        return None

    def _stage_failed(self, stage: Solver, timeout: bool = False) -> None:
        self.board.failure(stage.name)

    def _stage_succeeded(self, stage: Solver) -> None:
        self.board.success(stage.name)
