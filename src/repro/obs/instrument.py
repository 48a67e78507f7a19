"""Glue between the solver/online/service layers and the observability primitives.

:class:`Scope` observes one run -- a solve, an online run, a service
session -- as one span, and writes its run record when it is the outermost
scope and recording is on.  :func:`instrument_solver` is a class decorator
applied to every solver class: it runs ``solve()`` in a scope, stamps the
result's headline numbers on the solve span and replays resilience
incidents as span events -- once per solve, never per layout (the bitwise
contracts and the disabled-path overhead bound depend on that).  The
solve's record carries its own ``SolveStats``.

The **scope depth** keeps nested observations honest: a ``FallbackSolver``
chain or an ``OnlineAdvisor`` epoch loop drives inner solves through the
same instrumented interface, and only the outermost scope writes a run
record.  The depth is per thread, so specs running on the orchestrator's
thread pool each have their own outermost solves; parallel search workers
are separate processes with their own (disabled) instrumentation state.

Everything here duck-types against ``SolveResult``/``SolveStats`` so that
``repro.obs`` stays importable without ``repro.core`` (no import cycles).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time

from repro.obs import recorder, trace

_DEPTH = threading.local()


class Scope:
    """One observed run: its span, its nesting depth and its run record.

    ``with Scope(kind, span_name, **attrs) as run:`` opens the span; after
    the block, :attr:`wall_s` and :attr:`outermost` are set and
    :meth:`record` writes the run's record if this was the outermost scope
    and recording is on.
    """

    __slots__ = ("kind", "span", "wall_s", "outermost", "_tracer", "_started")

    def __init__(self, kind: str, span_name: str, **attrs):
        self.kind = kind
        self._tracer = trace.get_tracer()
        self.span = self._tracer.start_span(span_name, **attrs)
        self.outermost = False
        _DEPTH.value = getattr(_DEPTH, "value", 0) + 1
        self._started = time.perf_counter()

    def __enter__(self) -> "Scope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._started
        if exc is not None:
            self.span.set(error=True)
        self._tracer.end_span(self.span)
        _DEPTH.value -= 1
        self.outermost = _DEPTH.value == 0
        return False

    def record(self, solver: str, stats, elapsed_s=None) -> None:
        """Write the run's record (``stats()`` is its payload) when due."""
        if self.outermost and recorder.store_path() is not None:
            recorder.record_run(
                self.kind, solver, stats=stats(), spans=self.span.to_dict(),
                elapsed_s=self.wall_s if elapsed_s is None else elapsed_s,
                wall_s=self.wall_s,
            )


# ---------------------------------------------------------------------------
# Solver instrumentation
# ---------------------------------------------------------------------------

def _finite_or_none(value: float):
    """Span/record-friendly float (JSON consumers choke on Infinity)."""
    return value if value == value and abs(value) != float("inf") else None


def _annotate_solve_span(span, result) -> None:
    """Stamp the solve span with the result's headline numbers and incidents."""
    stats = result.stats
    span.set(
        elapsed_s=stats.elapsed_s,
        build_s=stats.build_s,
        evaluated_layouts=stats.evaluated_layouts,
        pruned_layouts=stats.pruned_layouts,
        feasible=result.feasible,
        toc_cents=_finite_or_none(result.toc_cents),
        degraded=stats.degraded,
    )
    for incident in stats.incidents:
        span.event("incident", message=incident)


def instrument_solver(cls):
    """Class decorator: observe ``cls.solve`` (spans and run records)."""
    inner = cls.solve

    @functools.wraps(inner)
    def solve(self, context, *, initial_layout=None, budget=None):
        with Scope("solve", f"solve:{self.name}", solver=self.name,
                   budget_s=budget) as run:
            result = inner(self, context, initial_layout=initial_layout,
                           budget=budget)
            _annotate_solve_span(run.span, result)
        run.record(result.solver, lambda: _stats_dict(result),
                   elapsed_s=result.stats.elapsed_s)
        return result

    cls.solve = solve
    return cls


def _stats_dict(result):
    """The record payload of one solve: stats plus headline result fields."""
    stats = dataclasses.asdict(result.stats)
    stats["toc_cents"] = _finite_or_none(result.toc_cents)
    stats["feasible"] = result.feasible
    stats["psr"] = result.psr
    return stats


__all__ = [
    "Scope",
    "instrument_solver",
]
