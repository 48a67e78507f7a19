"""Glue between the solver/online layers and the observability primitives.

:func:`instrument_solver` is a class decorator applied to every solver
class: it wraps ``solve()`` in a span, folds the run's ``SolveStats`` into
the metrics registry at the solve boundary (never per layout -- the bitwise
contracts and the disabled-path overhead bound depend on that), replays
resilience incidents as span events, and persists a run record when
recording is active.

A module-level **scope depth** keeps nested observations honest: a
``FallbackSolver`` chain or an ``OnlineAdvisor`` epoch loop drives inner
solves through the same instrumented interface, and only the outermost
scope writes a run record or folds the shared estimate-cache delta (inner
folds would double-count a cache that outlives the solve).  The depth is
process-local and needs no locking -- parallel search workers are separate
processes with their own (disabled) instrumentation state.

Everything here duck-types against ``SolveResult``/``SolveStats`` so that
``repro.obs`` stays importable without ``repro.core`` (no import cycles).
"""

from __future__ import annotations

import dataclasses
import functools
import time

from repro.obs import metrics, recorder, trace

_DEPTH = 0


def enter_scope() -> int:
    """Open an observation scope; returns the new depth (1 = outermost)."""
    global _DEPTH
    _DEPTH += 1
    return _DEPTH


def exit_scope() -> bool:
    """Close the innermost scope; True when the outermost one just closed."""
    global _DEPTH
    _DEPTH -= 1
    if _DEPTH < 0:  # defensive: unbalanced exits must not corrupt the depth
        _DEPTH = 0
        return True
    return _DEPTH == 0


def scope_depth() -> int:
    """The current observation-scope depth (0 = not inside any run)."""
    return _DEPTH


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


def _fold_solve_metrics(registry, name: str, result, wall_s: float,
                        cache, cache_before, outermost: bool) -> None:
    """Fold one solve's accounting into the registry (solve-boundary only)."""
    stats = result.stats
    registry.counter("solver.solves").inc()
    registry.counter(f"solver.{name}.solves").inc()
    registry.histogram(f"solver.{name}.solve_s").observe(wall_s)
    registry.counter("solver.evaluated_layouts").inc(stats.evaluated_layouts)
    registry.counter("solver.pruned_layouts").inc(stats.pruned_layouts)
    if stats.degraded:
        registry.counter("solver.degraded").inc()
    if stats.incidents:
        registry.counter("solver.incidents").inc(len(stats.incidents))
    if name == "dot":
        registry.counter("dot.moves_evaluated").inc(stats.evaluated_layouts)
        registry.counter("dot.moves_accepted").inc(stats.moves_accepted)
    batch = stats.batch
    if batch is not None:
        registry.counter("batch.chunks").inc(batch.chunks)
        registry.counter("batch.eval_s").inc(getattr(batch, "eval_s", 0.0))
        registry.counter("batch.pruned_chunks").inc(batch.pruned_chunks)
        registry.counter("batch.pruned_subtrees").inc(batch.pruned_subtrees)
        registry.counter("batch.estimator_calls").inc(batch.estimator_calls)
        registry.counter("batch.steals").inc(getattr(batch, "steals", 0))
        # Worker-local estimate-cache deltas, measured once per
        # (shard_id, attempt) and deduplicated by SearchProgress.record --
        # the pool path's counterpart of the outermost context-cache delta
        # below (worker caches are process-local copies the context never
        # sees).
        registry.counter("estimate_cache.hits").inc(getattr(batch, "cache_hits", 0))
        registry.counter("estimate_cache.misses").inc(getattr(batch, "cache_misses", 0))
    if outermost and cache is not None and cache_before is not None:
        registry.counter("estimate_cache.hits").inc(cache.hits - cache_before[0])
        registry.counter("estimate_cache.misses").inc(cache.misses - cache_before[1])


def instrument_solver(cls):
    """Class decorator: observe ``cls.solve`` (spans, metrics, run records)."""
    inner = cls.solve

    @functools.wraps(inner)
    def solve(self, context, *, initial_layout=None, budget=None):
        tracer = trace.get_tracer()
        registry = metrics.get_metrics()
        cache = getattr(context, "estimate_cache", None)
        cache_before = (cache.hits, cache.misses) if cache is not None else None
        enter_scope()
        span = tracer.start_span(f"solve:{self.name}", solver=self.name,
                                 budget_s=budget)
        started = time.perf_counter()
        result = None
        try:
            result = inner(self, context, initial_layout=initial_layout,
                           budget=budget)
            return result
        finally:
            wall_s = time.perf_counter() - started
            if result is not None:
                _annotate_solve_span(span, result)
            else:
                span.set(error=True)
                registry.counter("solver.errors").inc()
                registry.counter(f"solver.{self.name}.errors").inc()
            tracer.end_span(span)
            outermost = exit_scope()
            if result is not None:
                _fold_solve_metrics(registry, self.name, result, wall_s,
                                    cache, cache_before, outermost)
                if outermost and recorder.active_store() is not None:
                    recorder.maybe_record(
                        "solve",
                        result.solver,
                        elapsed_s=result.stats.elapsed_s,
                        wall_s=wall_s,
                        stats=_stats_dict(result),
                        metrics_snapshot=registry.snapshot(),
                        spans=span.to_dict(),
                    )

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
    "enter_scope",
    "exit_scope",
    "instrument_solver",
    "scope_depth",
]
