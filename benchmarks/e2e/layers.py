"""Outside-in spans around the public calls of each layer of the advisor.

The benchmark times every layer from outside the program: :func:`install`
replaces a public function or method of the layer (``QueryOptimizer.plan``,
``DOTSolver.solve``, ``Journal.append`` ...) with a wrapper that records a
span in this process's memory.  A span is ``(name, start, end, parent, op)``
where ``parent`` indexes the enclosing span and ``op`` is the benchmark
operation it belongs to.  A layer's self time is its spans' durations minus
the time their child spans cover; :func:`ledger` adds those up per layer.

Wrappers cost one flag test while tracing is off.  Forked workers (the
parallel exhaustive-search pool) switch tracing off at fork, so their
copies record nothing; their work reaches the ledger through the solver's
own ``SolveResult.stats.batch`` accounting instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer name) of every wrapped public call.
SPANNED = (
    ("repro.scenarios", "build", "scenarios.build"),
    ("repro.scenarios.registry", "ScenarioBundle.context", "context.build"),
    ("repro.core.context", "EvaluationContext.get_profiles", "profiler.profile"),
    ("repro.core.solver", "DOTSolver.solve", "dot.solve"),
    ("repro.core.solver", "ExhaustiveSolver.solve", "es.solve"),
    ("repro.dbms.optimizer", "QueryOptimizer.plan", "dbms.plan"),
    ("repro.experiments.figures", "figure9_arm", "figures.arm"),
    ("repro.online.controller", "OnlineLoop.step", "online.step"),
    ("repro.service.daemon", "AdvisorService.register", "service.register"),
    ("repro.service.daemon", "AdvisorService.tick", "service.tick"),
    ("repro.service.journal", "Journal.append", "journal.append"),
    ("repro.service.journal", "SnapshotStore.save", "snapshot.save"),
)

#: The root span of one benchmark operation (its self time is glue).
OP = "op"
#: The benchmark's own output check, kept apart from program layers.
CHECK = "bench.check"


class Recorder:
    """In-memory spans and counters of one traced benchmark process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Optional[Tuple[str, float, float, Optional[int], int]]] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, float] = defaultdict(float)
        #: Estimate caches and plan optimizers created while tracing; their
        #: hit counters are folded in by :meth:`fold_caches`.
        self.caches: list = []
        self.optimizers: list = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self.stack[-1] if self.stack else None,
                           self.op))
        self.stack.append(index)
        return index

    def begin_op(self) -> int:
        """Open the root span of the next benchmark operation."""
        self.op += 1
        return self.begin(OP)

    def end(self, index: int) -> None:
        self.stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, op)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable[[tuple, object], None]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            index = self.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- counters ------------------------------------------------------
    def fold_caches(self) -> None:
        """Add the hit counters of the caches created since the last fold."""
        for cache in self.caches:
            self.counts["estimate_cache.hits"] += cache.hits
            self.counts["estimate_cache.misses"] += cache.misses
        for optimizer in self.optimizers:
            self.counts["dbms.plan_hits"] += optimizer.cache_stats.hits
            self.counts["dbms.plan_misses"] += optimizer.cache_stats.misses
        self.caches.clear()
        self.optimizers.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every layer call in :data:`SPANNED` and the counters around them."""
    counts = recorder.counts

    def after_dot(args, result):
        counts["dot.evaluated_layouts"] += result.stats.evaluated_layouts
        counts["dot.moves_accepted"] += result.stats.moves_accepted

    def after_es(args, result):
        batch = result.stats.batch
        if batch is None:
            return
        counts["es.boot_s"] += batch.build_s + batch.warm_s + batch.attach_s
        counts["batch.eval_s"] += batch.eval_s
        counts["batch.eval_per_worker_s"] += batch.eval_s / max(1, batch.workers)
        counts["batch.candidates"] += batch.candidates
        counts["es.evaluated"] += result.stats.evaluated_layouts
        counts["es.pruned"] += batch.pruned_layouts
        counts["es.steals"] += batch.steals
        counts["es.shards"] += batch.shards
        counts["estimate_cache.hits"] += batch.cache_hits
        counts["estimate_cache.misses"] += batch.cache_misses

    def after_step(args, record):
        counts["online.steps"] += 1
        if record.migrated and record.migration is not None:
            counts["online.retiers"] += 1

    hooks = {"dot.solve": after_dot, "es.solve": after_es, "online.step": after_step}
    for module_name, path, name in SPANNED:
        owner, attr = _resolve(module_name, path)
        recorder.wrap(owner, attr, name, hooks.get(name))

    def tracked(cls, instances: list) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if recorder.enabled:
                instances.append(self)

        cls.__init__ = __init__

    from repro.core.batch_eval import QueryEstimateCache
    from repro.dbms.optimizer import QueryOptimizer

    tracked(QueryEstimateCache, recorder.caches)
    tracked(QueryOptimizer, recorder.optimizers)

    fsync = os.fsync

    def counted_fsync(fd):
        if recorder.enabled:
            counts["fsyncs"] += 1
        return fsync(fd)

    os.fsync = counted_fsync
    os.register_at_fork(after_in_child=lambda: setattr(recorder, "enabled", False))


def ledger(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"calls", "self_s", "total_s"}`` over the recorded spans.

    ``total_s`` counts only outermost spans of a layer, so a layer that
    calls itself (a fallback chain re-entering a solver) is not counted
    twice.
    """
    spans = recorder.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    rows: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        row = rows[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["total_s"] += end - start
    return dict(rows)
