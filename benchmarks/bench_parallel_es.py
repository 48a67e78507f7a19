"""Scaling study: the sharded, pruned parallel exhaustive-search engine.

Not a paper figure -- this benchmark tracks ``repro.core.parallel_search``,
the engine that lifts the ES enumeration ceiling toward the paper's full
``3^19`` TPC-C space.  It runs the exhaustive search over a synthetic
multi-table scenario (capacity-limited so the branch-and-bound pruning has
work to do) through the unpruned in-process engine (the reference row, which
scores every layout), the pruned in-process engine
(``ExhaustiveSolver(workers=1)``) and the pool at growing worker counts,
asserts the results are bitwise identical, and records elapsed times,
speedups against the reference row and pruning rates.

Environment knobs (all optional):

* ``BENCH_ES_TABLES``  -- tables in the synthetic catalog (objects = 2x).
  Default 6 (a ``3^12 = 531441``-layout space) or 7 when >= 4 CPUs are
  available (``3^14``).
* ``BENCH_ES_WORKERS`` -- comma-separated worker counts to run, e.g. ``2,4``.
  Default: every power of two up to the CPU count (at least ``2``).

CI runs the 2-worker smoke configuration; the >= 2.5x speedup bar at 4
workers is asserted whenever a 4-worker run happens on a machine with >= 4
CPUs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import scenarios
from repro.core.layout import Layout
from repro.core.parallel_search import ParallelEnumerationEngine
from repro.core.solver import ExhaustiveSolver

from conftest import run_once, write_bench_json

from repro.obs import log as obs_log
log = obs_log.get_logger("benchmarks.bench_parallel_es")


def _default_tables() -> int:
    return 7 if (os.cpu_count() or 1) >= 4 else 6


def _worker_counts():
    env = os.environ.get("BENCH_ES_WORKERS")
    if env:
        return [int(part) for part in env.split(",") if part.strip()]
    cpus = os.cpu_count() or 1
    counts = [workers for workers in (2, 4, 8) if workers <= cpus]
    return counts or [2]


def build_limited_scenario(num_tables: int, capacity_fraction: float = 0.45):
    """The synthetic scaling scenario with a binding H-SSD capacity limit.

    Limiting the fast class to a fraction of the total data volume makes a
    large share of the mixed-radix subtrees capacity-infeasible, which is
    exactly what the per-prefix capacity bound prunes -- the benchmark then
    reports a meaningful pruning rate instead of a trivially zero one.
    """
    return scenarios.build(
        "synthetic_scaling_limited",
        num_tables=num_tables,
        capacity_fraction=capacity_fraction,
    )


def parallel_es_run(num_tables, worker_counts):
    bundle = build_limited_scenario(num_tables)
    objects, system = bundle.objects, bundle.system
    space = len(system) ** len(objects)

    # A fresh estimator per arm keeps the comparison free of shared
    # plan-cache warm-up effects.
    context = bundle.context(estimator=bundle.fresh_estimator())
    started = time.perf_counter()
    evaluator = context.batch_evaluator()
    build_s = time.perf_counter() - started
    engine = ParallelEnumerationEngine(evaluator, workers=1, prune=False)
    warm_s = time.perf_counter() - started - build_s
    started = time.perf_counter()
    reference = engine.run()
    reference_s = time.perf_counter() - started
    reference_layout = Layout(objects, system, evaluator.assignment_for_row(
        np.array(reference.best_row, dtype=np.int64)), name="ES")
    stats = reference.stats
    rows = [
        {
            "workers": 1,
            "prune": False,
            "elapsed_s": reference_s,
            "build_s": build_s,
            "warm_s": warm_s,
            "attach_s": 0.0,
            "steals": 0,
            "evaluated": reference.evaluated,
            "pruned_layouts": stats.pruned_layouts,
            "pruned_subtrees": stats.pruned_subtrees,
            "pruned_chunks": stats.pruned_chunks,
            "speedup": 1.0,
        }
    ]
    for workers in [1] + list(worker_counts):
        context = bundle.context(estimator=bundle.fresh_estimator())
        result = ExhaustiveSolver(max_layouts=space, workers=workers).solve(context)
        assert result.layout == reference_layout, f"layout mismatch at {workers} workers"
        assert result.toc_cents == reference.best_toc, f"TOC mismatch at {workers} workers"
        stats = result.stats.batch
        rows.append(
            {
                "workers": workers,
                "prune": True,
                "elapsed_s": result.elapsed_s,
                "build_s": stats.build_s,
                "warm_s": stats.warm_s,
                "attach_s": stats.attach_s,
                "steals": stats.steals,
                "evaluated": result.evaluated_layouts,
                "pruned_layouts": stats.pruned_layouts,
                "pruned_subtrees": stats.pruned_subtrees,
                "pruned_chunks": stats.pruned_chunks,
                "speedup": reference_s / result.elapsed_s,
            }
        )
    return {
        "space": space,
        "objects": len(objects),
        "classes": len(system),
        "toc_cents": reference.best_toc,
        "rows": rows,
    }


def test_parallel_es_scaling(benchmark):
    num_tables = int(os.environ.get("BENCH_ES_TABLES", _default_tables()))
    worker_counts = _worker_counts()
    outcome = run_once(benchmark, parallel_es_run, num_tables, worker_counts)

    rows = outcome["rows"]
    header = (f"{'workers':>7s} {'prune':>5s} {'elapsed':>9s} {'build':>8s} {'warm':>8s} "
              f"{'attach':>8s} {'steals':>6s} {'evaluated':>10s} "
              f"{'pruned':>10s} {'prune %':>8s} {'speedup':>8s}")
    lines = [header]
    for row in rows:
        prune_pct = 100.0 * row["pruned_layouts"] / outcome["space"]
        lines.append(
            f"{row['workers']:>7d} {'yes' if row['prune'] else 'no':>5s} "
            f"{row['elapsed_s']:>8.2f}s {row['build_s']:>7.2f}s "
            f"{row['warm_s']:>7.3f}s {row['attach_s']:>7.3f}s {row['steals']:>6d} "
            f"{row['evaluated']:>10d} {row['pruned_layouts']:>10d} {prune_pct:>7.1f}% "
            f"{row['speedup']:>7.2f}x"
        )
    text = "\n".join(lines)
    log.info(f"\nspace: {outcome['objects']} objects x {outcome['classes']} classes = "
             f"{outcome['space']} layouts\n{text}")
    benchmark.extra_info["table"] = text
    benchmark.extra_info["rows"] = rows

    write_bench_json(
        "parallel_es",
        {
            "elapsed_s": run_once.last_elapsed_s,
            "space": outcome["space"],
            "objects": outcome["objects"],
            "classes": outcome["classes"],
            "toc_cents": outcome["toc_cents"],
            "worker_runs": rows,
        },
    )

    # The smoke bar: a >= 3^12 space, every row bitwise-equal to the
    # unpruned reference (asserted inside the run), the reference scoring
    # every layout, and live pruning counters in-process and on the pool.
    assert outcome["space"] >= 3**12
    assert rows[0]["evaluated"] == outcome["space"]
    parallel_rows = [row for row in rows if row["workers"] > 1]
    assert parallel_rows, "no parallel configuration ran"
    assert all(row["evaluated"] + row["pruned_layouts"] == outcome["space"]
               for row in rows)
    assert any(row["pruned_layouts"] > 0 for row in parallel_rows)
    assert rows[1]["pruned_layouts"] > 0

    # The scaling bar: >= 2.5x at 4 workers, asserted when the machine can
    # meaningfully run it (4+ CPUs); pruning plus sharding clear it with
    # margin on dedicated hardware, and the guard keeps 1-2 core smoke
    # environments from failing on scheduler noise.
    four = next((row for row in rows if row["workers"] == 4), None)
    if four is not None and (os.cpu_count() or 1) >= 4:
        assert four["speedup"] >= 2.5
