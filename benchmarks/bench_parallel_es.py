"""Scaling study: the sharded, pruned parallel exhaustive-search engine.

Not a paper figure -- this benchmark tracks ``repro.core.parallel_search``,
the engine that lifts the ES enumeration ceiling toward the paper's full
``3^19`` TPC-C space.  It runs the exhaustive search over a synthetic
multi-table scenario (capacity-limited so the branch-and-bound pruning has
work to do) through the serial batch path and through the parallel engine at
growing worker counts, asserts the results are bitwise identical, and
records elapsed times, speedups and pruning rates.

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

from repro import scenarios
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

    def run_search(**kwargs):
        # A fresh estimator per arm keeps the serial-vs-parallel comparison
        # free of shared plan-cache warm-up effects.
        context = bundle.context(estimator=bundle.fresh_estimator())
        return ExhaustiveSolver(max_layouts=space, **kwargs).solve(context)

    serial = run_search()
    serial_stats = serial.stats.batch
    rows = [
        {
            "workers": 1,
            "elapsed_s": serial.elapsed_s,
            "build_s": serial_stats.build_s,
            "warm_s": serial_stats.warm_s,
            "attach_s": serial_stats.attach_s,
            "steals": 0,
            "evaluated": serial.evaluated_layouts,
            "pruned_layouts": 0,
            "pruned_subtrees": 0,
            "pruned_chunks": 0,
            "speedup": 1.0,
        }
    ]
    for workers in worker_counts:
        result = run_search(workers=workers)
        assert result.layout == serial.layout, f"layout mismatch at {workers} workers"
        assert result.toc_cents == serial.toc_cents, f"TOC mismatch at {workers} workers"
        stats = result.stats.batch
        rows.append(
            {
                "workers": workers,
                "elapsed_s": result.elapsed_s,
                "build_s": stats.build_s,
                "warm_s": stats.warm_s,
                "attach_s": stats.attach_s,
                "steals": stats.steals,
                "evaluated": result.evaluated_layouts,
                "pruned_layouts": stats.pruned_layouts,
                "pruned_subtrees": stats.pruned_subtrees,
                "pruned_chunks": stats.pruned_chunks,
                "speedup": serial.elapsed_s / result.elapsed_s,
            }
        )
    return {
        "space": space,
        "objects": len(objects),
        "classes": len(system),
        "toc_cents": serial.toc_cents,
        "rows": rows,
    }


def test_parallel_es_scaling(benchmark):
    num_tables = int(os.environ.get("BENCH_ES_TABLES", _default_tables()))
    worker_counts = _worker_counts()
    outcome = run_once(benchmark, parallel_es_run, num_tables, worker_counts)

    rows = outcome["rows"]
    header = (f"{'workers':>7s} {'elapsed':>9s} {'build':>8s} {'warm':>8s} "
              f"{'attach':>8s} {'steals':>6s} {'evaluated':>10s} "
              f"{'pruned':>10s} {'prune %':>8s} {'speedup':>8s}")
    lines = [header]
    for row in rows:
        prune_pct = 100.0 * row["pruned_layouts"] / outcome["space"]
        lines.append(
            f"{row['workers']:>7d} {row['elapsed_s']:>8.2f}s {row['build_s']:>7.2f}s "
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

    # The smoke bar: a >= 3^12 space, every worker count bitwise-equal to the
    # serial path (asserted inside the run), and live pruning counters.
    assert outcome["space"] >= 3**12
    parallel_rows = [row for row in rows if row["workers"] > 1]
    assert parallel_rows, "no parallel configuration ran"
    assert all(row["evaluated"] + row["pruned_layouts"] == outcome["space"]
               for row in parallel_rows)
    assert any(row["pruned_layouts"] > 0 for row in parallel_rows)

    # The scaling bar: >= 2.5x at 4 workers, asserted when the machine can
    # meaningfully run it (4+ CPUs); pruning plus sharding clear it with
    # margin on dedicated hardware, and the guard keeps 1-2 core smoke
    # environments from failing on scheduler noise.
    four = next((row for row in rows if row["workers"] == 4), None)
    if four is not None and (os.cpu_count() or 1) >= 4:
        assert four["speedup"] >= 2.5
