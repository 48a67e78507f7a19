"""Parallel pruned exhaustive search: lifting the ES enumeration ceiling.

Run with::

    python examples/parallel_es.py            # 12-object space, a few seconds
    python examples/parallel_es.py --objects 14 --workers 8
    python examples/parallel_es.py --checkpoint /tmp/es.json   # resumable

The paper uses exhaustive search (ES) as the quality yardstick for DOT but
only on reduced object sets, because ``M^N`` enumeration is exponential.
This example runs ES over a TPC-H object set through the sharded, pruned
engine (:mod:`repro.core.parallel_search`) twice -- in-process
(``workers=1``) and on a pool of ``--workers`` processes -- verifies the
results are bitwise identical, and prints the pruning statistics.  Scaling
``--objects`` to 16 with enough ``--workers`` reproduces the full ``3^16``
TPC-H space of Section 4.4.3 (see EXPERIMENTS.md for wall-clock
expectations).

With ``--checkpoint PATH`` the parallel run goes through the engine's
JSON-persisted :class:`~repro.core.parallel_search.SearchProgress`: an
interrupted (or deliberately re-run) invocation picks up from the completed
shards on disk instead of starting over -- the resumability story for
multi-hour full-space runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import scenarios
from repro.core import ExhaustiveSolver, make_batch_evaluator
from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress
from repro.obs import log as obs_log

obs_log.configure()
log = obs_log.get_logger("examples.parallel_es")


def run_checkpointed(bundle, objects, pinned, system, workers: int, path: Path):
    """Drive the parallel engine directly with a JSON checkpoint on disk."""
    estimator = bundle.fresh_estimator()
    pinned_class = system.cheapest().name
    evaluator = make_batch_evaluator(
        objects, system, estimator, bundle.workload,
        pinned=[(obj, pinned_class) for obj in pinned],
    )
    engine = ParallelEnumerationEngine(evaluator, workers=workers)
    progress = None
    if path.exists():
        progress = SearchProgress.load(path)
        log.info(f"Resuming from {path}: {len(progress.completed)}/{progress.total_shards} "
              f"shards done, incumbent TOC {progress.best_toc:.6g} cents")
    # checkpoint_path persists after every completed shard, so killing the
    # run mid-way loses at most one shard of work.
    progress = engine.run(progress, checkpoint_path=path)
    log.info(f"Checkpoint saved to {path}: {len(progress.completed)}/{progress.total_shards} "
          f"shards, {progress.evaluated:,} layouts evaluated")
    if progress.best_row is not None:
        assignment = evaluator.assignment_for_row(np.array(progress.best_row, dtype=np.int64))
        log.info(f"Best TOC {progress.best_toc:.6g} cents; fast-class objects: "
              + ", ".join(sorted(name for name, cls in assignment.items()
                                 if cls == system.most_expensive().name)))
    return progress


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=12,
                        help="objects to enumerate (16 = the full TPC-H set)")
    parser.add_argument("--workers", type=int, default=2,
                        help="parallel worker processes")
    parser.add_argument("--scale-factor", type=float, default=4.0)
    parser.add_argument("--skip-serial", action="store_true",
                        help="skip the in-process reference run (for huge spaces)")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="JSON checkpoint path: save progress there and "
                             "resume from it when it exists")
    args = parser.parse_args()

    bundle = scenarios.build("tpch_es_subset", scale_factor=args.scale_factor,
                             repetitions=1)
    # Largest objects first, so growing --objects widens the enumerated set
    # the way the paper's reduced studies did; everything else stays pinned to
    # the cheapest class so every query keeps a full placement.
    by_size = sorted(bundle.objects, key=lambda obj: -obj.size_gb)
    objects = by_size[: args.objects]
    pinned = by_size[args.objects:]

    # A binding fast-class limit gives the capacity bound real work.
    total_gb = sum(obj.size_gb for obj in objects)
    system = scenarios.box_system("Box 1", {"H-SSD": total_gb * 0.4})
    space = len(system) ** len(objects)
    log.info(f"Search space: {len(objects)} objects x {len(system)} classes = "
          f"{space:,} layouts ({len(pinned)} objects pinned to "
          f"{system.cheapest().name})")

    if args.checkpoint is not None:
        run_checkpointed(bundle, objects, pinned, system, args.workers, args.checkpoint)
        return

    def build_solver(**kwargs):
        return ExhaustiveSolver(
            objects=objects, pinned_objects=pinned,
            pinned_class=system.cheapest().name, max_layouts=space, **kwargs,
        )

    def solve(solver):
        # Fresh estimator per arm; sla=None -- the study is unconstrained.
        context = bundle.context(system=system, sla=None,
                                 estimator=bundle.fresh_estimator())
        return solver.solve(context)

    serial = None
    if not args.skip_serial:
        serial = solve(build_solver())
        log.info(f"\nIn-process ES:     {serial.elapsed_s:8.2f} s, "
              f"{serial.evaluated_layouts:,} layouts evaluated, "
              f"TOC {serial.toc_cents:.6g} cents")

    parallel = solve(build_solver(workers=args.workers))
    stats = parallel.stats.batch
    boot_s = stats.build_s + stats.warm_s + stats.attach_s
    log.info(f"Parallel ES (x{args.workers}): {parallel.elapsed_s:8.2f} s "
          f"(+ {boot_s:.2f} s build/warm-up/worker boot), "
          f"{parallel.evaluated_layouts:,} layouts evaluated, "
          f"TOC {parallel.toc_cents:.6g} cents")
    log.info(f"Pruning: {stats.pruned_subtrees:,} subtrees "
          f"({stats.pruned_subtree_layouts:,} layouts) by the capacity bound, "
          f"{stats.pruned_chunks:,} chunks ({stats.pruned_chunk_layouts:,} layouts) "
          f"by the incumbent-TOC bound "
          f"({100.0 * stats.pruned_layouts / space:.1f} % of the space)")

    if serial is not None:
        identical = (parallel.layout == serial.layout
                     and parallel.toc_cents == serial.toc_cents)
        log.info(f"\nBitwise-identical to the in-process search: {identical}")
        if not identical:
            raise SystemExit("parallel ES diverged from the in-process reference")
        if serial.elapsed_s > 0:
            log.info(f"Speedup vs in-process enumeration: "
                  f"{serial.elapsed_s / parallel.elapsed_s:.2f}x")


if __name__ == "__main__":
    main()
