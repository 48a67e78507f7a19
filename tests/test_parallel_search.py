"""The sharded, pruned parallel enumeration engine.

The contract under test mirrors the batch engine's: serial scalar, serial
batch and parallel pruned enumeration must return *bitwise identical* best
layouts and TOCs on every supported configuration (flat and per-group
enumeration, pinned objects, SLAs, OLTP mixes, the Figure 9 TPC-C study),
and the branch-and-bound pruning must be sound -- the pruned engine finds
the same optimum as the unpruned enumeration on randomized spaces.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import scenarios
from repro.core.batch_eval import (
    BatchEvalStats,
    BatchLayoutEvaluator,
    UnsupportedBatchEvaluation,
    _mixed_radix_weights,
    iter_assignment_chunks,
)
from repro.core.context import EvaluationContext
from repro.core.layout import Layout
from repro.core.parallel_search import (
    ParallelEnumerationEngine,
    SearchProgress,
    _process_shard,
    _Incumbent,
    _PruningBounds,
    _ShardOutcome,
)
from repro.core.solver import ExhaustiveSolver
from repro.core.toc import TOCModel
from repro.dbms.datagen import SyntheticTableSpec, build_synthetic_catalog
from repro.exceptions import ShardFailureError
from repro.dbms.executor import WorkloadEstimator
from repro.dbms.query import Query, TableAccess
from repro.obs import trace
from repro.sla.constraints import RelativeSLA
from repro.storage import catalog as storage_catalog
from repro.workloads.workload import Workload

WORKERS = 2


def fresh_estimator(catalog):
    return WorkloadEstimator(catalog, noise=0.0, buffer_pool=None, seed=7)


def solve_es(objects, system, estimator, workload, constraint=None, **knobs):
    """Exhaustive search over ``objects`` (enumerated) with solver ``knobs``."""
    context = EvaluationContext(objects, system, estimator, workload, constraint=constraint)
    return ExhaustiveSolver(**knobs).solve(context)


def make_evaluator(objects, system, catalog, workload):
    return BatchLayoutEvaluator(objects, system, fresh_estimator(catalog), workload)


@pytest.fixture
def loose_constraint(small_objects, box1_system, small_catalog, small_workload):
    toc = TOCModel(fresh_estimator(small_catalog))
    reference = toc.evaluate(
        Layout.uniform(small_objects, box1_system, "H-SSD"), small_workload, mode="estimate"
    )
    return RelativeSLA(0.25).resolve(reference.run_result)


@pytest.fixture
def oltp_workload(scan_query, lookup_query, write_query):
    return Workload(
        name="tiny-oltp",
        kind="oltp",
        transaction_mix=((scan_query, 1.0), (lookup_query, 8.0), (write_query, 3.0)),
        concurrency=50,
        measured_transaction_fraction=0.4,
    )


# ---------------------------------------------------------------------------
# Sub-range enumeration
# ---------------------------------------------------------------------------

class TestRangeEnumeration:
    def test_subrange_matches_full_enumeration(self):
        full = np.concatenate([chunk for _, chunk in iter_assignment_chunks(4, 3, 16)])
        rows = np.concatenate(
            [chunk for _, chunk in iter_assignment_chunks(4, 3, 7, start=13, stop=61)]
        )
        assert (rows == full[13:61]).all()

    def test_subrange_start_indices(self):
        starts = [start for start, _ in iter_assignment_chunks(4, 3, 10, start=5, stop=40)]
        assert starts == [5, 15, 25, 35]

    def test_empty_and_invalid_ranges(self):
        assert list(iter_assignment_chunks(3, 3, 4, start=7, stop=7)) == []
        with pytest.raises(ValueError):
            list(iter_assignment_chunks(3, 3, 4, start=-1))
        with pytest.raises(ValueError):
            list(iter_assignment_chunks(3, 3, 4, start=5, stop=3))
        with pytest.raises(ValueError):
            list(iter_assignment_chunks(3, 3, 4, stop=3**3 + 1))

    # -- edge cases at the paper's full 19-object width -------------------

    @staticmethod
    def decode_index(index, num_objects, num_classes):
        """Reference mixed-radix decode in arbitrary-precision python ints."""
        row = []
        for _ in range(num_objects):
            row.append(index % num_classes)
            index //= num_classes
        return row[::-1]

    def test_int64_overflow_guard(self):
        # Mixed-radix indices live in int64; a space that does not fit must
        # be refused up front, not silently wrapped.  3^40 and 2^63 both
        # exceed int64; 2^62 is the largest clean power-of-two space.
        with pytest.raises(ValueError):
            next(iter_assignment_chunks(40, 3))
        with pytest.raises(ValueError):
            next(iter_assignment_chunks(63, 2))
        start = 2**62 - 3
        rows = np.concatenate(
            [chunk for _, chunk in
             iter_assignment_chunks(62, 2, 8, start=start, stop=2**62)]
        )
        assert rows.shape == (3, 62)
        assert (rows[-1] == 1).all()  # the final assignment of the space
        with pytest.raises(UnsupportedBatchEvaluation):
            _mixed_radix_weights(64, 2)  # the 2^63 weight cannot be encoded

    def test_last_partial_chunk_at_paper_width(self):
        # The final chunk of a 3^19 stream is almost always partial; its
        # geometry (start index, row count, decoded digits) must be exact.
        total = 3**19
        start = total - 10
        chunks = list(iter_assignment_chunks(19, 3, 7, start=start, stop=total))
        assert [chunk_start for chunk_start, _ in chunks] == [start, start + 7]
        assert [matrix.shape[0] for _, matrix in chunks] == [7, 3]
        rows = np.concatenate([matrix for _, matrix in chunks])
        for offset, row in enumerate(rows):
            assert list(row) == self.decode_index(start + offset, 19, 3)
        assert (rows[-1] == 2).all()  # the very last assignment: all on class 2

    def test_steal_boundaries_cover_each_index_once(self):
        # Demand-driven dispatch hands out one subtree range as many
        # contiguous units; stitching their chunk streams back together must
        # visit each index exactly once, in order, bitwise equal to a single
        # direct pass.
        total = 3**19
        window_lo, window_hi = total - 5000, total - 17
        boundaries = np.unique(
            np.linspace(window_lo, window_hi, 23).astype(np.int64)
        )
        pieces = []
        for unit_lo, unit_hi in zip(boundaries[:-1], boundaries[1:]):
            pieces.extend(
                iter_assignment_chunks(19, 3, 64, start=int(unit_lo), stop=int(unit_hi))
            )
        expected_start = window_lo
        for chunk_start, matrix in pieces:
            assert chunk_start == expected_start  # no skip, no overlap
            expected_start += matrix.shape[0]
        assert expected_start == window_hi
        stitched = np.concatenate([matrix for _, matrix in pieces])
        direct = np.concatenate(
            [matrix for _, matrix in
             iter_assignment_chunks(19, 3, 512, start=window_lo, stop=window_hi)]
        )
        assert (stitched == direct).all()


# ---------------------------------------------------------------------------
# Serial vs parallel identity
# ---------------------------------------------------------------------------

def run_three_paths(objects, system, catalog, workload, **kwargs):
    scalar = solve_es(objects, system, fresh_estimator(catalog), workload, batch=False,
                      **kwargs)
    batch = solve_es(objects, system, fresh_estimator(catalog), workload, batch=True,
                     **kwargs)
    parallel = solve_es(objects, system, fresh_estimator(catalog), workload, batch=True,
                        workers=WORKERS, **kwargs)
    return scalar, batch, parallel


def assert_identical(reference, candidate):
    assert candidate.feasible == reference.feasible
    assert candidate.toc_cents == reference.toc_cents
    assert candidate.layout == reference.layout


class TestParallelIdentity:
    @pytest.mark.parametrize("per_group", [False, True])
    def test_unconstrained(self, small_objects, box1_system, small_catalog, small_workload,
                           per_group):
        scalar, batch, parallel = run_three_paths(
            small_objects, box1_system, small_catalog, small_workload, per_group=per_group
        )
        assert_identical(scalar, batch)
        assert_identical(scalar, parallel)

    def test_with_response_time_sla(self, small_objects, box1_system, small_catalog,
                                    small_workload, loose_constraint):
        scalar, batch, parallel = run_three_paths(
            small_objects, box1_system, small_catalog, small_workload,
            constraint=loose_constraint,
        )
        assert_identical(scalar, batch)
        assert_identical(scalar, parallel)

    def test_with_pinned_objects(self, small_objects, box1_system, small_catalog,
                                 small_workload):
        movable = [obj for obj in small_objects if obj.table == "fact"]
        pinned = [obj for obj in small_objects if obj.table != "fact"]
        scalar, batch, parallel = run_three_paths(
            movable, box1_system, small_catalog, small_workload,
            pinned_objects=pinned, pinned_class="HDD RAID 0",
        )
        assert_identical(scalar, batch)
        assert_identical(scalar, parallel)
        for obj in pinned:
            assert parallel.layout.class_name_of(obj.name) == "HDD RAID 0"

    def test_oltp_identity(self, small_objects, box1_system, small_catalog, oltp_workload):
        scalar, batch, parallel = run_three_paths(
            small_objects, box1_system, small_catalog, oltp_workload
        )
        assert_identical(scalar, batch)
        assert_identical(scalar, parallel)

    def test_capacity_limited_space(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        """A binding capacity limit exercises the subtree pruning bound."""
        total = sum(obj.size_gb for obj in small_objects)
        limited = box1_system.with_capacity_limits({"H-SSD": total * 0.4})
        scalar, batch, parallel = run_three_paths(
            small_objects, limited, small_catalog, small_workload
        )
        assert_identical(scalar, batch)
        assert_identical(scalar, parallel)

    def test_fully_infeasible_space(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        tiny = box1_system.with_capacity_limits(
            {name: 1e-6 for name in box1_system.class_names}
        )
        scalar, batch, parallel = run_three_paths(
            small_objects, tiny, small_catalog, small_workload
        )
        assert not scalar.feasible and not batch.feasible and not parallel.feasible
        assert parallel.toc_cents == float("inf")
        assert parallel.layout is None

    def test_soft_max_layouts_guard(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        """The parallel path may exceed max_layouts; the serial path may not."""
        from repro.exceptions import ConfigurationError

        space = len(box1_system) ** len(small_objects)
        with pytest.raises(ConfigurationError):
            solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                     small_workload, max_layouts=space - 1)
        parallel = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                            small_workload, max_layouts=space - 1, workers=WORKERS)
        serial = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload)
        assert_identical(serial, parallel)

    def test_parallel_records_stats(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        result = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, workers=WORKERS)
        stats = result.stats.batch
        assert stats is not None
        assert stats.workers == result.stats.workers == WORKERS
        assert stats.shards > 0
        assert stats.build_s > 0.0
        space = len(box1_system) ** len(small_objects)
        assert result.evaluated_layouts + stats.pruned_layouts == space
        assert stats.candidates == result.evaluated_layouts


# ---------------------------------------------------------------------------
# Build-time accounting (ES-vs-DOT timing fairness)
# ---------------------------------------------------------------------------

class TestBuildTiming:
    def test_serial_batch_reports_build_separately(self, small_objects, box1_system,
                                                   small_catalog, small_workload):
        result = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, batch=True)
        assert result.stats.batch.build_s > 0.0
        assert result.stats.build_s == result.stats.batch.build_s
        assert result.elapsed_s > 0.0

    def test_warm_cache_shrinks_build_time_not_elapsed_meaning(
            self, small_objects, box1_system, small_catalog, small_workload):
        """With one shared cache, the second search's estimator work happens
        at build/warm-up time; the enumeration time stays comparable."""
        from repro.core.batch_eval import QueryEstimateCache

        estimator = fresh_estimator(small_catalog)
        cache = QueryEstimateCache(estimator, small_workload.concurrency)
        context = EvaluationContext(small_objects, box1_system, estimator, small_workload,
                                    estimate_cache=cache)
        ExhaustiveSolver().solve(context)
        misses_before = cache.misses
        second = ExhaustiveSolver().solve(context)
        assert cache.misses == misses_before  # fully warm: no new estimates
        assert second.stats.batch.build_s > 0.0


# ---------------------------------------------------------------------------
# Pruning soundness on randomized spaces
# ---------------------------------------------------------------------------

def random_scenario(seed):
    """A seeded random catalog/workload/system with binding capacity limits."""
    rng = np.random.default_rng(seed)
    num_tables = int(rng.integers(2, 4))
    specs = [
        SyntheticTableSpec(
            f"t{i}",
            row_count=int(rng.integers(50_000, 2_000_000)),
            row_width_bytes=int(rng.integers(60, 300)),
        )
        for i in range(num_tables)
    ]
    catalog = build_synthetic_catalog(specs, name=f"rand-{seed}")
    queries = []
    for i in range(num_tables):
        queries.append(Query(
            name=f"scan_t{i}",
            accesses=(TableAccess(f"t{i}", selectivity=float(rng.uniform(0.3, 0.9))),),
            aggregate_rows=10_000,
        ))
        queries.append(Query(
            name=f"lookup_t{i}",
            accesses=(TableAccess(f"t{i}", selectivity=0.0001, index=f"t{i}_pkey",
                                  key_lookup=True),),
        ))
    workload = Workload(name=f"rand-{seed}", kind="dss", queries=tuple(queries),
                        concurrency=1)
    objects = catalog.database_objects()
    total_gb = sum(obj.size_gb for obj in objects)
    system = storage_catalog.box1().with_capacity_limits(
        {
            "H-SSD": total_gb * float(rng.uniform(0.2, 0.7)),
            "L-SSD": total_gb * float(rng.uniform(0.4, 1.2)),
        }
    )
    return catalog, workload, objects, system


def engine_run(objects, system, catalog, workload, prune, workers=1):
    """Run the enumeration engine directly (in-process unless workers > 1)."""
    evaluator = make_evaluator(objects, system, catalog, workload)
    engine = ParallelEnumerationEngine(
        evaluator, workers=workers, chunk_size=64, prune=prune
    )
    progress = engine.run()
    layout = None
    if progress.best_row is not None:
        row = np.array(progress.best_row, dtype=np.int64)
        layout = Layout(list(objects), system, evaluator.assignment_for_row(row), name="ES")
    return progress, layout, engine


class TestPruningSoundness:
    @pytest.mark.parametrize("seed", [11, 23, 47, 101])
    def test_pruned_engine_matches_unpruned_optimum(self, seed):
        catalog, workload, objects, system = random_scenario(seed)
        space = len(system) ** len(objects)

        unpruned, unpruned_layout, _ = engine_run(objects, system, catalog, workload,
                                                  prune=False)
        pruned, pruned_layout, _ = engine_run(objects, system, catalog, workload,
                                              prune=True)
        assert unpruned.evaluated == space
        assert pruned.best_toc == unpruned.best_toc
        assert pruned.best_index == unpruned.best_index
        assert pruned_layout == unpruned_layout
        assert pruned.evaluated <= unpruned.evaluated
        assert pruned.evaluated + pruned.stats.pruned_layouts == space

        # And the reference: the serial batch exhaustive search.
        serial = solve_es(objects, system, fresh_estimator(catalog), workload,
                          max_layouts=space)
        if serial.feasible:
            assert pruned.best_toc == serial.toc_cents
            assert pruned_layout == serial.layout
        else:
            assert pruned_layout is None

    @pytest.mark.parametrize("seed", [7, 91])
    def test_pruned_pool_matches_unpruned_optimum(self, seed):
        catalog, workload, objects, system = random_scenario(seed)
        unpruned, unpruned_layout, _ = engine_run(objects, system, catalog, workload,
                                                  prune=False)
        pruned, pruned_layout, _ = engine_run(objects, system, catalog, workload,
                                              prune=True, workers=WORKERS)
        assert pruned.best_toc == unpruned.best_toc
        assert pruned.best_index == unpruned.best_index
        assert pruned_layout == unpruned_layout


# ---------------------------------------------------------------------------
# Pruning bounds never cut a capacity-feasible completion
# ---------------------------------------------------------------------------

class TestPruningBounds:
    def test_admissibility_is_conservative(self, small_objects, box1_system,
                                           small_catalog, small_workload):
        total = sum(obj.size_gb for obj in small_objects)
        limited = box1_system.with_capacity_limits({"H-SSD": total * 0.3})
        evaluator = BatchLayoutEvaluator(
            small_objects, limited, fresh_estimator(small_catalog), small_workload
        )
        prefix_depth = max(1, len(small_objects) - 2)
        bounds = _PruningBounds(evaluator, prefix_depth)
        num_classes = evaluator.num_classes
        subtree_size = num_classes ** (len(small_objects) - prefix_depth)
        _, prefixes = next(iter_assignment_chunks(
            prefix_depth, num_classes, chunk_size=num_classes**prefix_depth
        ))
        keep, cost_lb = bounds.admissible(prefixes)
        for position in range(prefixes.shape[0]):
            lo, hi = position * subtree_size, (position + 1) * subtree_size
            chunk = np.concatenate([
                c for _, c in iter_assignment_chunks(
                    len(small_objects), num_classes, subtree_size, start=lo, stop=hi
                )
            ])
            evaluation = evaluator.evaluate_chunk(chunk)
            if not keep[position]:
                # A pruned subtree must contain no capacity-feasible candidate.
                assert not evaluation.capacity_ok.any()
            # The cost bound must under-estimate every candidate's TOC/cost.
            finite = np.isfinite(evaluation.toc_cents)
            if finite.any() and evaluator.toc_floor_factor() > 0:
                floor = cost_lb[position] * evaluator.toc_floor_factor()
                assert (evaluation.toc_cents[finite] >= floor).all()


# ---------------------------------------------------------------------------
# Resumability and worker reconstruction
# ---------------------------------------------------------------------------

class TestResume:
    def test_partial_progress_resumes_to_identical_result(
            self, small_objects, box1_system, small_catalog, small_workload):
        evaluator = make_evaluator(small_objects, box1_system, small_catalog, small_workload)
        engine = ParallelEnumerationEngine(evaluator, workers=1, chunk_size=64)
        shards = engine.shard_ranges()
        assert len(shards) >= 2

        # Process the first half of the shards "before the interruption".
        partial = SearchProgress(total_shards=len(shards))
        bounds = _PruningBounds(engine.evaluator, engine.prefix_depth)
        incumbent = _Incumbent()
        for shard_id, lo, hi in shards[: len(shards) // 2]:
            partial.record(_process_shard(
                engine.evaluator, bounds, incumbent, shard_id, lo, hi,
                engine.chunk_size, engine.toc_floor_factor, True,
            ))
        assert not partial.finished

        # The checkpoint survives pickling (what an on-disk resume would do).
        partial = pickle.loads(pickle.dumps(partial))
        resumed = engine.run(partial)
        assert resumed.finished

        reference = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                             small_workload)
        row = np.array(resumed.best_row, dtype=np.int64)
        layout = Layout(list(small_objects), box1_system,
                        engine.evaluator.assignment_for_row(row), name="ES")
        assert resumed.best_toc == reference.toc_cents
        assert layout == reference.layout

    def test_resume_under_different_geometry_is_refused(
            self, small_objects, box1_system, small_catalog, small_workload):
        """Shard ids only mean something under one geometry: a checkpoint
        recorded at one prefix depth must not resume at another, even when
        the shard counts coincide."""
        from repro.exceptions import ConfigurationError

        evaluator = make_evaluator(small_objects, box1_system, small_catalog, small_workload)
        # Both engines cut the same shard count, so the refusal must come
        # from the prefix-depth stamp, not the shard count.
        engine_a = ParallelEnumerationEngine(evaluator, workers=1, prefix_depth=2)
        engine_b = ParallelEnumerationEngine(evaluator, workers=1, prefix_depth=3)
        assert len(engine_a.shard_ranges()) == len(engine_b.shard_ranges())
        progress = engine_a.run()
        with pytest.raises(ConfigurationError):
            engine_b.run(progress)

    def test_finished_progress_is_not_rerun(self, small_objects, box1_system,
                                            small_catalog, small_workload):
        engine = ParallelEnumerationEngine(
            make_evaluator(small_objects, box1_system, small_catalog, small_workload),
            workers=1,
        )
        progress = engine.run()
        evaluated = progress.evaluated
        again = engine.run(progress)
        assert again is progress
        assert again.evaluated == evaluated


class TestWorkerReconstruction:
    def test_pickled_evaluator_never_estimates(
            self, small_objects, box1_system, small_catalog, small_workload,
            oltp_workload):
        """What a spawn/forkserver worker receives -- the parent's warmed
        evaluator, pickled -- scores every candidate without calling the
        optimizer, exactly like the parent, for DSS and OLTP alike."""
        for workload in (small_workload, oltp_workload):
            evaluator = make_evaluator(small_objects, box1_system, small_catalog, workload)
            assert evaluator.warm_signatures()
            clone = pickle.loads(pickle.dumps(evaluator))
            misses_before = clone.cache.misses
            calls_before = clone.stats.estimator_calls
            for _, chunk in iter_assignment_chunks(
                len(small_objects), len(box1_system), 128
            ):
                expected = evaluator.evaluate_chunk(chunk)
                scored = clone.evaluate_chunk(chunk)
                assert (scored.toc_cents == expected.toc_cents).all()
                assert (scored.feasible == expected.feasible).all()
            assert clone.cache.misses == misses_before
            assert clone.stats.estimator_calls == calls_before

    def test_warmed_floor_factor_is_positive_for_dss(
            self, small_objects, box1_system, small_catalog, small_workload):
        evaluator = BatchLayoutEvaluator(
            small_objects, box1_system, fresh_estimator(small_catalog), small_workload
        )
        assert evaluator.toc_floor_factor() == 0.0  # not warmed yet
        assert evaluator.warm_signatures()
        assert evaluator.toc_floor_factor() > 0.0


# ---------------------------------------------------------------------------
# The Figure 9 TPC-C configuration, parallel vs serial, bit for bit
# ---------------------------------------------------------------------------

class TestFigure9Parallel:
    def test_parallel_matches_batch_on_fig9_config(self):
        from repro.dbms.buffer_pool import BufferPool
        from repro.experiments import boxes
        from repro.workloads import tpcc

        warehouses, concurrency = 300, 300
        catalog = tpcc.build_catalog(warehouses)
        workload = tpcc.oltp_workload(warehouses, concurrency=concurrency)
        all_objects = catalog.database_objects()
        hot_groups = {"stock", "order_line", "customer"}
        hot = [obj for obj in all_objects if (obj.table or obj.name) in hot_groups]
        cold = [obj for obj in all_objects if obj not in hot]
        system = boxes.box2(capacity_limits_gb={"H-SSD": 21.0})

        def search(**kwargs):
            estimator = WorkloadEstimator(catalog, buffer_pool=BufferPool(size_gb=4.0))
            context = EvaluationContext(all_objects, system, estimator, workload)
            constraint = context.resolve_constraint(RelativeSLA(0.25, metric="throughput"))
            return solve_es(
                hot, system, estimator, workload, constraint=constraint, per_group=True,
                pinned_objects=cold, pinned_class=system.most_expensive().name,
                **kwargs,
            )

        batch = search(batch=True)
        parallel = search(batch=True, workers=WORKERS)
        assert batch.feasible and parallel.feasible
        assert parallel.layout == batch.layout
        assert parallel.toc_cents == batch.toc_cents
        stats = parallel.stats.batch
        assert stats.workers == WORKERS
        assert parallel.evaluated_layouts + stats.pruned_layouts == len(system) ** len(hot)


# ---------------------------------------------------------------------------
# Persisted checkpoints (JSON save/load)
# ---------------------------------------------------------------------------

class TestDiskCheckpoint:
    """`SearchProgress.save`/`load`: the multi-hour-run resume story."""

    def _engine(self, small_objects, box1_system, small_catalog, small_workload):
        evaluator = make_evaluator(small_objects, box1_system, small_catalog, small_workload)
        return ParallelEnumerationEngine(evaluator, workers=1, chunk_size=64)

    def test_json_round_trip_preserves_every_field(self, small_objects, box1_system,
                                                   small_catalog, small_workload,
                                                   tmp_path):
        engine = self._engine(small_objects, box1_system, small_catalog, small_workload)
        progress = engine.run()
        assert progress.finished and progress.best_row is not None

        path = progress.save(tmp_path / "progress.json")
        loaded = SearchProgress.load(path)
        assert loaded.to_json() == progress.to_json()
        assert loaded.completed == progress.completed
        assert loaded.best_toc == progress.best_toc
        assert loaded.best_index == progress.best_index
        assert loaded.best_row == progress.best_row
        assert loaded.evaluated == progress.evaluated
        assert loaded.stats.candidates == progress.stats.candidates
        assert loaded.stats.pruned_subtrees == progress.stats.pruned_subtrees
        assert loaded.space == progress.space
        assert loaded.prefix_depth == progress.prefix_depth

    def test_infinite_incumbent_survives_the_round_trip(self, tmp_path):
        empty = SearchProgress(total_shards=4, space=81, prefix_depth=2)
        loaded = SearchProgress.load(empty.save(tmp_path / "empty.json"))
        assert loaded.best_toc == float("inf")
        assert loaded.best_row is None and loaded.best_index == -1
        assert not loaded.finished

    def test_partial_checkpoint_resumes_from_disk_to_identical_result(
            self, small_objects, box1_system, small_catalog, small_workload, tmp_path):
        engine = self._engine(small_objects, box1_system, small_catalog, small_workload)
        shards = engine.shard_ranges()
        assert len(shards) >= 2

        # Process the first half of the shards "before the interruption",
        # checkpoint to disk, and resume from the file in a fresh object.
        partial = SearchProgress(total_shards=len(shards))
        bounds = _PruningBounds(engine.evaluator, engine.prefix_depth)
        incumbent = _Incumbent()
        for shard_id, lo, hi in shards[: len(shards) // 2]:
            partial.record(_process_shard(
                engine.evaluator, bounds, incumbent, shard_id, lo, hi,
                engine.chunk_size, engine.toc_floor_factor, True,
            ))
        assert not partial.finished
        evaluated_before = partial.evaluated

        restored = SearchProgress.load(partial.save(tmp_path / "partial.json"))
        resumed = engine.run(restored)
        assert resumed.finished
        assert resumed.evaluated >= evaluated_before

        reference = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                             small_workload)
        row = np.array(resumed.best_row, dtype=np.int64)
        layout = Layout(list(small_objects), box1_system,
                        engine.evaluator.assignment_for_row(row), name="ES")
        assert resumed.best_toc == reference.toc_cents
        assert layout == reference.layout

    def test_geometry_stamp_is_enforced_after_loading(
            self, small_objects, box1_system, small_catalog, small_workload, tmp_path):
        from repro.exceptions import ConfigurationError

        engine = self._engine(small_objects, box1_system, small_catalog, small_workload)
        progress = engine.run()
        loaded = SearchProgress.load(progress.save(tmp_path / "done.json"))
        loaded.prefix_depth = (loaded.prefix_depth or 1) + 1
        with pytest.raises(ConfigurationError):
            engine.run(loaded)

    def test_checkpoint_from_the_shared_memory_era_still_loads(self, tmp_path):
        """A checkpoint written before workers adopted the warmed evaluator
        (same format, same stats fields, ``attach_s`` then meaning the shm
        attach) must keep loading: the boot fields were redefined, not
        removed."""
        written = (
            '{"best_index": 4, "best_row": [0, 1, 2], "best_toc": 1.5, "checksum": '
            '"3b5ee79610b8bc06ee2fa3e61d49a0b3bdcb46c802d0cbdd59681c4dbb374c42", '
            '"completed": [0], "evaluated": 27, "format": 2, "incidents": [], '
            '"prefix_depth": 2, "space": 81, "stats": {"attach_s": 0.125, "build_s": 0.25, '
            '"cache_hits": 0, "cache_misses": 0, "candidates": 27, "capacity_feasible": 0, '
            '"chunks": 0, "estimator_calls": 0, "eval_s": 0.0, "feasible": 0, '
            '"oltp_aggregations": 0, "pruned_chunk_layouts": 0, "pruned_chunks": 0, '
            '"pruned_subtree_layouts": 0, "pruned_subtrees": 0, "shards": 1, "steals": 0, '
            '"warm_s": 0.5, "workers": 2}, "total_shards": 2}'
        )
        path = tmp_path / "old.json"
        path.write_text(written)
        loaded = SearchProgress.load(path)
        assert loaded.completed == {0} and loaded.best_row == (0, 1, 2)
        assert (loaded.stats.build_s, loaded.stats.warm_s, loaded.stats.attach_s) == \
            (0.25, 0.5, 0.125)

    def test_checkpoint_save_bytes_are_pinned(self, tmp_path):
        """``save`` keeps writing the format-2 bytes: indented, sorted keys,
        ``Infinity`` for an incumbent-less run."""
        progress = SearchProgress(total_shards=2, completed={0}, evaluated=27,
                                  space=81, prefix_depth=2,
                                  incidents=["shard 1 attempt 0 failed"])
        progress.stats.candidates = 27
        written = (
            b'{\n  "best_index": -1,\n  "best_row": null,\n  "best_toc": Infinity,\n'
            b'  "checksum": "42ffdf30b9e5b06d131779d5618a050f45dd35f04bdd3c733e6ac2b5234a8cbf",\n'
            b'  "completed": [\n    0\n  ],\n  "evaluated": 27,\n  "format": 2,\n'
            b'  "incidents": [\n    "shard 1 attempt 0 failed"\n  ],\n'
            b'  "prefix_depth": 2,\n  "space": 81,\n  "stats": {\n'
            b'    "attach_s": 0.0,\n    "build_s": 0.0,\n    "cache_hits": 0,\n'
            b'    "cache_misses": 0,\n    "candidates": 27,\n    "capacity_feasible": 0,\n'
            b'    "chunks": 0,\n    "estimator_calls": 0,\n    "eval_s": 0.0,\n'
            b'    "feasible": 0,\n    "oltp_aggregations": 0,\n'
            b'    "pruned_chunk_layouts": 0,\n    "pruned_chunks": 0,\n'
            b'    "pruned_subtree_layouts": 0,\n    "pruned_subtrees": 0,\n'
            b'    "shards": 0,\n    "steals": 0,\n    "warm_s": 0.0,\n'
            b'    "workers": 0\n  },\n  "total_shards": 2\n}\n'
        )
        path = progress.save(tmp_path / "pinned.json")
        assert path.read_bytes() == written
        assert SearchProgress.load(path).to_json() == progress.to_json()

    def test_unsupported_format_version_is_refused(self, tmp_path):
        from repro.exceptions import ConfigurationError

        payload = SearchProgress(total_shards=1).to_json()
        payload["format"] = 999
        with pytest.raises(ConfigurationError):
            SearchProgress.from_json(payload)

    def test_unknown_stats_fields_are_refused(self):
        from repro.exceptions import ConfigurationError

        payload = SearchProgress(total_shards=1).to_json()
        payload["stats"]["definitely_not_a_counter"] = 3
        with pytest.raises(ConfigurationError):
            SearchProgress.from_json(payload)

    def test_checkpoint_persists_per_shard_across_a_crash(
            self, small_objects, box1_system, small_catalog, small_workload,
            tmp_path, monkeypatch):
        """Killing the run mid-way must leave a resumable on-disk checkpoint
        covering every shard that completed before the crash."""
        import repro.core.parallel_search as ps

        engine = self._engine(small_objects, box1_system, small_catalog, small_workload)
        path = tmp_path / "crash.json"
        real_process_shard = ps._process_shard
        completed_before_crash = 2

        calls = {"n": 0}

        def crashing_process_shard(*args, **kwargs):
            if calls["n"] >= completed_before_crash:
                raise RuntimeError("simulated kill")
            calls["n"] += 1
            return real_process_shard(*args, **kwargs)

        monkeypatch.setattr(ps, "_process_shard", crashing_process_shard)
        # The engine retries each shard (bounded) and then surfaces the
        # persistent failure as ShardFailureError with the cause embedded.
        with pytest.raises(ShardFailureError, match="simulated kill"):
            engine.run(checkpoint_path=path)

        saved = SearchProgress.load(path)
        assert len(saved.completed) == completed_before_crash
        assert not saved.finished

        monkeypatch.setattr(ps, "_process_shard", real_process_shard)
        resumed = engine.run(SearchProgress.load(path), checkpoint_path=path)
        assert resumed.finished

        reference = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                             small_workload)
        assert resumed.best_toc == reference.toc_cents
        # The final state also landed on disk.
        assert SearchProgress.load(path).finished

    def test_save_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
            self, tmp_path, durable_calls):
        path = SearchProgress(total_shards=1).save(tmp_path / "progress.json")
        assert durable_calls == [
            ("fsync", path.stat().st_ino),
            ("replace", "progress.json.tmp", "progress.json"),
            ("fsync", tmp_path.stat().st_ino),
        ]

    def test_save_is_atomic_and_leaves_no_scratch_file(self, tmp_path):
        progress = SearchProgress(total_shards=3, space=27, prefix_depth=1)
        path = progress.save(tmp_path / "atomic.json")
        progress.completed.add(0)
        progress.save(path)  # overwrite in place
        assert SearchProgress.load(path).completed == {0}
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# Densified estimate tables
# ---------------------------------------------------------------------------

def all_rows(objects, system):
    return np.concatenate(
        [chunk for _, chunk in iter_assignment_chunks(len(objects), len(system), 16)]
    )


class TestDenseTables:
    """``warm_signatures`` densifies every DSS table it fills from empty
    (slot == code) and leaves OLTP tables on the slot path; either way the
    warmed evaluator scores exactly like the lazy one."""

    def test_densified_dss_tables_score_like_the_slot_path(
            self, small_objects, box1_system, small_catalog, small_workload):
        rows = all_rows(small_objects, box1_system)
        lazy = make_evaluator(small_objects, box1_system, small_catalog, small_workload)
        reference = lazy.evaluate_chunk(rows)

        warmed = make_evaluator(small_objects, box1_system, small_catalog, small_workload)
        assert warmed.warm_signatures()
        for table in warmed._template_order:
            assert table.dense
            assert all(slot == code for code, slot in table.code_to_slot.items())
        candidate = warmed.evaluate_chunk(rows)
        assert (candidate.toc_cents == reference.toc_cents).all()
        assert (candidate.feasible == reference.feasible).all()
        assert warmed.toc_floor_factor() > 0.0

        # Tables that already hold slots in first-occurrence order are not
        # in code order, so warming them keeps the slot path.
        assert lazy.warm_signatures()
        assert not any(table.dense for table in lazy._template_order)
        again = lazy.evaluate_chunk(rows)
        assert (again.toc_cents == reference.toc_cents).all()

    def test_oltp_tables_stay_on_the_slot_path(
            self, small_objects, box1_system, small_catalog, oltp_workload):
        rows = all_rows(small_objects, box1_system)
        reference = make_evaluator(
            small_objects, box1_system, small_catalog, oltp_workload
        ).evaluate_chunk(rows)
        warmed = make_evaluator(small_objects, box1_system, small_catalog, oltp_workload)
        assert warmed.warm_signatures()
        assert not any(table.dense for table in warmed._template_order)
        candidate = warmed.evaluate_chunk(rows)
        assert (candidate.toc_cents == reference.toc_cents).all()
        assert (candidate.feasible == reference.feasible).all()


# ---------------------------------------------------------------------------
# Worker boot: the coordinator's warmed evaluator, inherited or unpickled
# ---------------------------------------------------------------------------

def solve_with_worker_warm(context, **kwargs):
    """Solve traced; returns the result and the per-worker warm-up seconds.

    ``SolveStats.batch.warm_s`` folds the coordinator's warm-up (recorded on
    the ``es.warm`` span) with any worker's, so the difference is exactly
    what the pool workers spent warming tables of their own.
    """
    with trace.tracing() as tracer:
        result = ExhaustiveSolver(**kwargs).solve(context)
        (root,) = tracer.drain_roots()
    (warm_span,) = [c for c in root["children"] if c["name"] == "es.warm"]
    return result, result.stats.batch.warm_s - warm_span["attrs"]["warm_s"]


def boot_cases():
    """``(context factory, solver kwargs)`` of the two solves every worker
    boot must get right: DSS ``synthetic_sanity`` and the Figure 9 TPC-C
    w100 hot set (OLTP, cold objects pinned)."""
    dss = scenarios.build("synthetic_sanity")
    tpcc = scenarios.build("fig9_tpcc", warehouses=100)
    hot_groups = set(tpcc.extras["hot_groups"])
    hot = [obj for obj in tpcc.objects if (obj.table or obj.name) in hot_groups]
    cold = [obj for obj in tpcc.objects if obj not in hot]
    return [
        (lambda: dss.context(estimator=dss.fresh_estimator()), {}),
        (lambda: tpcc.context(estimator=tpcc.fresh_estimator(), box="Box 2",
                              capacity_limits_gb={"H-SSD": 21.0}),
         {"objects": hot, "pinned_objects": cold, "per_group": True,
          "pinned_class": "H-SSD"}),
    ]


def worker_boot_summaries():
    """Solve each boot case serially and on a pool of ``WORKERS`` under the
    current start method; one JSON-ready summary per case."""
    summaries = []
    for make_context, search in boot_cases():
        serial = ExhaustiveSolver(**search).solve(make_context())
        parallel, worker_warm_s = solve_with_worker_warm(
            make_context(), workers=WORKERS, **search
        )
        batch = parallel.stats.batch
        summaries.append({
            "identical": bool(parallel.feasible and parallel.layout == serial.layout
                              and parallel.toc_cents == serial.toc_cents),
            "worker_warm_s": worker_warm_s,
            "worker_estimate_lookups": batch.cache_hits + batch.cache_misses,
            "attach_s": batch.attach_s,
        })
    return summaries


def assert_workers_adopted_the_evaluator(summaries):
    assert len(summaries) == 2
    for summary in summaries:
        assert summary["identical"]
        assert summary["worker_warm_s"] == 0.0
        assert summary["worker_estimate_lookups"] == 0
        assert summary["attach_s"] > 0.0


class TestWorkerBoot:
    """Pool workers adopt the coordinator's warmed evaluator: no worker
    rebuilds, re-warms or estimates anything, on DSS and OLTP alike, and the
    results stay bitwise equal to the serial search."""

    def test_default_pool_adopts_the_warmed_evaluator(self):
        # The default start method on Linux is fork: workers inherit the
        # evaluator copy-on-write.
        assert_workers_adopted_the_evaluator(worker_boot_summaries())

    @pytest.mark.timeout(300)
    def test_spawn_pool_unpickles_the_warmed_evaluator(self):
        script = (
            "import json, multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn', force=True)\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "from test_parallel_search import worker_boot_summaries\n"
            "print(json.dumps(worker_boot_summaries()))\n"
        )
        here = Path(__file__).resolve().parent
        completed = subprocess.run(
            [sys.executable, "-c", script, str(here.parent / "src"), str(here)],
            capture_output=True, text=True, check=True, timeout=300,
        )
        assert_workers_adopted_the_evaluator(
            json.loads(completed.stdout.strip().splitlines()[-1])
        )


# ---------------------------------------------------------------------------
# Worker cache-delta folding
# ---------------------------------------------------------------------------

class TestCacheDeltaFolding:
    """Worker cache hit/miss deltas are measured per ``(shard_id, attempt)``
    and folded exactly once: a retried shard whose first outcome already
    landed must not double-count."""

    @staticmethod
    def outcome(shard_id, hits, misses):
        stats = BatchEvalStats(cache_hits=hits, cache_misses=misses)
        return _ShardOutcome(
            shard_id=shard_id, best_toc=float("inf"), best_index=-1,
            best_row=None, evaluated=0, stats=stats,
        )

    def test_duplicate_shard_outcomes_fold_once(self):
        progress = SearchProgress(total_shards=2)
        progress.record(self.outcome(0, hits=5, misses=2))
        progress.record(self.outcome(0, hits=7, misses=9))  # late duplicate attempt
        progress.record(self.outcome(1, hits=3, misses=1))
        assert progress.stats.cache_hits == 8
        assert progress.stats.cache_misses == 3

    def test_stats_merge_folds_boot_and_steal_fields(self):
        total = BatchEvalStats()
        total.merge(BatchEvalStats(build_s=0.5, warm_s=0.25, attach_s=0.01, steals=3,
                                   cache_hits=10, cache_misses=4))
        total.merge(BatchEvalStats(build_s=0.5, warm_s=0.25, attach_s=0.02, steals=1,
                                   cache_hits=2, cache_misses=6))
        assert total.build_s == 1.0
        assert total.warm_s == 0.5
        assert total.attach_s == pytest.approx(0.03)
        assert total.steals == 4
        assert total.cache_hits == 12
        assert total.cache_misses == 10
