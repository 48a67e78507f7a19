"""The vectorized batch layout evaluation engine and the cached pricing path.

The contract under test is strict: the batch exhaustive search, the
estimate cache's pricing (:meth:`QueryEstimateCache.run_result`) and the
incremental DOT walk on it must return *bitwise identical* layouts, TOCs and
move histories compared to the scalar reference paths -- including on the
paper's Figure 9 ES-vs-DOT TPC-C configuration and on generated scenarios.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.core.batch_eval import (
    BatchLayoutEvaluator,
    QueryEstimateCache,
    UnsupportedBatchEvaluation,
    group_placement_coefficients,
    iter_assignment_chunks,
)
from repro.core.context import EvaluationContext
from repro.core.dot import DOTSolver
from repro.core.exhaustive import ExhaustiveSolver
from repro.core.feasibility import constraint_signature
from repro.core.layout import Layout
from repro.core.moves import group_cost_cents_per_hour
from repro.core.profiler import WorkloadProfiler
from repro.core.toc import TOCModel
from repro.dbms.executor import WorkloadEstimator
from repro.exceptions import ConfigurationError, WorkloadError
from repro.sla.constraints import (
    RelativeSLA,
    ResponseTimeConstraint,
    ThroughputConstraint,
)
from repro.storage import catalog as storage_catalog
from repro.storage.storage_class import StorageSystem
from repro.workloads.workload import CrossKindWorkload, Workload


def fresh_estimator(catalog):
    """A fresh estimator (independent plan-cache state per search path)."""
    return WorkloadEstimator(catalog, noise=0.0, buffer_pool=None, seed=7)


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
# Candidate enumeration
# ---------------------------------------------------------------------------

class TestAssignmentChunks:
    def test_matches_itertools_product_order(self):
        rows = np.concatenate(
            [chunk for _, chunk in iter_assignment_chunks(3, 4, chunk_size=7)]
        )
        expected = np.array(list(itertools.product(range(4), repeat=3)))
        assert rows.shape == expected.shape
        assert (rows == expected).all()

    def test_chunk_starts_and_sizes(self):
        starts = []
        total = 0
        for start, chunk in iter_assignment_chunks(4, 3, chunk_size=10):
            starts.append(start)
            assert chunk.shape[0] <= 10
            total += chunk.shape[0]
        assert total == 3**4
        assert starts == list(range(0, 3**4, 10))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            next(iter_assignment_chunks(0, 3))
        with pytest.raises(ValueError):
            next(iter_assignment_chunks(3, 0))
        with pytest.raises(ValueError):
            next(iter_assignment_chunks(3, 3, chunk_size=0))


# ---------------------------------------------------------------------------
# Exhaustive search identity (DSS)
# ---------------------------------------------------------------------------

def solve_es(objects, system, estimator, workload, constraint=None, cost_override=None,
             **knobs):
    """Exhaustive search over ``objects`` (enumerated) with solver ``knobs``."""
    context = EvaluationContext(objects, system, estimator, workload,
                                constraint=constraint, cost_override=cost_override)
    return ExhaustiveSolver(**knobs).solve(context)


def run_both_paths(objects, system, catalog, workload, **kwargs):
    scalar = solve_es(objects, system, fresh_estimator(catalog), workload, batch=False,
                      **kwargs)
    batch = solve_es(objects, system, fresh_estimator(catalog), workload, batch=True,
                     **kwargs)
    return scalar, batch


class TestBatchExhaustiveIdentity:
    @pytest.mark.parametrize("per_group", [False, True])
    def test_unconstrained(self, small_objects, box1_system, small_catalog, small_workload,
                           per_group):
        scalar, batch = run_both_paths(
            small_objects, box1_system, small_catalog, small_workload, per_group=per_group
        )
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents
        # The engine prunes; what it scores and what it cuts cover the space.
        assert (batch.evaluated_layouts + batch.stats.pruned_layouts
                == scalar.evaluated_layouts)

    @pytest.mark.parametrize("per_group", [False, True])
    def test_with_response_time_sla(self, small_objects, box1_system, small_catalog,
                                    small_workload, loose_constraint, per_group):
        scalar, batch = run_both_paths(
            small_objects, box1_system, small_catalog, small_workload,
            constraint=loose_constraint, per_group=per_group,
        )
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents

    def test_with_pinned_objects(self, small_objects, box1_system, small_catalog,
                                 small_workload):
        movable = [obj for obj in small_objects if obj.table == "fact"]
        pinned = [obj for obj in small_objects if obj.table != "fact"]
        scalar, batch = run_both_paths(
            small_objects[:0] + movable, box1_system, small_catalog, small_workload,
            pinned_objects=pinned, pinned_class="HDD RAID 0",
        )
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents
        for obj in pinned:
            assert batch.layout.class_name_of(obj.name) == "HDD RAID 0"

    def test_oltp_identity(self, small_objects, box1_system, small_catalog, oltp_workload):
        scalar, batch = run_both_paths(
            small_objects, box1_system, small_catalog, oltp_workload
        )
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents

    def test_oltp_with_throughput_sla(self, small_objects, box1_system, small_catalog,
                                      oltp_workload):
        toc = TOCModel(fresh_estimator(small_catalog))
        reference = toc.evaluate(
            Layout.uniform(small_objects, box1_system, "H-SSD"), oltp_workload,
            mode="estimate",
        )
        constraint = RelativeSLA(0.25, metric="throughput").resolve(reference.run_result)
        scalar, batch = run_both_paths(
            small_objects, box1_system, small_catalog, oltp_workload, constraint=constraint
        )
        assert batch.feasible == scalar.feasible
        assert batch.toc_cents == scalar.toc_cents
        assert batch.layout == scalar.layout

    def test_infeasible_constraint(self, small_objects, box1_system, small_catalog,
                                   small_workload):
        impossible = ResponseTimeConstraint(
            {name: 1e-9 for name in small_workload.query_names}
        )
        scalar, batch = run_both_paths(
            small_objects, box1_system, small_catalog, small_workload, constraint=impossible
        )
        assert not scalar.feasible and not batch.feasible
        assert batch.toc_cents == scalar.toc_cents == float("inf")

    def test_batch_path_records_stats(self, small_objects, box1_system, small_catalog,
                                      small_workload):
        result = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, batch=True)
        stats = result.stats.batch
        assert stats is not None
        space = len(box1_system) ** len(small_objects)
        assert stats.candidates + stats.pruned_layouts == space
        # Signature dedup: far fewer optimizer estimates than layouts x queries.
        assert 0 < stats.estimator_calls < space

    def test_cost_override_falls_back_to_scalar(self, small_objects, box1_system,
                                                small_catalog, small_workload):
        result = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, cost_override=lambda layout: 42.0, batch=True)
        assert result.stats.batch is None  # scalar path ran
        assert result.feasible

    def test_unknown_constraint_type_falls_back_to_scalar(self, small_objects, box1_system,
                                                          small_catalog, small_workload):
        class PickyConstraint(ResponseTimeConstraint):
            pass

        picky = PickyConstraint({name: 1e12 for name in small_workload.query_names})
        result = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, constraint=picky, batch=True)
        assert result.stats.batch is None
        scalar = solve_es(small_objects, box1_system, fresh_estimator(small_catalog),
                          small_workload, constraint=picky, batch=False)
        assert result.layout == scalar.layout
        assert result.toc_cents == scalar.toc_cents


# ---------------------------------------------------------------------------
# The evaluator building blocks
# ---------------------------------------------------------------------------

class TestBatchLayoutEvaluator:
    def test_capacity_infeasible_candidates_get_inf(self, small_objects, box1_system,
                                                    small_catalog, small_workload):
        total = sum(obj.size_gb for obj in small_objects)
        limited = box1_system.with_capacity_limits({"H-SSD": total * 0.01})
        evaluator = BatchLayoutEvaluator(
            small_objects, limited, fresh_estimator(small_catalog), small_workload
        )
        hssd = limited.class_names.index("H-SSD")
        all_hssd = np.full((1, len(small_objects)), hssd)
        evaluation = evaluator.evaluate_chunk(all_hssd)
        assert evaluation.toc_cents[0] == float("inf")
        assert not evaluation.capacity_ok[0]
        assert evaluation.best_index is None

    def test_chunk_toc_matches_scalar_toc_model(self, small_objects, box1_system,
                                                small_catalog, small_workload):
        estimator = fresh_estimator(small_catalog)
        evaluator = BatchLayoutEvaluator(
            small_objects, box1_system, estimator, small_workload
        )
        toc_model = TOCModel(fresh_estimator(small_catalog))
        rows = np.array([
            [0] * len(small_objects),
            [1] * len(small_objects),
            [0, 1, 2, 0][: len(small_objects)],
        ])
        evaluation = evaluator.evaluate_chunk(rows)
        for row, toc_cents in zip(rows, evaluation.toc_cents):
            layout = Layout(
                small_objects, box1_system, evaluator.assignment_for_row(row)
            )
            expected = toc_model.evaluate(layout, small_workload, mode="estimate")
            assert toc_cents == expected.toc_cents

    def test_requires_variable_objects(self, box1_system, small_catalog, small_workload):
        with pytest.raises(UnsupportedBatchEvaluation):
            BatchLayoutEvaluator(
                [], box1_system, fresh_estimator(small_catalog), small_workload
            )


class TestIncrementalEvaluator:
    """Incremental evaluation: ``EvaluationContext.estimate`` prices a layout
    through the estimate cache's ``run_result``, bitwise the scalar report."""

    def test_dss_report_matches_full_evaluation(self, small_objects, box1_system,
                                                small_catalog, small_workload):
        context = EvaluationContext(small_objects, box1_system,
                                    fresh_estimator(small_catalog), small_workload)
        reference = EvaluationContext(small_objects, box1_system,
                                      fresh_estimator(small_catalog), small_workload)
        for class_name in box1_system.class_names:
            layout = Layout.uniform(small_objects, box1_system, class_name)
            full_report = reference.evaluate(layout)
            for collect_io in (False, True):
                fast_report = context.estimate(layout, collect_io=collect_io)
                assert fast_report == replace(full_report, run_result=fast_report.run_result)
                assert (fast_report.run_result.per_query_times_ms
                        == full_report.run_result.per_query_times_ms)
                # A search candidate skips the I/O merge; the monitor asks for it.
                assert fast_report.run_result.io_by_object == (
                    full_report.run_result.io_by_object if collect_io else {}
                )

    def test_oltp_report_matches_full_evaluation(self, small_objects, box1_system,
                                                 small_catalog, oltp_workload):
        context = EvaluationContext(small_objects, box1_system,
                                    fresh_estimator(small_catalog), oltp_workload)
        reference = EvaluationContext(small_objects, box1_system,
                                      fresh_estimator(small_catalog), oltp_workload)
        for class_name in box1_system.class_names:
            layout = Layout.uniform(small_objects, box1_system, class_name)
            fast_report = context.estimate(layout)
            full_report = reference.evaluate(layout)
            assert fast_report.toc_cents == full_report.toc_cents
            assert (fast_report.run_result.transactions_per_minute
                    == full_report.run_result.transactions_per_minute)
            assert fast_report.run_result == full_report.run_result

    def test_repeated_evaluations_hit_the_cache(self, small_objects, box1_system,
                                                small_catalog, small_workload):
        estimator = fresh_estimator(small_catalog)
        cache = QueryEstimateCache(estimator, small_workload.concurrency)
        placement = Layout.uniform(small_objects, box1_system, "H-SSD").placement()
        cache.run_result(small_workload, placement)
        misses = cache.misses
        # Re-pricing the layout re-estimates nothing: one lookup per stream
        # instance, every one a hit.
        cache.run_result(small_workload, placement)
        assert cache.misses == misses
        assert cache.hits + cache.misses == 2 * len(small_workload.queries)
        assert cache.hits >= len(small_workload.queries)


class TestConstraintSignature:
    def test_known_types(self):
        assert constraint_signature(None) == ("none", None)
        kind, caps = constraint_signature(ResponseTimeConstraint({"q": 5.0}))
        assert kind == "response_time" and caps == {"q": 5.0}
        kind, floor = constraint_signature(ThroughputConstraint(100.0))
        assert kind == "throughput" and floor == 100.0

    def test_subclasses_are_not_vectorizable(self):
        class Custom(ThroughputConstraint):
            pass

        assert constraint_signature(Custom(100.0)) is None


# ---------------------------------------------------------------------------
# DOT incremental path identity
# ---------------------------------------------------------------------------

class TestDOTIncrementalIdentity:
    @pytest.mark.parametrize("workload_fixture", ["small_workload", "oltp_workload"])
    def test_walk_is_bitwise_identical(self, request, small_objects, box1_system,
                                       small_catalog, workload_fixture):
        workload = request.getfixturevalue(workload_fixture)
        results = {}
        for incremental in (False, True):
            estimator = fresh_estimator(small_catalog)
            profiles = WorkloadProfiler(small_objects, box1_system, estimator).profile(
                workload, mode="estimate"
            )
            context = EvaluationContext(small_objects, box1_system, estimator, workload,
                                        profiles=profiles)
            results[incremental] = DOTSolver(incremental=incremental).solve(context)
        scalar, fast = results[False], results[True]
        assert fast.layout == scalar.layout
        assert fast.toc_cents == scalar.toc_cents
        assert len(fast.stats.moves) == len(scalar.stats.moves)
        for fast_move, scalar_move in zip(fast.stats.moves, scalar.stats.moves):
            assert fast_move.move_description == scalar_move.move_description
            assert fast_move.accepted == scalar_move.accepted
            assert fast_move.feasible == scalar_move.feasible
            assert fast_move.toc_cents == scalar_move.toc_cents
            assert fast_move.feasibility == scalar_move.feasibility


@dataclass(frozen=True)
class DrawnScenario:
    """One generated instance of a synthetic scenario.  Only drawn values
    are fields, so Hypothesis prints the whole scenario on a failure."""

    scenario: str
    num_tables: int
    kind: str
    concurrency: int
    size_factors: Tuple[float, ...]
    price_factors: Tuple[float, ...]
    capacity_fractions: Tuple[Tuple[str, float], ...]
    sla_ratio: Optional[float]
    mix_weights: Tuple[float, ...]

    def build(self):
        """``(bundle, objects, system, workload, sla)`` of the instance."""
        bundle = scenarios.build(self.scenario, num_tables=self.num_tables, sla_ratio=None)
        objects = [replace(obj, size_gb=obj.size_gb * factor)
                   for obj, factor in zip(bundle.objects, self.size_factors)]
        total_gb = sum(obj.size_gb for obj in objects)
        system = StorageSystem(
            [replace(storage_class,
                     price_cents_per_gb_hour=storage_class.price_cents_per_gb_hour * factor)
             for storage_class, factor in zip(storage_catalog.box1(), self.price_factors)],
            name="drawn",
        ).with_capacity_limits(
            {name: total_gb * fraction for name, fraction in self.capacity_fractions}
        )
        workload = bundle.workload
        if self.kind == "oltp":
            workload = Workload(
                name="drawn-mix", kind="oltp",
                transaction_mix=tuple(zip(workload.queries, self.mix_weights)),
                concurrency=self.concurrency, measured_transaction_fraction=0.4,
            )
        metric = "throughput" if self.kind == "oltp" else "response_time"
        sla = None if self.sla_ratio is None else RelativeSLA(self.sla_ratio, metric=metric)
        return bundle, objects, system, workload, sla


@st.composite
def drawn_scenarios(draw, kinds=("dss", "oltp"), max_tables=4):
    scenario = draw(st.sampled_from(["synthetic_small", "synthetic_scaling"]))
    num_tables = draw(st.integers(2, max_tables))
    shape = scenarios.build(scenario, num_tables=num_tables, sla_ratio=None)
    kind = draw(st.sampled_from(kinds))
    concurrency, mix_weights = 1, ()
    if kind == "oltp":
        concurrency = draw(st.sampled_from([1, 50, 300]))
        queries = len(shape.workload.queries)
        mix_weights = tuple(draw(st.lists(st.floats(0.0, 10.0), min_size=queries,
                                          max_size=queries)))
        assume(sum(mix_weights) > 0)
    factors = st.floats(0.1, 10.0)
    return DrawnScenario(
        scenario=scenario,
        num_tables=num_tables,
        kind=kind,
        concurrency=concurrency,
        size_factors=tuple(draw(factors) for _ in shape.objects),
        price_factors=tuple(draw(factors) for _ in range(3)),
        capacity_fractions=tuple(
            (name, draw(st.floats(0.1, 1.5)))
            for name in storage_catalog.box1().class_names if draw(st.booleans())
        ),
        sla_ratio=draw(st.one_of(st.none(), st.floats(0.05, 1.0))),
        mix_weights=mix_weights,
    )


class TestCachedPathOnGeneratedScenarios:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=drawn_scenarios())
    def test_cached_walk_and_profiles_equal_the_scalar_ones(self, case):
        """On a generated DSS stream or OLTP mix, the cached path -- SLA
        resolution, profiling and DOT's walk over one estimate cache --
        equals the scalar oracles move for move and bit for bit."""
        bundle, objects, system, workload, sla = case.build()
        fast = WorkloadProfiler(objects, system, bundle.fresh_estimator()).profile(
            workload, fast=True
        )
        scalar = WorkloadProfiler(objects, system, bundle.fresh_estimator()).profile(
            workload, fast=False
        )
        assert fast.patterns == scalar.patterns
        assert fast.profiles == scalar.profiles

        cached_context = EvaluationContext.build(objects, system, bundle.fresh_estimator(),
                                                 workload, sla=sla)
        scalar_context = EvaluationContext(objects, system, bundle.fresh_estimator(),
                                           workload, profiles=scalar)
        if sla is not None:
            reference = scalar_context.evaluate(scalar_context.reference_layout())
            scalar_context.constraint = sla.resolve(reference.run_result)
        assert cached_context.constraint == scalar_context.constraint

        cached = DOTSolver().solve(cached_context)
        oracle = DOTSolver(incremental=False).solve(scalar_context)
        assert cached.stats.moves == oracle.stats.moves
        assert cached.layout == oracle.layout
        assert cached.toc_cents == oracle.toc_cents
        assert cached.feasible == oracle.feasible


# ---------------------------------------------------------------------------
# OLTP scoring: the array mix model against the scalar oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TpchTransactionMix:
    """The 22 ``tpch_original`` SF2 query templates as one OLTP mix at
    concurrency 300 on Box 2.  Their plan variants charge I/O in different
    key orders, so with a few objects enumerated and the rest pinned the
    rows of one chunk fall into many busy-time groups."""

    def build(self):
        """``(bundle, objects, system, workload, sla)``, as
        :meth:`DrawnScenario.build`."""
        bundle = scenarios.build("tpch_original", scale_factor=2.0)
        templates = {query.name: query for query in bundle.workload.queries}.values()
        workload = Workload(
            name="tpch-mix", kind="oltp",
            transaction_mix=tuple((query, 1.0 + position % 5)
                                  for position, query in enumerate(templates)),
            concurrency=300, measured_transaction_fraction=0.45,
        )
        return bundle, bundle.objects, storage_catalog.box2(), workload, None


class TestOltpArrayScoring:
    """``evaluate_chunk`` prices OLTP rows column-wise; every row's TOC and
    feasibility must equal the scalar mix model's
    (:meth:`QueryEstimateCache.run_result` through the TOC model), and the
    batch search must return the scalar search's layout, bit for bit."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=drawn_scenarios(kinds=("oltp",), max_tables=3), enumerated=st.none())
    @example(case=TpchTransactionMix(), enumerated=6)
    def test_array_scores_equal_the_scalar_oracles(self, case, enumerated):
        """``enumerated`` leading objects are enumerated (all when
        ``None``) and the rest pinned on the most expensive class."""
        bundle, objects, system, workload, sla = case.build()
        variable = objects[:enumerated]
        pinned = objects[len(variable):]
        pinned_class = system.most_expensive().name
        context = EvaluationContext.build(objects, system, bundle.fresh_estimator(),
                                          workload, sla=sla)
        evaluator = BatchLayoutEvaluator(
            variable, system, context.estimator, workload,
            pinned=[(obj, pinned_class) for obj in pinned], constraint=context.constraint,
        )
        rows = np.array(list(itertools.product(range(len(system)), repeat=len(variable))))
        # Two chunks: the second reuses the slots and walks the first built.
        half = rows.shape[0] // 2
        scored = [evaluator.evaluate_chunk(rows[:half]), evaluator.evaluate_chunk(rows[half:])]
        toc = np.concatenate([chunk.toc_cents for chunk in scored])
        feasible = np.concatenate([chunk.feasible for chunk in scored])
        assert evaluator.stats.oltp_aggregations == int(np.isfinite(toc).sum())
        if isinstance(case, TpchTransactionMix):
            assert len(evaluator._busy_walks) > 1  # rows in several key-order groups

        oracle = QueryEstimateCache(bundle.fresh_estimator(), workload.concurrency)
        toc_model = TOCModel(oracle.estimator)
        checker = context.checker()
        for row, row_toc, row_feasible in zip(rows, toc, feasible):
            layout = Layout(objects, system, evaluator.assignment_for_row(row))
            if not layout.satisfies_capacity():
                assert row_toc == float("inf") and not row_feasible
                continue
            result = oracle.run_result(workload, layout.placement())
            assert row_toc == toc_model.report_from_result(layout, workload, result).toc_cents
            assert row_feasible == checker.check(layout, result).feasible

        def search(batch):
            return ExhaustiveSolver(objects=variable, pinned_objects=pinned,
                                    pinned_class=pinned_class, batch=batch).solve(
                EvaluationContext(objects, system, bundle.fresh_estimator(), workload,
                                  constraint=context.constraint))

        scalar, batch = search(False), search(True)
        assert batch.feasible == scalar.feasible
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents


# ---------------------------------------------------------------------------
# MILP coefficient tables
# ---------------------------------------------------------------------------

class TestGroupPlacementCoefficients:
    def test_matches_scalar_helpers(self, small_objects, box1_system, small_catalog,
                                    small_workload):
        estimator = fresh_estimator(small_catalog)
        profiles = WorkloadProfiler(small_objects, box1_system, estimator).profile(
            small_workload, mode="estimate"
        )
        from repro.objects import group_objects

        groups = group_objects(small_objects)
        candidates, costs, times = group_placement_coefficients(
            groups, box1_system, profiles
        )
        position = 0
        for group in groups:
            for combo in itertools.product(box1_system.class_names, repeat=len(group)):
                candidate_group, placement = candidates[position]
                assert candidate_group.key == group.key
                assert placement == tuple(combo)
                assert costs[position] == group_cost_cents_per_hour(
                    group, placement, box1_system
                )
                assert times[position] == profiles.io_time_share_ms(group, placement)
                position += 1
        assert position == len(candidates)


# ---------------------------------------------------------------------------
# The acceptance bar: the Figure 9 ES configuration, bit for bit
# ---------------------------------------------------------------------------

class TestFigure9Configuration:
    @pytest.fixture(scope="class")
    def fig9_setup(self):
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

        def search(batch):
            estimator = WorkloadEstimator(catalog, buffer_pool=BufferPool(size_gb=4.0))
            context = EvaluationContext(all_objects, system, estimator, workload)
            constraint = context.resolve_constraint(RelativeSLA(0.25, metric="throughput"))
            return solve_es(
                hot, system, estimator, workload, constraint=constraint, per_group=True,
                pinned_objects=cold, pinned_class=system.most_expensive().name,
                batch=batch,
            )

        return search

    def test_batch_es_bitwise_identical_to_scalar(self, fig9_setup):
        """Section 4.5.3 / Figure 9, H-SSD capped at 21 GB: the batch path
        must return the identical best layout and TOC, bit for bit."""
        scalar = fig9_setup(batch=False)
        batch = fig9_setup(batch=True)
        assert scalar.feasible and batch.feasible
        assert batch.layout == scalar.layout
        assert batch.toc_cents == scalar.toc_cents
        assert (batch.evaluated_layouts + batch.stats.pruned_layouts
                == scalar.evaluated_layouts)


# ---------------------------------------------------------------------------
# Shared estimate tables: profiler fast path, ES+DOT cache sharing
# ---------------------------------------------------------------------------

class TestProfilerFastPath:
    def test_dss_profiles_bitwise_equal_scalar(self, small_objects, box1_system,
                                               small_catalog, small_workload):
        """Estimate-mode profiling through the estimate tables must produce
        the identical M^K profile set, profile for profile, bit for bit."""
        scalar = WorkloadProfiler(
            small_objects, box1_system, fresh_estimator(small_catalog)
        ).profile(small_workload, mode="estimate", fast=False)
        fast = WorkloadProfiler(
            small_objects, box1_system, fresh_estimator(small_catalog)
        ).profile(small_workload, mode="estimate", fast=True)
        assert fast.patterns == scalar.patterns
        assert fast.profiles == scalar.profiles

    def test_oltp_profiles_bitwise_equal_scalar(self, small_objects, box1_system,
                                                small_catalog, oltp_workload):
        scalar = WorkloadProfiler(
            small_objects, box1_system, fresh_estimator(small_catalog)
        ).profile(oltp_workload, mode="estimate", fast=False)
        fast = WorkloadProfiler(
            small_objects, box1_system, fresh_estimator(small_catalog)
        ).profile(oltp_workload, mode="estimate", fast=True)
        assert fast.profiles == scalar.profiles

    def test_fast_path_deduplicates_estimates(self, small_objects, box1_system,
                                              small_catalog, small_workload):
        """Across M^K baseline patterns, a query is estimated only once per
        distinct touched-placement signature."""
        from repro.core.batch_eval import QueryEstimateCache

        estimator = fresh_estimator(small_catalog)
        cache = QueryEstimateCache(estimator, small_workload.concurrency)
        profiler = WorkloadProfiler(small_objects, box1_system, estimator,
                                    estimate_cache=cache)
        profiler.profile(small_workload, mode="estimate")
        patterns = len(profiler.baseline_patterns())
        stream_evals = patterns * len(small_workload.queries)
        assert cache.misses + cache.hits == stream_evals
        assert cache.misses < stream_evals

    def test_testrun_mode_ignores_fast_flag(self, small_objects, box1_system,
                                            small_catalog, small_workload):
        """Test runs are stateful (noise RNG, buffer pool) and must never be
        served from the estimate tables."""
        estimator_a = WorkloadEstimator(small_catalog, noise=0.05, buffer_pool=None, seed=7)
        estimator_b = WorkloadEstimator(small_catalog, noise=0.05, buffer_pool=None, seed=7)
        run_a = WorkloadProfiler(small_objects, box1_system, estimator_a).profile(
            small_workload, mode="testrun", fast=True
        )
        run_b = WorkloadProfiler(small_objects, box1_system, estimator_b).profile(
            small_workload, mode="testrun", fast=False
        )
        assert run_a.profiles == run_b.profiles


class TestSharedEstimateCache:
    def test_es_and_dot_share_one_table(self, small_objects, box1_system, small_catalog,
                                        small_workload, loose_constraint):
        """DOT then ES over one shared cache must match the unshared runs
        bitwise while actually reusing estimates across the two searches."""
        from repro.core.batch_eval import QueryEstimateCache

        def context(estimator, **kwargs):
            return EvaluationContext(small_objects, box1_system, estimator, small_workload,
                                     constraint=loose_constraint, **kwargs)

        # Independent reference runs (fresh estimator and cache each).
        reference_estimator = fresh_estimator(small_catalog)
        profiles = WorkloadProfiler(
            small_objects, box1_system, reference_estimator
        ).profile(small_workload, mode="estimate")
        dot_expected = DOTSolver().solve(context(reference_estimator, profiles=profiles))
        es_expected = ExhaustiveSolver().solve(context(fresh_estimator(small_catalog)))

        # Shared-cache runs over one estimator.
        estimator = fresh_estimator(small_catalog)
        cache = QueryEstimateCache(estimator, small_workload.concurrency)
        shared_profiles = WorkloadProfiler(
            small_objects, box1_system, estimator, estimate_cache=cache
        ).profile(small_workload, mode="estimate")
        dot_shared = DOTSolver().solve(
            context(estimator, profiles=shared_profiles, estimate_cache=cache)
        )
        misses_after_dot = cache.misses
        es_shared = ExhaustiveSolver().solve(context(estimator, estimate_cache=cache))

        assert dot_shared.layout == dot_expected.layout
        assert dot_shared.toc_cents == dot_expected.toc_cents
        assert es_shared.layout == es_expected.layout
        assert es_shared.toc_cents == es_expected.toc_cents
        # The search must have hit estimates that profiling/DOT already paid for.
        assert cache.hits > 0
        assert misses_after_dot > 0

    def test_concurrency_mismatch_is_rejected(self, small_catalog, small_workload,
                                              small_objects, box1_system):
        """A shared cache built for another concurrency or estimator is
        refused, naming both, wherever a context, a profiler or a batch
        evaluator takes it."""
        estimator = fresh_estimator(small_catalog)
        other = fresh_estimator(small_catalog)
        mismatches = [
            (QueryEstimateCache(estimator, concurrency=300),
             "built for concurrency 300 .* at concurrency 1"),
            (QueryEstimateCache(other, concurrency=1),
             f"built for WorkloadEstimator at {id(other):#x} .* "
             f"WorkloadEstimator at {id(estimator):#x}"),
        ]
        for cache, message in mismatches:
            with pytest.raises(ConfigurationError, match=message):
                EvaluationContext(small_objects, box1_system, estimator, small_workload,
                                  estimate_cache=cache)
            profiler = WorkloadProfiler(small_objects, box1_system, estimator,
                                        estimate_cache=cache)
            with pytest.raises(ConfigurationError, match=message):
                profiler.profile(small_workload, mode="estimate")
            with pytest.raises(ConfigurationError, match=message):
                BatchLayoutEvaluator(small_objects, box1_system, estimator,
                                     small_workload, cache=cache)
            assert cache.hits == cache.misses == 0

    def test_mixed_kind_workload_is_rejected(self, small_catalog, small_workload,
                                             oltp_workload, small_objects, box1_system):
        """A cross-kind blend is priced per component; the cached path
        refuses the blend itself with a typed error."""
        blend = CrossKindWorkload(
            name="blend", components=((small_workload, 1.0), (oltp_workload, 1.0))
        )
        context = EvaluationContext(small_objects, box1_system,
                                    fresh_estimator(small_catalog), blend)
        with pytest.raises(WorkloadError, match="kind 'mixed'"):
            context.estimate(context.reference_layout())
        with pytest.raises(WorkloadError, match="kind 'mixed'"):
            context.resolve_constraint(RelativeSLA(0.5))
        with pytest.raises(WorkloadError, match="kind 'mixed'"):
            context.get_profiles()
