"""Benchmark: recovery overhead of the resilience layer under injected chaos.

Not a paper figure -- this benchmark tracks :mod:`repro.resilience` and the
recovery machinery it exercises, answering the question a fleet operator
asks before enabling fault tolerance: *what does surviving failures cost
when failures actually happen?*  Three arms, all seeded and deterministic:

* **search chaos** -- the parallel exhaustive search with worker kills,
  shard exceptions and stragglers injected on disjoint shard subsets must
  return the bitwise-identical fault-free optimum; the headline number is
  the wall-clock overhead of the retries and of replacing killed workers;
* **degraded solve** -- the ES solver under a deliberately blown budget
  must come back degraded-but-flagged within the deadline (+ scheduling
  slack), quantifying how much of the space a budgeted solve still covers;
* **online chaos** -- an epoch loop with 20% telemetry dropouts and an
  outlier glitch must complete every epoch with the *same* cumulative cost
  as the fault-free run (telemetry faults perturb observation, never
  accounting) while recording every incident.

The summary lands in ``BENCH_resilience.json``.
"""

from __future__ import annotations

import time

from conftest import run_once, write_bench_json

from repro import scenarios
from repro.core.batch_eval import BatchLayoutEvaluator
from repro.core.parallel_search import ParallelEnumerationEngine
from repro.core.solver import ExhaustiveSolver
from repro.online.controller import OnlineAdvisor
from repro.online.monitor import DriftThresholds, OutlierPolicy
from repro.resilience import FaultInjector, FaultPlan
from repro.sla.constraints import RelativeSLA

from repro.obs import log as obs_log
log = obs_log.get_logger("benchmarks.bench_resilience")

WORKERS = 2
NUM_EPOCHS = 10

_bench_payload = {}


def _record(section, entry):
    _bench_payload[section] = entry
    write_bench_json("resilience", _bench_payload)


def _shard_ids(bundle, workers):
    """The chaos plan targets the real shard geometry of the run."""
    context = bundle.context(estimator=bundle.fresh_estimator())
    evaluator = BatchLayoutEvaluator(
        context.objects, context.system, context.estimator, context.workload
    )
    probe = ParallelEnumerationEngine(evaluator, workers=workers)
    return [task[0] for task in probe.shard_ranges()]


def search_chaos_run():
    bundle = scenarios.build("synthetic_small")

    def solve(**kwargs):
        context = bundle.context(estimator=bundle.fresh_estimator())
        started = time.perf_counter()
        result = ExhaustiveSolver(workers=WORKERS, **kwargs).solve(context)
        return result, time.perf_counter() - started

    baseline, baseline_s = solve()
    plan = FaultPlan.chaos_search(
        seed=2026, shard_ids=_shard_ids(bundle, WORKERS),
        crash_fraction=0.25, exception_fraction=0.25, delay_fraction=0.25,
        delay_s=0.05,
    )
    chaotic, chaotic_s = solve(fault_plan=plan)

    assert chaotic.layout == baseline.layout, "chaos run diverged from fault-free optimum"
    assert chaotic.toc_cents == baseline.toc_cents
    assert chaotic.stats.incidents, "chaos run recorded no recovery incidents"
    return {
        "faults_injected": len(plan.shard_faults),
        "incidents": len(chaotic.stats.incidents),
        "fault_free_s": baseline_s,
        "chaos_s": chaotic_s,
        "recovery_overhead_x": chaotic_s / baseline_s if baseline_s > 0 else None,
        "toc_cents": baseline.toc_cents,
    }


def degraded_solve_run(budget_s: float = 0.015):
    # The tiny scenario solves in milliseconds and would never blow a
    # budget.  The pruned in-process search of the capacity-limited scaling
    # scenario at 3^14 layouts takes 60-75 ms on a 2-CPU host (15-18 ms of
    # it warm-up), so `budget_s` cuts it short with a 4x margin; the seed
    # keeps the best feasible uniform layout.
    bundle = scenarios.build(
        "synthetic_scaling_limited", num_tables=7, capacity_fraction=0.45
    )
    space = len(bundle.system) ** len(bundle.objects)
    full = ExhaustiveSolver(max_layouts=space).solve(
        bundle.context(estimator=bundle.fresh_estimator())
    )
    context = bundle.context(estimator=bundle.fresh_estimator())
    started = time.perf_counter()
    degraded = ExhaustiveSolver(max_layouts=space).solve(context, budget=budget_s)
    elapsed = time.perf_counter() - started

    assert degraded.stats.degraded and degraded.stats.incidents
    assert elapsed <= budget_s * 1.1 + 0.25, (
        f"degraded solve took {elapsed:.3f}s against a {budget_s}s budget"
    )
    if degraded.feasible:
        check = context.checker().check(
            degraded.layout, context.evaluate(degraded.layout).run_result
        )
        assert check.feasible, "degraded result claimed infeasible feasibility"
    return {
        "budget_s": budget_s,
        "elapsed_s": elapsed,
        "feasible": degraded.feasible,
        "evaluated_fraction": (
            degraded.evaluated_layouts / full.evaluated_layouts
            if full.evaluated_layouts else None
        ),
        "toc_gap_cents": (
            degraded.toc_cents - full.toc_cents if degraded.feasible else None
        ),
    }


def online_chaos_run():
    bundle = scenarios.build("synthetic_small")
    context = bundle.context(estimator=bundle.fresh_estimator())
    epochs = [context.workload] * NUM_EPOCHS

    def advisor(injector=None):
        return OnlineAdvisor(
            context.objects, context.system, bundle.fresh_estimator(),
            sla=RelativeSLA(0.5),
            thresholds=DriftThresholds(share_threshold=0.05),
            fault_injector=injector,
            outlier_policy=OutlierPolicy(window=5, k=6.0),
        )

    started = time.perf_counter()
    baseline = advisor().run(epochs)
    baseline_s = time.perf_counter() - started

    plan = FaultPlan.chaos_online(
        seed=2026, num_epochs=NUM_EPOCHS,
        dropout_fraction=0.2, outlier_fraction=0.1, outlier_factor=25.0,
    )
    started = time.perf_counter()
    chaotic = advisor(FaultInjector(plan)).run(epochs)
    chaotic_s = time.perf_counter() - started

    incidents = [i for record in chaotic.records for i in record.incidents]
    assert chaotic.num_epochs == NUM_EPOCHS, "chaos run dropped epochs"
    assert incidents, "chaos run recorded no incidents"
    # Telemetry faults perturb what the monitor sees, never the accounting:
    # on a steady workload the chaos run costs exactly the fault-free run.
    assert chaotic.cumulative_cost_cents == baseline.cumulative_cost_cents
    assert chaotic.min_psr >= 0.5
    return {
        "num_epochs": NUM_EPOCHS,
        "faulty_epochs": len(plan.epoch_faults),
        "incidents": len(incidents),
        "fault_free_s": baseline_s,
        "chaos_s": chaotic_s,
        "cumulative_cost_cents": chaotic.cumulative_cost_cents,
        "min_psr": chaotic.min_psr,
    }


def test_search_chaos_recovery(benchmark):
    outcome = run_once(benchmark, search_chaos_run)
    benchmark.extra_info["summary"] = outcome
    _record("search_chaos", dict(outcome, elapsed_s=run_once.last_elapsed_s))
    log.info(
        f"\nsearch chaos: {outcome['faults_injected']} faults, "
        f"{outcome['incidents']} incidents, "
        f"overhead {outcome['recovery_overhead_x']:.2f}x "
        f"({outcome['fault_free_s']:.2f}s -> {outcome['chaos_s']:.2f}s), "
        "optimum bitwise identical"
    )


def test_degraded_solve_within_budget(benchmark):
    outcome = run_once(benchmark, degraded_solve_run)
    benchmark.extra_info["summary"] = outcome
    _record("degraded_solve", dict(outcome, total_s=run_once.last_elapsed_s))
    log.info(
        f"\ndegraded solve: {outcome['elapsed_s']:.3f}s against a "
        f"{outcome['budget_s']}s budget, feasible={outcome['feasible']}"
    )


def test_online_chaos_recovery(benchmark):
    outcome = run_once(benchmark, online_chaos_run)
    benchmark.extra_info["summary"] = outcome
    _record("online_chaos", dict(outcome, elapsed_s=run_once.last_elapsed_s))
    log.info(
        f"\nonline chaos: {outcome['faulty_epochs']}/{outcome['num_epochs']} faulty "
        f"epochs, {outcome['incidents']} incidents, cost identical to fault-free, "
        f"min PSR {outcome['min_psr']:.2f}"
    )
