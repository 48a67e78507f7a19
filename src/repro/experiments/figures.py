"""Per-arm experiment drivers for the paper's figures and tables.

Each function here runs one independently reproducible arm of the paper's
evaluation: the storage profile and device tables (Tables 1 and 2), one
TPC-H cost/performance comparison (the unit of Figures 3, 5 and 7, whose
DOT layouts are Figures 4 and 6), one TPC-C box of Figure 8 (whose Box 2
layouts are Table 3), one capacity-limit arm of Figure 9, the Section 4.4.3
ES-vs-DOT study, and the Section 5 extensions.  Whole figures are declared
as spec lists in :mod:`repro.experiments.specs` and assembled from these
arms' payloads by :func:`~repro.experiments.specs.assemble_figure`.  Each
function accepts scale parameters so the same code drives both the full
paper-scale reproduction and the quick versions used by tests and CI-sized
benchmark runs.

An arm is "scenario x solver list": workloads, catalogs and estimators are
constructed exclusively through the scenario registry
(:mod:`repro.scenarios`), and the optimizers run through the uniform
``Solver.solve(EvaluationContext)`` protocol (:mod:`repro.core.solver`).

Functions return a dictionary with structured results plus a ``"text"`` entry
containing a rendered table, so benchmarks can both assert on the numbers and
print something a human can compare against the paper.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro import scenarios
from repro.core.advisor import ProvisioningAdvisor
from repro.core.discrete_cost import DiscreteCostModel
from repro.core.layout import Layout
from repro.core.provisioning import GeneralizedProvisioner, ProvisioningOption
from repro.core.simple_layouts import simple_layouts
from repro.core.solver import DOTSolver, ExhaustiveSolver, MILPSolver, ObjectAdvisorSolver
from repro.experiments.reporting import format_evaluations, format_table
from repro.experiments.runner import measure_layouts, run_solver_matrix
from repro.sla.constraints import RelativeSLA
from repro.storage import catalog as storage_catalog
from repro.storage.microbench import MicroBenchmark, format_table1


# ---------------------------------------------------------------------------
# Shared plumbing (construction lives in repro.scenarios)
# ---------------------------------------------------------------------------

_TPCH_SCENARIOS = {
    "original": "tpch_original",
    "modified": "tpch_modified",
    "es-subset": "tpch_es_subset",
}


def _tpch_bundle(workload_kind: str, scale_factor: float,
                 repetitions: Optional[int], sla_ratio: float = 0.5):
    """The TPC-H scenario bundle for a workload kind (registry-backed)."""
    try:
        name = _TPCH_SCENARIOS[workload_kind]
    except KeyError:
        raise ValueError(f"unknown TPC-H workload kind {workload_kind!r}") from None
    overrides = {"scale_factor": scale_factor, "sla_ratio": sla_ratio}
    if repetitions is not None:
        overrides["repetitions"] = repetitions
    return scenarios.build(name, **overrides)


# ---------------------------------------------------------------------------
# Table 1 and Table 2
# ---------------------------------------------------------------------------

def table1(concurrencies: Sequence[int] = (1, 300)) -> Dict[str, object]:
    """Regenerate Table 1: storage prices and measured I/O profiles."""
    classes = storage_catalog.all_storage_classes()
    prices = {name: sc.price_cents_per_gb_hour for name, sc in classes.items()}
    bench = MicroBenchmark()
    rows = bench.profile_all(classes, concurrencies)
    return {
        "prices_cents_per_gb_hour": prices,
        "published_prices": dict(storage_catalog.PUBLISHED_PRICES_CENTS_PER_GB_HOUR),
        "profiles": rows,
        "text": format_table1(rows, prices),
    }


def table2() -> Dict[str, object]:
    """Regenerate Table 2: device specifications."""
    devices = storage_catalog.ALL_DEVICES
    headers = ["Attribute"] + list(devices)
    attribute_rows = [
        ["Brand & model"] + [spec.name for spec in devices.values()],
        ["Flash type"] + [spec.flash_type or "N/A" for spec in devices.values()],
        ["Capacity (GB)"] + [spec.capacity_gb for spec in devices.values()],
        ["Interface"] + [spec.interface for spec in devices.values()],
        ["RPM"] + [spec.rpm or "N/A" for spec in devices.values()],
        ["Cache (MB)"] + [spec.cache_mb or "N/A" for spec in devices.values()],
        ["Purchase cost ($)"] + [spec.purchase_cost_usd for spec in devices.values()],
        ["Power (W)"] + [spec.power_watts for spec in devices.values()],
    ]
    return {"devices": devices, "text": format_table(headers, attribute_rows)}


# ---------------------------------------------------------------------------
# TPC-H comparisons (Figures 3-7)
# ---------------------------------------------------------------------------

def tpch_comparison(
    box_name: str = "Box 1",
    sla_ratio: float = 0.5,
    workload_kind: str = "original",
    scale_factor: float = 20.0,
    repetitions: Optional[int] = None,
    include_object_advisor: bool = True,
) -> Dict[str, object]:
    """Cost/performance comparison of DOT, OA and the simple layouts.

    This single driver, parameterised by workload kind and SLA ratio,
    regenerates Figures 3 (original, 0.5), 5 (modified, 0.5) and 7
    (modified, 0.25), together with the DOT layouts shown in Figures 4 and 6.
    """
    bundle = _tpch_bundle(workload_kind, scale_factor, repetitions, sla_ratio)
    workload, estimator, objects = bundle.workload, bundle.estimator, bundle.objects
    system = scenarios.box_system(box_name)
    sla = RelativeSLA(sla_ratio, metric="response_time")
    context = bundle.context(system=system, sla=sla)
    measured_constraint = context.resolve_constraint(sla, mode="run")

    layouts: Dict[str, Layout] = dict(simple_layouts(objects, system))

    advisor = ProvisioningAdvisor(objects, system, estimator)
    recommendation = advisor.recommend(workload, sla=sla)
    layouts["DOT"] = recommendation.layout

    oa_layout = None
    if include_object_advisor:
        oa_layout = ObjectAdvisorSolver().solve(context).layout
        layouts["OA"] = oa_layout

    evaluations = measure_layouts(context, layouts, measured_constraint)
    evaluations.sort(key=lambda evaluation: evaluation.toc_cents)
    return {
        "box": box_name,
        "workload": workload.name,
        "sla_ratio": sla_ratio,
        "constraint": measured_constraint,
        "evaluations": evaluations,
        "dot_layout": recommendation.layout,
        "dot_recommendation": recommendation,
        "oa_layout": oa_layout,
        "text": format_evaluations(evaluations, metric_label="Response time (s)"),
    }


# ---------------------------------------------------------------------------
# Heuristics vs exhaustive search on TPC-H (Section 4.4.3)
# ---------------------------------------------------------------------------

def es_vs_dot_tpch(
    scale_factor: float = 20.0,
    sla_ratio: float = 0.5,
    capacity_limits_gb: Optional[Mapping[str, Mapping[str, float]]] = None,
    repetitions: int = 3,
    es_workers: int = 1,
    full_object_set: bool = False,
    es_max_layouts: int = 500_000,
) -> Dict[str, object]:
    """Section 4.4.3: DOT vs exhaustive search on the reduced TPC-H workload.

    ``capacity_limits_gb`` maps box name to per-class capacity limits, e.g.
    ``{"Box 1": {"HDD RAID 0": 24.0}, "Box 2": {"HDD": 8.0}}``.

    The paper restricts the enumeration to eight objects because ``M^N`` is
    exponential; ``full_object_set=True`` enumerates *all* 16 TPC-H objects
    (the full ``3^16 ~ 4.3e7``-layout space per box) instead, which is
    practical through the sharded, pruned parallel engine -- pass
    ``es_workers > 1`` and ``es_max_layouts=3**16`` (the layout-count guard
    is a hard limit at every worker count).  Each box leaves 9-11 M live
    layouts after the seed, above
    :data:`~repro.core.parallel_search.POOL_MIN_LAYOUTS`, so the search runs
    on the pool.  Results per configuration are bitwise identical to the
    serial search.
    """
    bundle = _tpch_bundle("es-subset", scale_factor, repetitions, sla_ratio)
    if full_object_set:
        objects = bundle.objects
    else:
        objects = bundle.objects_named(bundle.extras["es_object_names"])
    limits = capacity_limits_gb or {"Box 1": {}, "Box 2": {}}
    results: Dict[str, Dict[str, object]] = {}

    for box_name, box_limits in limits.items():
        system = scenarios.box_system(box_name, capacity_limits_gb=box_limits)
        # The context resolves the estimate-derived search constraint and
        # owns the one estimate table serving profiling, DOT's walk and the
        # exhaustive enumeration: every (query, touched-placement-signature)
        # pair is estimated once for the whole comparison.
        context = bundle.context(system=system, objects=objects)
        constraint = context.resolve_constraint(RelativeSLA(sla_ratio), mode="run")

        outcomes = run_solver_matrix(
            context,
            [
                DOTSolver(),
                ExhaustiveSolver(workers=es_workers, max_layouts=es_max_layouts),
            ],
        )
        dot_result, es_result = outcomes["dot"], outcomes["es"]

        comparison: Dict[str, object] = {
            "constraint": constraint,
            "dot": dot_result,
            "es": es_result,
            "dot_elapsed_s": dot_result.elapsed_s,
            "es_elapsed_s": es_result.elapsed_s,
            "dot_evaluated": dot_result.evaluated_layouts,
            "es_evaluated": es_result.evaluated_layouts,
            "es_stats": es_result.stats.batch,
        }
        rows = []
        for label, outcome in (("DOT", dot_result), ("ES", es_result)):
            if outcome.feasible:
                (evaluation,) = measure_layouts(context, {label: outcome.layout}, constraint)
                comparison[f"{label.lower()}_evaluation"] = evaluation
                rows.append(
                    [label, evaluation.response_time_s, evaluation.toc_cents,
                     outcome.evaluated_layouts, outcome.elapsed_s]
                )
            else:
                rows.append([label, float("nan"), float("nan"),
                             outcome.evaluated_layouts, outcome.elapsed_s])
        comparison["text"] = format_table(
            ["Method", "Response time (s)", "TOC (cents)", "Layouts", "Search time (s)"], rows
        )
        results[box_name] = comparison
    return results


# ---------------------------------------------------------------------------
# TPC-C experiments (Figure 8, Table 3, Figure 9)
# ---------------------------------------------------------------------------

def figure8_box(
    box_name: str,
    warehouses: int = 300,
    sla_ratios: Sequence[float] = (0.5, 0.25, 0.125),
    concurrency: int = 300,
) -> Dict[str, object]:
    """One Figure 8 arm: TPC-C tpmC versus TOC on a single box.

    Builds its scenario bundle freshly, so one arm is independently
    reproducible -- the unit the experiment orchestrator records and the
    store-driven figure pipeline reassembles.
    """
    bundle = scenarios.build("tpcc_fig8", warehouses=warehouses, concurrency=concurrency)
    system = scenarios.box_system(box_name)
    context = bundle.context(system=system, sla=None)
    # The paper profiles TPC-C on a single All H-SSD baseline via a test
    # run, because the (random-I/O) plans never change with the layout;
    # the scenario carries that convention.
    profiles = context.get_profiles()

    layouts: Dict[str, Layout] = dict(simple_layouts(bundle.objects, system))
    dot_layouts: Dict[str, Layout] = {}
    per_sla = {}
    for ratio in sla_ratios:
        constraint = context.resolve_constraint(RelativeSLA(ratio, metric="throughput"))
        outcome = DOTSolver().solve(
            bundle.context(system=system, sla=constraint, profiles=profiles)
        )
        per_sla[ratio] = outcome
        if outcome.feasible:
            name = f"DOT (SLA {ratio:g})"
            dot_layouts[name] = outcome.layout.renamed(name)
    layouts.update(dot_layouts)
    evaluations = measure_layouts(context, layouts)
    evaluations.sort(key=lambda evaluation: -(evaluation.transactions_per_minute or 0.0))
    return {
        "evaluations": evaluations,
        "dot_results": per_sla,
        "text": format_evaluations(evaluations, metric_label="tpmC"),
    }


def figure9_limit_label(limit: Optional[float]) -> str:
    """The display label of one Figure 9 capacity-limit arm."""
    return f"H-SSD limit {limit:g} GB" if limit is not None else "No limit"


def figure9_arm(
    limit: Optional[float],
    warehouses: int = 300,
    sla_ratio: float = 0.25,
    concurrency: int = 300,
    hot_groups: Optional[Sequence[str]] = ("stock", "order_line", "customer"),
    es_workers: int = 1,
    es_max_layouts: int = 500_000,
    es_checkpoint_path=None,
) -> Dict[str, object]:
    """One Figure 9 arm (Section 4.5.3): ES vs DOT under one H-SSD capacity limit.

    The paper's exhaustive search over all TPC-C objects is intractable to
    enumerate on one core (3^19 layouts); by default the enumeration is
    restricted to the objects that dominate the I/O -- the ``hot_groups``
    tables and their indexes -- with the remaining (small or rarely touched)
    objects pinned to the most expensive class, while DOT walks the full
    object set as the paper does.  ``hot_groups=None`` enumerates *every*
    TPC-C object (the paper's full ``3^19`` space); combine it with
    ``es_workers > 1`` so the sharded, pruned parallel engine carries the
    enumeration on a worker pool, and with ``es_max_layouts=3**19`` (the
    layout-count guard is a hard limit at every worker count).
    ``es_workers`` is a ceiling: the default hot set's ``3^7`` layouts are
    far fewer than
    :data:`~repro.core.parallel_search.POOL_MIN_LAYOUTS`, so its search
    scores in-process at any worker count.

    Builds its scenario bundle freshly so one arm is independently
    reproducible (the unit the experiment orchestrator records), and
    optionally persists the parallel enumeration's
    :class:`~repro.core.parallel_search.SearchProgress` to
    ``es_checkpoint_path`` so an interrupted full-space sweep resumes from
    its last completed shard.
    """
    bundle = scenarios.build(
        "fig9_tpcc", warehouses=warehouses, concurrency=concurrency, sla_ratio=sla_ratio
    )
    all_objects = bundle.objects
    if hot_groups is None:
        hot = list(all_objects)
        cold = []
    else:
        hot = [obj for obj in all_objects if (obj.table or obj.name) in set(hot_groups)]
        cold = [obj for obj in all_objects if obj not in hot]

    limits = {"H-SSD": limit} if limit is not None else {}
    system = scenarios.box_system("Box 2", capacity_limits_gb=limits)
    pinned_class = system.most_expensive().name

    # The context resolves the estimate-derived search constraint, owns
    # the estimate table DOT's walk and the enumeration share (the
    # test-run profiling cannot use it), and profiles lazily on the
    # single all-fast baseline the scenario prescribes.
    context = bundle.context(system=system)
    constraint = context.resolve_constraint(
        RelativeSLA(sla_ratio, metric="throughput"), mode="run"
    )

    outcomes = run_solver_matrix(
        context,
        [
            # DOT over the full object set (as the paper does).
            DOTSolver(),
            # ES over the hot objects with the cold objects pinned.
            ExhaustiveSolver(
                objects=hot,
                per_group=True,
                pinned_objects=cold,
                pinned_class=pinned_class,
                workers=es_workers,
                max_layouts=es_max_layouts,
                checkpoint_path=es_checkpoint_path,
            ),
        ],
    )
    dot_outcome, es_outcome = outcomes["dot"], outcomes["es"]

    rows = []
    entry: Dict[str, object] = {
        "constraint": constraint,
        "dot": dot_outcome,
        "es": es_outcome,
        "es_stats": es_outcome.stats.batch,
    }
    for method, outcome in (("DOT", dot_outcome), ("ES", es_outcome)):
        if not outcome.feasible:
            rows.append([method, float("nan"), float("nan"), outcome.elapsed_s])
            continue
        (evaluation,) = measure_layouts(context, {method: outcome.layout}, constraint)
        entry[f"{method.lower()}_evaluation"] = evaluation
        rows.append(
            [method, evaluation.transactions_per_minute, evaluation.toc_cents,
             outcome.elapsed_s]
        )
    entry["text"] = format_table(["Method", "tpmC", "TOC (cents/txn)", "Search time (s)"], rows)
    return entry


# ---------------------------------------------------------------------------
# Section 5 extensions and ablations
# ---------------------------------------------------------------------------

def generalized_provisioning(
    scale_factor: float = 4.0,
    sla_ratio: float = 0.5,
    repetitions: int = 1,
) -> Dict[str, object]:
    """Section 5.1: choose the storage configuration (box) and the layout."""
    bundle = _tpch_bundle("original", scale_factor, repetitions, sla_ratio)
    options = [
        ProvisioningOption("Box 1", scenarios.box_system("Box 1"),
                           "HDD RAID 0 + L-SSD + H-SSD"),
        ProvisioningOption("Box 2", scenarios.box_system("Box 2"),
                           "HDD + L-SSD RAID 0 + H-SSD"),
        ProvisioningOption(
            "All classes", scenarios.box_system("All classes"),
            "hypothetical box with all five classes"
        ),
    ]
    provisioner = GeneralizedProvisioner(bundle.objects, bundle.estimator)
    decision = provisioner.decide(bundle.workload, options, sla=RelativeSLA(sla_ratio))
    return {"decision": decision, "text": decision.describe()}


def discrete_cost_experiment(
    scale_factor: float = 4.0,
    sla_ratio: float = 0.5,
    alphas: Sequence[float] = (0.0, 0.5, 1.0),
    repetitions: int = 1,
) -> Dict[str, object]:
    """Section 5.2: DOT under the discrete-sized storage cost model."""
    bundle = _tpch_bundle("original", scale_factor, repetitions, sla_ratio)
    system = scenarios.box_system("Box 1")
    context = bundle.context(system=system, sla=RelativeSLA(sla_ratio))
    profiles = context.get_profiles()

    rows = []
    per_alpha: Dict[float, object] = {}
    for alpha in alphas:
        outcome = DOTSolver().solve(bundle.context(
            system=system, sla=context.constraint, profiles=profiles,
            cost_override=DiscreteCostModel(alpha=alpha),
        ))
        per_alpha[alpha] = outcome
        if outcome.feasible:
            classes_used = sum(
                1 for _, used in outcome.layout.space_used_gb().items() if used > 0
            )
            rows.append([alpha, outcome.toc_cents, classes_used])
        else:
            rows.append([alpha, float("nan"), 0])
    return {
        "results": per_alpha,
        "text": format_table(["alpha", "TOC (cents)", "classes used"], rows),
    }


def ablation_grouping(
    scale_factor: float = 4.0,
    sla_ratio: float = 0.5,
    repetitions: int = 4,
) -> Dict[str, object]:
    """Ablation: DOT's object groups vs per-object (layout-interaction-blind) moves."""
    bundle = _tpch_bundle("modified", scale_factor, repetitions, sla_ratio)
    context = bundle.context(system=scenarios.box_system("Box 1"))

    rows = []
    outcomes = {}
    for label, independent in (("grouped (DOT)", False), ("independent objects", True)):
        outcome = DOTSolver(independent_objects=independent).solve(context)
        outcomes[label] = outcome
        if outcome.feasible:
            (evaluation,) = measure_layouts(context, {label: outcome.layout}, context.constraint)
            rows.append([label, evaluation.response_time_s, evaluation.toc_cents, evaluation.psr])
        else:
            rows.append([label, float("nan"), float("nan"), 0.0])
    return {
        "results": outcomes,
        "text": format_table(["Enumeration", "Response time (s)", "TOC (cents)", "PSR"], rows),
    }


def ablation_ilp(
    scale_factor: float = 4.0,
    sla_ratio: float = 0.5,
    repetitions: int = 3,
) -> Dict[str, object]:
    """Ablation: DOT's greedy walk vs the exact MILP relaxation."""
    bundle = _tpch_bundle("es-subset", scale_factor, repetitions, sla_ratio)
    objects = bundle.objects_named(bundle.extras["es_object_names"])
    system = scenarios.box_system("Box 1")
    context = bundle.context(system=system, objects=objects)

    outcomes = run_solver_matrix(
        context,
        [
            DOTSolver(),
            # The MILP's time budget is the all-fast layout's profiled I/O
            # time share scaled by the SLA ratio (derived from the context).
            MILPSolver(),
        ],
    )
    dot_outcome, milp_outcome = outcomes["dot"], outcomes["milp"]

    rows = []
    results = {"dot": dot_outcome, "milp": milp_outcome}
    if dot_outcome.feasible:
        rows.append(["DOT", dot_outcome.toc_cents, dot_outcome.elapsed_s])
    if milp_outcome.feasible:
        results["milp_report"] = milp_outcome.toc_report
        rows.append(["MILP", milp_outcome.toc_cents, milp_outcome.elapsed_s])
    return {
        "results": results,
        "text": format_table(["Method", "TOC (cents)", "Solve time (s)"], rows),
    }
