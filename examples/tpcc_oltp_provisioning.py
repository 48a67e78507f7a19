"""OLTP provisioning: throughput-SLA-driven placement for a TPC-C style workload.

Reproduces, at a reduced warehouse count, the paper's Figure 8 / Table 3
experiment: DOT layouts for the TPC-C transaction mix under progressively
looser throughput SLAs, compared with the all-on-one-class layouts.  Run
with::

    python examples/tpcc_oltp_provisioning.py [warehouses]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import scenarios
from repro.core import DOTSolver
from repro.core.simple_layouts import simple_layouts
from repro.experiments.reporting import format_evaluations, format_layout_assignment
from repro.experiments.runner import measure_layouts
from repro.sla import RelativeSLA

from repro.obs import log as obs_log

obs_log.configure()
log = obs_log.get_logger("examples.tpcc_oltp_provisioning")


def main(warehouses: int = 30) -> None:
    bundle = scenarios.build("tpcc_fig8", warehouses=warehouses, concurrency=100)
    system = scenarios.box_system("Box 2")
    context = bundle.context(system=system, sla=None)

    # TPC-C plans never change with the layout (all random I/O), so a single
    # test-run profile on the all-H-SSD baseline suffices -- exactly the
    # pruning the paper applies in Section 4.5.1.  That convention travels
    # with the scenario, so the context profiles itself correctly on demand.
    layouts = dict(simple_layouts(bundle.objects, system))
    for ratio in (0.5, 0.25, 0.125):
        constraint = context.resolve_constraint(RelativeSLA(ratio, metric="throughput"))
        outcome = DOTSolver().solve(
            bundle.context(system=system, sla=constraint, profiles=context.get_profiles())
        )
        if outcome.feasible:
            name = f"DOT (SLA {ratio:g})"
            layouts[name] = outcome.layout.renamed(name)
            log.info(f"\n=== DOT layout at relative SLA {ratio:g} ===")
            log.info(format_layout_assignment(outcome.layout))
        else:
            log.info(f"\nRelative SLA {ratio:g}: no feasible layout found")

    evaluations = measure_layouts(context, layouts)
    evaluations.sort(key=lambda evaluation: -(evaluation.transactions_per_minute or 0))
    log.info("\nMeasured comparison (simulated runs):")
    log.info(format_evaluations(evaluations, metric_label="tpmC"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30)
