"""Quickstart: recommend a TOC-minimising layout for a small TPC-H workload.

Run with::

    python examples/quickstart.py

The example builds a scale-factor-2 TPC-H database, the paper's Box 1 storage
system (HDD RAID 0 + L-SSD + H-SSD), and asks the DOT advisor for a layout
that may be at most 2x slower than keeping everything on the high-end SSD
(relative SLA 0.5).  It then compares the recommendation against the simple
all-on-one-class layouts.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import scenarios
from repro.core import ProvisioningAdvisor
from repro.core.simple_layouts import simple_layouts
from repro.experiments.reporting import format_evaluations
from repro.experiments.runner import measure_layouts
from repro.sla import RelativeSLA

from repro.obs import log as obs_log

obs_log.configure()
log = obs_log.get_logger("examples.quickstart")


def main() -> None:
    # 1 + 2. Database and workload: one scenario-registry lookup builds the
    # TPC-H catalog (schema + statistics, no real rows needed), the 22
    # original query templates and a ready-to-use workload estimator.
    bundle = scenarios.build("tpch_original", scale_factor=2.0, repetitions=1)
    catalog, workload, estimator = bundle.catalog, bundle.workload, bundle.estimator
    objects = bundle.objects
    log.info(f"Database: {catalog.name}, {len(objects)} objects, "
          f"{catalog.total_size_gb():.1f} GB")
    log.info(f"Workload: {workload.description}")

    # 3. The storage system: the paper's Box 1.
    system = scenarios.box_system("Box 1")

    # 4. Ask DOT for a layout under a relative SLA of 0.5.
    sla = RelativeSLA(0.5)
    advisor = ProvisioningAdvisor(objects, system, estimator)
    recommendation = advisor.recommend(workload, sla=sla)
    log.info("\n" + recommendation.describe())

    # 5. Compare against the simple layouts, with PSR against the SLA
    # resolved from a simulated run of the reference layout.
    context = bundle.context(system=system, sla=sla)
    layouts = dict(simple_layouts(objects, system))
    layouts["DOT"] = recommendation.layout
    evaluations = measure_layouts(context, layouts, context.resolve_constraint(sla, mode="run"))
    evaluations.sort(key=lambda evaluation: evaluation.toc_cents)
    log.info("\nMeasured comparison (simulated runs):")
    log.info(format_evaluations(evaluations, metric_label="Response time (s)"))


if __name__ == "__main__":
    main()
