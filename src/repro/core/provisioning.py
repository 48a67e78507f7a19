"""The generalized provisioning problem of Section 5.1: pick the right box.

Instead of a single storage system, the data-centre operator has a set of
candidate *storage configurations* (each with its own classes, prices and
capacities) and wants the configuration *and* data layout that minimise the
TOC while meeting the SLA.  The paper solves this by running DOT once per
configuration and keeping the cheapest feasible recommendation; this module
does exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.advisor import ProvisioningAdvisor, Recommendation
from repro.exceptions import InfeasibleLayoutError
from repro.objects import DatabaseObject
from repro.sla.constraints import PerformanceConstraint, RelativeSLA
from repro.storage.storage_class import StorageSystem


@dataclass(frozen=True)
class ProvisioningOption:
    """One candidate storage configuration ``f_i``."""

    name: str
    system: StorageSystem
    description: str = ""


@dataclass
class ProvisioningDecision:
    """Outcome of the generalized provisioning search."""

    chosen: Optional[ProvisioningOption]
    recommendation: Optional[Recommendation]
    per_option: Dict[str, Optional[Recommendation]] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def feasible(self) -> bool:
        """True if at least one configuration admitted a feasible layout."""
        return self.chosen is not None

    def describe(self) -> str:
        """Summary of the per-option TOCs and the chosen configuration."""
        lines = ["Generalized provisioning decision:"]
        for name, recommendation in self.per_option.items():
            if recommendation is None:
                lines.append(f"  {name}: infeasible")
            else:
                marker = " <== chosen" if self.chosen and name == self.chosen.name else ""
                lines.append(
                    f"  {name}: TOC {recommendation.toc_cents:.4f} cents "
                    f"({recommendation.measured_report.metric}){marker}"
                )
        return "\n".join(lines)


class GeneralizedProvisioner:
    """Chooses a storage configuration and layout by running DOT per option."""

    def __init__(self, objects: Sequence[DatabaseObject], estimator):
        self.objects = list(objects)
        self.estimator = estimator

    def decide(
        self,
        workload,
        options: Sequence[ProvisioningOption],
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]] = None,
    ) -> ProvisioningDecision:
        """Run the DOT pipeline for every option and keep the cheapest feasible one.

        A relative SLA is resolved independently per configuration against that
        configuration's own best-performing layout, matching how the paper
        expresses "x times slower than the best case" for whichever hardware
        is under consideration.
        """
        if not options:
            raise InfeasibleLayoutError("no provisioning options supplied")
        started = time.perf_counter()
        per_option: Dict[str, Optional[Recommendation]] = {}
        best_option: Optional[ProvisioningOption] = None
        best_recommendation: Optional[Recommendation] = None

        for option in options:
            advisor = ProvisioningAdvisor(self.objects, option.system, self.estimator)
            try:
                recommendation = advisor.recommend(workload, sla=sla)
            except InfeasibleLayoutError:
                per_option[option.name] = None
                continue
            per_option[option.name] = recommendation
            if best_recommendation is None or recommendation.toc_cents < best_recommendation.toc_cents:
                best_option = option
                best_recommendation = recommendation

        return ProvisioningDecision(
            chosen=best_option,
            recommendation=best_recommendation,
            per_option=per_option,
            elapsed_s=time.perf_counter() - started,
        )
