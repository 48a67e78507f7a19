"""The scenario registry: named experiment configurations, built on demand.

A *scenario* is everything the experiment layer used to assemble by hand at
the top of each figure driver, benchmark and example: a database catalog, a
workload, a workload estimator, and the conventions (profiling mode, default
SLA shape, which figure of the paper it reproduces).  Registering those
recipes under stable names -- ``tpch_original``, ``tpcc_fig8``,
``fig9_tpcc``, ``synthetic_scaling``, ... -- turns a figure into "scenario x
solver list" and gives new workloads exactly one place to plug in.

Layering: a :class:`Scenario` is a *recipe* (cheap, importable, listable);
:meth:`Scenario.build` produces a :class:`ScenarioBundle` (the constructed
catalog/workload/estimator, potentially expensive); and
:meth:`ScenarioBundle.context` packages the bundle with a storage system and
SLA into the :class:`~repro.core.context.EvaluationContext` the solver
protocol consumes.  Builders construct everything freshly per call with
deterministic parameters, so two builds of the same scenario are
independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.context import EvaluationContext
from repro.core.layout import Layout
from repro.core.profiles import WorkloadProfileSet
from repro.exceptions import ConfigurationError
from repro.objects import DatabaseObject
from repro.sla.constraints import PerformanceConstraint, RelativeSLA
from repro.storage import catalog as storage_catalog
from repro.storage.storage_class import StorageSystem


def box_system(
    box: str = "Box 1",
    capacity_limits_gb: Optional[Mapping[str, float]] = None,
    pricing=None,
) -> StorageSystem:
    """A storage system by paper name, optionally capacity-limited.

    ``"Box 1"`` is HDD RAID 0 + L-SSD + H-SSD, ``"Box 2"`` HDD + L-SSD
    RAID 0 + H-SSD (Section 4.1); ``"All classes"`` is the hypothetical
    five-class system of the Section 5.1 provisioning study.
    """
    if box == "Box 1":
        system = storage_catalog.box1(pricing)
    elif box == "Box 2":
        system = storage_catalog.box2(pricing)
    elif box == "All classes":
        system = storage_catalog.full_system(pricing)
    else:
        raise ConfigurationError(
            f"unknown box {box!r} (expected 'Box 1', 'Box 2' or 'All classes')"
        )
    if capacity_limits_gb:
        system = system.with_capacity_limits(capacity_limits_gb)
    return system


#: Sentinel for :meth:`ScenarioBundle.context`'s ``sla``: "use the
#: scenario's default SLA" (pass ``None`` to solve unconstrained).
DEFAULT_SLA = object()


@dataclass
class ScenarioBundle:
    """One constructed instance of a scenario (catalog, workload, estimator).

    ``objects`` are the placeable objects of the catalog; ``estimator`` is
    ready to use, and :meth:`fresh_estimator` builds an independent twin for
    callers that need isolated estimator state per experimental arm (the
    scaling benchmarks' bitwise scalar-vs-batch comparisons).  Scenario
    conventions that the context layer should inherit -- profiling mode, the
    pruned single-baseline profiling of the TPC-C studies, a default SLA --
    travel with the bundle so ``bundle.context()`` does the right thing
    without per-call-site re-encoding.
    """

    name: str
    catalog: object
    workload: object
    estimator: object
    objects: List[DatabaseObject]
    #: Scenario-fixed storage system (``None``: pick per call via ``box=``).
    system: Optional[StorageSystem] = None
    #: Default relative SLA of the scenario's figure (overridable per context).
    sla: Optional[RelativeSLA] = None
    profile_mode: str = "estimate"
    single_baseline_profile: bool = False
    estimator_factory: Optional[Callable[[], object]] = field(default=None, repr=False)
    #: Scenario-specific extras (hot-group names, drift generators, ...).
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def fresh_estimator(self):
        """An independent estimator with the scenario's exact configuration."""
        if self.estimator_factory is None:
            raise ConfigurationError(
                f"scenario {self.name!r} does not provide an estimator factory"
            )
        return self.estimator_factory()

    def objects_named(self, names: Sequence[str]) -> List[DatabaseObject]:
        """The subset of the bundle's objects with the given names (in bundle order)."""
        wanted = set(names)
        return [obj for obj in self.objects if obj.name in wanted]

    def get_system(
        self,
        box: str = "Box 1",
        capacity_limits_gb: Optional[Mapping[str, float]] = None,
    ) -> StorageSystem:
        """The scenario's fixed system, or a paper box built on demand."""
        if self.system is not None and capacity_limits_gb is None:
            return self.system
        if self.system is not None:
            return self.system.with_capacity_limits(capacity_limits_gb)
        return box_system(box, capacity_limits_gb)

    # ------------------------------------------------------------------
    def context(
        self,
        *,
        system: Optional[StorageSystem] = None,
        box: str = "Box 1",
        capacity_limits_gb: Optional[Mapping[str, float]] = None,
        objects: Optional[Sequence[DatabaseObject]] = None,
        sla: Optional[Union[RelativeSLA, PerformanceConstraint]] = DEFAULT_SLA,
        cost_override: Optional[Callable[[Layout], float]] = None,
        profiles: Optional[WorkloadProfileSet] = None,
        estimator=None,
    ) -> EvaluationContext:
        """An :class:`EvaluationContext` over this bundle.

        The storage system comes from ``system`` (explicit), the scenario's
        fixed system, or ``box``/``capacity_limits_gb``; the SLA defaults to
        the scenario's own (pass ``sla=None`` to solve unconstrained).
        ``estimator`` substitutes an alternative estimator (e.g. a
        :meth:`fresh_estimator` twin for isolated arms).  The profiling
        conventions are inherited from the bundle, and the context builds
        its own estimate cache.
        """
        chosen_system = (
            system if system is not None else self.get_system(box, capacity_limits_gb)
        )
        return EvaluationContext.build(
            objects=self.objects if objects is None else objects,
            system=chosen_system,
            estimator=self.estimator if estimator is None else estimator,
            workload=self.workload,
            sla=self.sla if sla is DEFAULT_SLA else sla,
            cost_override=cost_override,
            profile_mode=self.profile_mode,
            single_baseline_profile=self.single_baseline_profile,
            profiles=profiles,
        )


@dataclass(frozen=True)
class Scenario:
    """A named, parameterised recipe for a :class:`ScenarioBundle`.

    The descriptive fields (``workload``, ``system``, ``constraint``,
    ``figure``) drive the registry table in EXPERIMENTS.md and ``describe``;
    ``defaults`` are the builder keyword arguments a plain ``build()`` uses,
    individually overridable per call.
    """

    name: str
    description: str
    workload: str
    system: str
    constraint: str
    figure: str
    builder: Callable[..., ScenarioBundle] = field(repr=False, default=None)
    defaults: Mapping[str, object] = field(default_factory=dict)

    def build(self, **overrides) -> ScenarioBundle:
        """Construct the scenario, applying parameter overrides."""
        params = dict(self.defaults)
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} has no parameters {unknown}; "
                f"known: {sorted(params)}"
            )
        params.update(overrides)
        bundle = self.builder(**params)
        return bundle


# ---------------------------------------------------------------------------
# The registry proper
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Register a scenario under its name (later registrations override)."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ConfigurationError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def build(name: str, **overrides) -> ScenarioBundle:
    """Shorthand for ``get(name).build(**overrides)``."""
    return get(name).build(**overrides)


def describe() -> str:
    """The registry as a fixed-width table (name, workload, system, figure)."""
    from repro.experiments.reporting import format_table

    rows = [
        [scenario.name, scenario.workload, scenario.system, scenario.constraint,
         scenario.figure]
        for scenario in (_REGISTRY[name] for name in scenario_names())
    ]
    return format_table(["Scenario", "Workload", "System", "Constraint", "Figure"], rows)
