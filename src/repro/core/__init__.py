"""The paper's contribution: TOC-minimising data placement (DOT) and baselines.

This package implements everything in Sections 2, 3 and 5 of the paper:

* the layout / capacity / cost model (:mod:`repro.core.layout`,
  :mod:`repro.core.toc`),
* workload profiles over baseline layouts (:mod:`repro.core.profiles`,
  :mod:`repro.core.profiler`),
* the DOT heuristic itself -- move enumeration with priority scores and the
  greedy optimization walk (:mod:`repro.core.moves`, :mod:`repro.core.dot`),
* the evaluated baselines: simple layouts, the Object Advisor, and exhaustive
  search (:mod:`repro.core.simple_layouts`, :mod:`repro.core.object_advisor`,
  :mod:`repro.core.exhaustive`, with the sharded/pruned parallel enumeration
  engine in :mod:`repro.core.parallel_search`),
* the extensions of Section 5: the generalized provisioning problem and the
  discrete-sized storage cost model, plus a MILP reference formulation
  (:mod:`repro.core.ilp`),
* the uniform solver layer: :class:`~repro.core.context.EvaluationContext`
  (shared problem state: system, workload, TOC model, constraint, estimate
  cache) and the ``Solver.solve(context) -> SolveResult`` protocol; each of
  the four algorithms -- DOT, ES, MILP, Object Advisor -- is one solver
  class in its own module, gathered with the fallback chain in
  :mod:`repro.core.solver`.
"""

from repro.objects import DatabaseObject, ObjectGroup, ObjectKind, group_objects
from repro.core.batch_eval import (
    BatchEvalStats,
    BatchLayoutEvaluator,
    QueryEstimateCache,
    UnsupportedBatchEvaluation,
    iter_assignment_chunks,
)
from repro.core.context import EvaluationContext, make_batch_evaluator
from repro.core.layout import Layout
from repro.core.toc import TOCModel, TOCReport
from repro.core.profiles import BaselinePlacement, WorkloadProfileSet
from repro.core.profiler import WorkloadProfiler
from repro.core.moves import Move, enumerate_moves
from repro.core.feasibility import FeasibilityChecker, FeasibilityResult
from repro.core.parallel_search import ParallelEnumerationEngine, SearchProgress
from repro.core.simple_layouts import all_on, index_data_split, simple_layouts
from repro.core.dot import MoveTrace
from repro.core.solver import (
    DOTSolver,
    ExhaustiveSolver,
    FallbackSolver,
    MILPSolver,
    ObjectAdvisorSolver,
    SolveResult,
    SolveStats,
    Solver,
)
from repro.core.discrete_cost import DiscreteCostModel
from repro.core.provisioning import GeneralizedProvisioner, ProvisioningOption
from repro.core.advisor import ProvisioningAdvisor, Recommendation

__all__ = [
    "DatabaseObject",
    "ObjectGroup",
    "ObjectKind",
    "group_objects",
    "BatchEvalStats",
    "BatchLayoutEvaluator",
    "QueryEstimateCache",
    "UnsupportedBatchEvaluation",
    "iter_assignment_chunks",
    "EvaluationContext",
    "make_batch_evaluator",
    "Solver",
    "SolveResult",
    "SolveStats",
    "DOTSolver",
    "ExhaustiveSolver",
    "FallbackSolver",
    "MILPSolver",
    "ObjectAdvisorSolver",
    "Layout",
    "TOCModel",
    "TOCReport",
    "BaselinePlacement",
    "WorkloadProfileSet",
    "WorkloadProfiler",
    "Move",
    "MoveTrace",
    "enumerate_moves",
    "FeasibilityChecker",
    "FeasibilityResult",
    "ParallelEnumerationEngine",
    "SearchProgress",
    "all_on",
    "index_data_split",
    "simple_layouts",
    "DiscreteCostModel",
    "GeneralizedProvisioner",
    "ProvisioningOption",
    "ProvisioningAdvisor",
    "Recommendation",
]
