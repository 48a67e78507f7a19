"""Experiment harness reproducing every table and figure of the paper's evaluation."""

from repro.experiments.boxes import box1, box2, both_boxes
from repro.experiments.runner import LayoutEvaluation, measure_layouts, run_solver_matrix
from repro.experiments import figures, reporting

__all__ = [
    "box1",
    "box2",
    "both_boxes",
    "LayoutEvaluation",
    "measure_layouts",
    "run_solver_matrix",
    "drift",
    "figures",
    "orchestrator",
    "reporting",
    "specs",
    "store",
]

#: Submodules resolved lazily: drift pulls in the whole repro.online
#: subsystem, and the orchestration layer (store/specs/orchestrator) is only
#: needed by sweep entry points -- loading them on demand keeps a plain
#: `import repro.experiments` light and independent of import ordering.
_LAZY_SUBMODULES = ("drift", "orchestrator", "specs", "store")


def __getattr__(name):
    # importlib (rather than a from-import) avoids re-entering this
    # __getattr__ through the import system's own hasattr probe, which would
    # recurse without terminating.
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.experiments.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
