"""Run records: one row of the SQLite results store per observed run.

Every outermost ``Solver.solve``, ``OnlineAdvisor.run`` and
``AdvisorService.run`` can persist a :class:`RunRecord` -- scenario, solver,
git revision, seed, the run's own stats and (when tracing is on) its span
tree -- as one row of the :class:`~repro.experiments.store.ResultsStore`,
the store ``python -m repro.experiments`` fills with experiment rows.  A
recorded run's row has the spec ``ExperimentSpec(experiment=<kind>, scenario,
solver, seed, knobs={"run_id": ...})``, so it never matches a matrix
signature, and the record as its payload, so the row's checksum covers it.
``python -m repro.obs.report`` lists experiment rows and recorded runs
alike.

Recording is **opt-in**: enable it for a block with :func:`recording`, or
for a whole process with the ``REPRO_OBS_RECORD`` environment variable
(``1`` for :data:`DEFAULT_STORE`, any other value is the store file).  The
store opens at the first record, so switching recording on creates no file
and loads no ``sqlite3``.  Only the *outermost* observed run records -- a
fallback chain or an online loop yields one record, not one per nested
solve (the nested spans are inside its tree).

A record holds only what its own run computed: the ``SolveStats`` of one
solve, the summary of one online run, the ``ServiceReport`` of one session.
The scenario, seed and annotations a caller declares with
:func:`run_context` belong to the declaring thread (a context variable), so
the specs a sweep runs on pool threads each label their own records.

:func:`new_record` builds every record, experiment rows' included.  Its
fields are JSON-native: values JSON cannot hold are coerced to floats or
strings and non-finite floats become ``None`` (the store refuses NaN and
infinity), so a record read back from the store compares equal to the one
written, floats bitwise.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

#: The one default store of experiment rows and recorded runs alike.
DEFAULT_STORE = Path("benchmarks") / "out" / "experiments.sqlite"


@dataclass
class RunRecord:
    """One persisted observation of a run: a solve, an online run, a service
    session or an experiment spec."""

    run_id: str
    #: ``"solve"``, ``"online"``, ``"service"`` or ``"experiment"``.
    kind: str
    solver: str
    #: Scenario (or workload) label; ``None`` when the caller declared none.
    scenario: Optional[str] = None
    #: ``git rev-parse --short HEAD`` at record time (``None`` outside git).
    git_rev: Optional[str] = None
    #: RNG seed the caller declared via :func:`run_context` (``None`` if not).
    seed: Optional[int] = None
    created_unix_s: float = 0.0
    #: The run's own reported wall time (``SolveStats.elapsed_s`` /
    #: sum of epoch solve times); ``wall_s`` is the observed envelope.
    elapsed_s: float = 0.0
    wall_s: float = 0.0
    #: The run's own numbers (``SolveStats`` as a dict, the online summary,
    #: the ``ServiceReport``).
    stats: Dict[str, object] = field(default_factory=dict)
    #: Serialized span tree of the run (``None`` when tracing was off).
    spans: Optional[Dict[str, object]] = None
    #: Free-form caller annotations from :func:`run_context`.
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json_line(self) -> str:
        """The record as one compact JSON line."""
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from its parsed JSON, ignoring unknown keys
        (such as the ``metrics`` snapshot older rows carry)."""
        known = set(cls.__dataclass_fields__)
        fields = {key: value for key, value in data.items() if key in known}
        spans = fields.get("spans")
        if isinstance(spans, dict) and "roots" in spans:
            # Experiment rows of older stores hold their solves' bare roots.
            fields["spans"] = {"name": "experiment", "attrs": {}, "status": "ok",
                               "duration_s": fields.get("wall_s", 0.0),
                               "events": [], "children": spans["roots"]}
        return cls(**fields)


def _coerce(value):
    """Last-resort JSON coercion for exotic values inside stats/extra."""
    for caster in (float, str):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


def _native(value):
    """``value`` as the store holds it: JSON-native, non-finite floats ``None``."""
    return json.loads(json.dumps(value, default=_coerce), parse_constant=lambda _: None)


# ---------------------------------------------------------------------------
# Recording state: the store is process-wide, the declared context per thread
# ---------------------------------------------------------------------------

def _path_from_env() -> Optional[Path]:
    value = os.environ.get("REPRO_OBS_RECORD", "")
    if value in ("", "0", "false", "off"):
        return None
    if value in ("1", "true", "on"):
        return DEFAULT_STORE
    return Path(value)


_PATH: Optional[Path] = _path_from_env()
#: The store at ``_PATH``, opened at the first record.
_STORE = None
#: What the enclosing :func:`run_context` blocks of this thread declared.
_CONTEXT: contextvars.ContextVar = contextvars.ContextVar("run_context", default={})
_GIT_REV: Optional[str] = None
_GIT_REV_PROBED = False
#: Run-id sequence; ``next`` on it is atomic, so pool threads never share an id.
_SEQ = itertools.count(1)


def store_path() -> Optional[Path]:
    """The store file records go to (``None`` = recording off)."""
    return _PATH


def set_store(path: Optional[os.PathLike]) -> Optional[Path]:
    """Record into the store file ``path`` (``None`` switches recording off).

    Returns the previous path.
    """
    global _PATH
    previous, _PATH = _PATH, (Path(path) if path is not None else None)
    return previous


@contextmanager
def recording(path: os.PathLike = DEFAULT_STORE):
    """Record runs into the store file ``path`` for the duration of the block."""
    previous = set_store(path)
    try:
        yield Path(path)
    finally:
        set_store(previous)


@contextmanager
def run_context(**info):
    """Declare scenario/seed/annotations for records created in the block.

    Recognized keys: ``scenario`` and ``seed`` map onto the record fields of
    the same name; everything else lands in :attr:`RunRecord.extra`.
    Contexts nest; inner values win on key collisions.  A declaration holds
    on the thread that made it: a new thread starts with none.
    """
    token = _CONTEXT.set({**_CONTEXT.get(), **info})
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def git_revision() -> Optional[str]:
    """``git rev-parse --short HEAD`` of the working directory, cached."""
    global _GIT_REV, _GIT_REV_PROBED
    if not _GIT_REV_PROBED:
        _GIT_REV_PROBED = True
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = None
    return _GIT_REV


def new_run_id() -> str:
    """A unique (per machine) run identifier."""
    return f"run-{time.time_ns():x}-{os.getpid()}-{next(_SEQ)}"


def current_run_id() -> str:
    """The run id logging context lines carry: declared, else per-process."""
    declared = _CONTEXT.get().get("run_id")
    if declared:
        return str(declared)
    return f"proc-{os.getpid()}"


def new_record(kind: str, solver: str, *, run_id: Optional[str] = None,
               elapsed_s: float = 0.0, wall_s: float = 0.0,
               stats: Optional[Dict[str, object]] = None,
               spans: Optional[Dict[str, object]] = None, **declared) -> RunRecord:
    """Build a :class:`RunRecord`: the one constructor every record goes through.

    ``scenario``, ``seed`` and annotations come from the enclosing
    :func:`run_context`, overridden by ``declared``; the git revision is
    taken now.
    """
    info = {**_CONTEXT.get(), **declared}
    scenario = info.pop("scenario", None)
    seed = info.pop("seed", None)
    info.pop("run_id", None)
    return RunRecord(
        run_id=run_id or new_run_id(),
        kind=kind,
        solver=solver,
        scenario=str(scenario) if scenario is not None else None,
        git_rev=git_revision(),
        seed=int(seed) if seed is not None else None,
        created_unix_s=time.time(),
        elapsed_s=float(elapsed_s),
        wall_s=float(wall_s),
        stats=_native(stats or {}),
        spans=_native(spans),
        extra=_native(info),
    )


def record_run(kind: str, solver: str, **fields) -> RunRecord:
    """Build one run's record and write it as a row of the active store."""
    global _STORE
    # Imported at the first record: the store loads sqlite3.
    from repro.experiments.store import ExperimentSpec, ResultsStore

    record = new_record(kind, solver, **fields)
    if _STORE is None or _STORE.path != _PATH:
        _STORE = ResultsStore(_PATH)
    spec = ExperimentSpec(experiment=kind, scenario=record.scenario or "",
                          solver=solver, seed=record.seed or 0,
                          knobs={"run_id": record.run_id})
    # The payload carries the record; the record column keeps its header.
    header = replace(record, stats={}, spans=None)
    _STORE.record(spec, {"record": vars(record)}, header)
    return record


__all__ = [
    "DEFAULT_STORE",
    "RunRecord",
    "current_run_id",
    "git_revision",
    "new_record",
    "new_run_id",
    "record_run",
    "recording",
    "run_context",
    "set_store",
    "store_path",
]
