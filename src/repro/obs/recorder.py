"""Durable run records: an append-only JSONL store of solves and online runs.

Every instrumented ``Solver.solve`` and ``OnlineAdvisor.run`` can persist a
:class:`RunRecord` -- scenario, solver, git revision, seed, the run's stats,
a metrics-registry snapshot and (when tracing is on) the full span tree --
to a :class:`RunStore`: one ``runs.jsonl`` file under ``benchmarks/runs/``
by default, one JSON object per line, append-only.  JSONL keeps the store
trivially mergeable across machines and greppable without tooling;
``python -m repro.obs.report`` renders it.

Recording is **opt-in** (the store is ``None`` by default): enable it for a
block with :func:`recording`, persistently with :func:`set_store`, or for a
whole process with the ``REPRO_OBS_RECORD`` environment variable (``1`` for
the default ``benchmarks/runs`` directory, any other value is the target
directory).  Only the *outermost* observed run records -- a fallback chain
or an online loop yields one record, not one per nested solve (the nested
spans are inside its tree).

Round-tripping is bitwise: floats serialize via ``repr`` (Python's shortest
round-trip representation), so a loaded record compares equal to the one
written -- enforced by ``tests/test_obs.py``.  The store file is a
:class:`repro.durable.AppendLog`: every line is sealed and fsynced, a torn
final append is cut before the next one, and a line damaged at rest raises
naming the file.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.durable import AppendLog

#: Default store location, relative to the current working directory.
DEFAULT_STORE_DIR = Path("benchmarks") / "runs"


@dataclass
class RunRecord:
    """One persisted observation of a solver or online-advisor run."""

    run_id: str
    #: ``"solve"`` or ``"online"``.
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
    #: Run-type-specific numbers (``SolveStats`` as a dict, online summary).
    stats: Dict[str, object] = field(default_factory=dict)
    #: Metrics-registry snapshot at record time.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Serialized span tree of the run (``None`` when tracing was off).
    spans: Optional[Dict[str, object]] = None
    #: Free-form caller annotations from :func:`run_context`.
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json_line(self) -> str:
        """The record as one compact JSON line."""
        return json.dumps(self.__dict__, sort_keys=True, default=_fallback_encoder)

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        """Rebuild a record from one store line."""
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from its parsed JSON, ignoring unknown keys."""
        known = set(cls.__dataclass_fields__)
        return cls(**{key: value for key, value in data.items() if key in known})


def _fallback_encoder(value):
    """Last-resort JSON coercion for exotic values inside stats/extra."""
    for caster in (float, str):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


class RunStore:
    """Append-only JSONL store of sealed :class:`RunRecord` lines."""

    def __init__(self, directory: os.PathLike = DEFAULT_STORE_DIR):
        self.directory = Path(directory)
        self.path = self.directory / "runs.jsonl"
        self._log = AppendLog(self.path)

    def append(self, record: RunRecord) -> Path:
        """Durably append one record (creates the directory on first write)."""
        self._log.append(json.loads(record.to_json_line()))
        return self.path

    def close(self) -> None:
        """Close the store's file (a later append reopens it)."""
        self._log.close()

    def load(self) -> List[RunRecord]:
        """Every record in the store, oldest first, without a torn final append.

        A damaged line with lines after it raises
        :class:`~repro.exceptions.CheckpointCorruptionError` naming the file
        and the line.
        """
        records, _ = AppendLog.load(self.path)
        return [RunRecord.from_dict(data) for data in records]

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.load())

    def __len__(self) -> int:
        return len(self.load())


# ---------------------------------------------------------------------------
# Process-wide recording state
# ---------------------------------------------------------------------------

def _store_from_env() -> Optional[RunStore]:
    value = os.environ.get("REPRO_OBS_RECORD", "")
    if value in ("", "0", "false", "off"):
        return None
    if value in ("1", "true", "on"):
        return RunStore(DEFAULT_STORE_DIR)
    return RunStore(Path(value))


_STORE: Optional[RunStore] = _store_from_env()
_CONTEXT: Dict[str, object] = {}
_GIT_REV: Optional[str] = None
_GIT_REV_PROBED = False
_SEQ = 0


def active_store() -> Optional[RunStore]:
    """The store records currently go to (``None`` = recording off)."""
    return _STORE


def set_store(store: Optional[RunStore]) -> Optional[RunStore]:
    """Install (or, with ``None``, disable) the process-wide store."""
    global _STORE
    previous, _STORE = _STORE, store
    return previous


@contextmanager
def recording(directory: os.PathLike = DEFAULT_STORE_DIR):
    """Record runs into ``directory`` for the duration of the block."""
    store = RunStore(directory)
    previous = set_store(store)
    try:
        yield store
    finally:
        set_store(previous)
        store.close()


@contextmanager
def run_context(**info):
    """Declare scenario/seed/annotations for records created in the block.

    Recognized keys: ``scenario`` and ``seed`` map onto the record fields of
    the same name; everything else lands in :attr:`RunRecord.extra`.
    Contexts nest; inner values win on key collisions.
    """
    global _CONTEXT
    previous = _CONTEXT
    _CONTEXT = {**previous, **info}
    try:
        yield
    finally:
        _CONTEXT = previous


def context_info() -> Dict[str, object]:
    """The currently declared run-context annotations."""
    return dict(_CONTEXT)


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
    global _SEQ
    _SEQ += 1
    return f"run-{time.time_ns():x}-{os.getpid()}-{_SEQ}"


def current_run_id() -> str:
    """The run id logging context lines carry: declared, else per-process."""
    declared = _CONTEXT.get("run_id")
    if declared:
        return str(declared)
    return f"proc-{os.getpid()}"


def maybe_record(kind: str, solver: str, *, elapsed_s: float, wall_s: float,
                 stats: Dict[str, object], metrics_snapshot: Dict[str, object],
                 spans: Optional[Dict[str, object]] = None) -> Optional[RunRecord]:
    """Persist one run record if recording is active; returns it (or None)."""
    store = _STORE
    if store is None:
        return None
    info = context_info()
    scenario = info.pop("scenario", None)
    seed = info.pop("seed", None)
    info.pop("run_id", None)
    record = RunRecord(
        run_id=new_run_id(),
        kind=kind,
        solver=solver,
        scenario=str(scenario) if scenario is not None else None,
        git_rev=git_revision(),
        seed=int(seed) if seed is not None else None,
        created_unix_s=time.time(),
        elapsed_s=float(elapsed_s),
        wall_s=float(wall_s),
        stats=stats,
        metrics=metrics_snapshot,
        spans=spans,
        extra=info,
    )
    store.append(record)
    return record


__all__ = [
    "DEFAULT_STORE_DIR",
    "RunRecord",
    "RunStore",
    "active_store",
    "context_info",
    "current_run_id",
    "git_revision",
    "maybe_record",
    "new_run_id",
    "recording",
    "run_context",
    "set_store",
]
