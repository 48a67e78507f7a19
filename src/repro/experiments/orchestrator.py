"""The sweep orchestrator: diff a spec matrix against the store, run the rest.

The orchestrator owns the loop between the declarative matrices
(:mod:`repro.experiments.specs`) and the durable results store
(:mod:`repro.experiments.store`):

* :func:`plan` diffs a matrix against the store -- which signatures are
  already recorded, which still need a run;
* :func:`run_specs` executes exactly the missing specs on a thread pool with
  **parallel-ES-aware scheduling**: each spec occupies
  :func:`~repro.experiments.specs.spec_weight` worker slots (a Figure 9 arm
  running a multi-process enumeration holds its ``es_workers`` slots), so
  the sweep never stacks several sharded searches onto one machine;
* a run is recorded **only after its executor returns** -- a crashed or
  killed run leaves no row, so re-running the sweep re-executes it (the
  crash-safety contract the resume tests pin down).  Within a spec, the
  Figure 9 executor additionally persists the parallel engine's
  :class:`~repro.core.parallel_search.SearchProgress` under
  ``checkpoint_dir`` keyed by the spec signature, so even the partially
  enumerated shards of an interrupted arm survive;
* chaos hooks: a :class:`~repro.resilience.faults.FaultPlan` keyed by
  ``(spec index in the requested matrix, attempt)`` injects shard-style
  faults in front of the executor.  Transient injected faults are retried
  up to ``max_attempts``; a spec that keeps failing is reported, not
  recorded.

Every recorded run carries a :class:`~repro.obs.recorder.RunRecord` --
git revision, seed, executor wall time, attempt count and, when tracing is
on, one ``experiment:<kind>`` span over the spec's execution.  Each spec
runs on one pool thread, which has its own span stack and declares the
spec's scenario and seed as its run context, so concurrent specs never
share a tree and every solve a spec records carries its spec's labels.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ShardFailureError
from repro.experiments import specs as spec_registry
from repro.experiments.store import ExperimentSpec, ResultsStore
from repro.obs import trace as obs_trace
from repro.obs.recorder import RunRecord, new_record, run_context
from repro.resilience.faults import FaultInjector, FaultPlan, fire_shard_fault


@dataclass
class SweepReport:
    """What one :func:`run_specs` sweep did, spec by spec."""

    #: Every spec the sweep was asked about, in matrix order.
    requested: List[ExperimentSpec] = field(default_factory=list)
    #: Specs already in the store (skipped without running anything).
    skipped: List[ExperimentSpec] = field(default_factory=list)
    #: Specs executed and recorded by this sweep.
    executed: List[ExperimentSpec] = field(default_factory=list)
    #: ``(spec, error message)`` for specs whose executor kept failing.
    failed: List[Tuple[ExperimentSpec, str]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def complete(self) -> bool:
        """True when every requested spec is now recorded."""
        return not self.failed

    def summary(self) -> str:
        """One human line: what ran, what was already there, what failed."""
        parts = [
            f"{len(self.requested)} specs",
            f"{len(self.skipped)} already stored",
            f"{len(self.executed)} executed",
        ]
        if self.failed:
            parts.append(f"{len(self.failed)} FAILED")
        parts.append(f"{self.elapsed_s:.1f}s")
        return ", ".join(parts)


def plan(
    specs: Sequence[ExperimentSpec], store: ResultsStore
) -> Tuple[List[ExperimentSpec], List[ExperimentSpec]]:
    """Diff a matrix against the store: ``(missing, present)`` in order."""
    present_signatures = set(store.signatures())
    missing = [spec for spec in specs if spec.signature not in present_signatures]
    present = [spec for spec in specs if spec.signature in present_signatures]
    return missing, present


def _run_one(
    spec: ExperimentSpec,
    index: int,
    checkpoint_dir: Optional[Path],
    injector: FaultInjector,
    max_attempts: int,
    allow_process_kill: bool,
) -> Tuple[Dict[str, object], int]:
    """Execute one spec, firing injected faults; returns (payload, attempts).

    Only injected :class:`~repro.exceptions.ShardFailureError` faults are
    retried -- a deterministic executor error would fail identically every
    attempt, so it propagates immediately.
    """
    last_error: Optional[ShardFailureError] = None
    for attempt in range(max(1, max_attempts)):
        fault = injector.shard_fault(index, attempt)
        try:
            if fault is not None:
                # A straggler delay returns and the run proceeds; exceptions
                # and (when allowed) hard process kills happen right here --
                # before the executor, so a killed attempt does no solver work
                # and, crucially, records nothing.
                fire_shard_fault(
                    fault, index, attempt, allow_process_kill=allow_process_kill
                )
            return spec_registry.execute(spec, checkpoint_dir=checkpoint_dir), attempt + 1
        except ShardFailureError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def _run_traced(spec: ExperimentSpec, *args) -> Tuple[Dict[str, object], int, Optional[dict]]:
    """:func:`_run_one` under an ``experiment:<kind>`` span and the spec's
    run context (its scenario and seed label the solves it records).

    Returns ``(payload, attempts, span)``: the span is the spec's serialized
    tree (``None`` with tracing off), drained from the pool thread that ran
    the spec.
    """
    tracer = obs_trace.get_tracer()
    try:
        with run_context(scenario=spec.scenario or None, seed=spec.seed):
            with tracer.span(f"experiment:{spec.experiment}",
                             signature=spec.signature[:12]):
                payload, attempts = _run_one(spec, *args)
    finally:
        roots = tracer.drain_roots()
    return payload, attempts, roots[-1] if roots else None


def run_specs(
    specs: Sequence[ExperimentSpec],
    store: ResultsStore,
    workers: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 3,
    allow_process_kill: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Execute exactly the specs missing from the store; record successes.

    The scheduler admits specs head-of-queue (matrix order) whenever the
    spec's :func:`~repro.experiments.specs.spec_weight` fits into the free
    worker slots; a spec heavier than the pool runs alone.  Duplicate
    signatures within ``specs`` run once.
    """
    report = SweepReport(requested=list(specs))
    started = time.perf_counter()
    say = log if log is not None else (lambda message: None)
    checkpoints = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoints is not None:
        checkpoints.mkdir(parents=True, exist_ok=True)
    injector = FaultInjector(fault_plan)

    missing, present = plan(report.requested, store)
    report.skipped = present
    if present:
        say(f"store already holds {len(present)} of {len(report.requested)} specs")

    # Matrix index (fault-injection key) of every spec, first occurrence wins.
    index_of: Dict[str, int] = {}
    for position, spec in enumerate(report.requested):
        index_of.setdefault(spec.signature, position)
    queue = deque()
    enqueued = set()
    for spec in missing:
        if spec.signature not in enqueued:
            enqueued.add(spec.signature)
            queue.append(spec)

    capacity = max(1, int(workers))
    in_flight: Dict[object, Tuple[ExperimentSpec, int, float]] = {}
    used_slots = 0
    with ThreadPoolExecutor(max_workers=capacity) as pool:
        while queue or in_flight:
            while queue:
                head = queue[0]
                weight = min(spec_registry.spec_weight(head), capacity)
                if in_flight and used_slots + weight > capacity:
                    break
                queue.popleft()
                future = pool.submit(
                    _run_traced,
                    head,
                    index_of[head.signature],
                    checkpoints,
                    injector,
                    max_attempts,
                    allow_process_kill,
                )
                in_flight[future] = (head, weight, time.perf_counter())
                used_slots += weight
                say(f"running {head.experiment} {head.signature[:12]} "
                    f"(weight {weight})")
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                spec, weight, spec_started = in_flight.pop(future)
                used_slots -= weight
                wall_s = time.perf_counter() - spec_started
                try:
                    payload, attempts, spans = future.result()
                except Exception as exc:  # noqa: BLE001 -- reported, not raised
                    report.failed.append((spec, f"{type(exc).__name__}: {exc}"))
                    say(f"FAILED {spec.experiment} {spec.signature[:12]}: {exc}")
                    continue
                store.record(spec, payload,
                             _provenance(spec, payload, wall_s, attempts, spans))
                report.executed.append(spec)
                say(f"recorded {spec.experiment} {spec.signature[:12]} "
                    f"({wall_s:.1f}s, attempt {attempts})")

    report.elapsed_s = time.perf_counter() - started
    return report


def _provenance(
    spec: ExperimentSpec, payload: Dict[str, object], wall_s: float, attempts: int,
    spans: Optional[Dict[str, object]],
) -> RunRecord:
    """The run record stored alongside a spec's payload."""
    timing = payload.get("timing", {}) if isinstance(payload, dict) else {}
    return new_record(
        "experiment",
        spec.solver,
        run_id=f"exp-{spec.signature[:12]}",
        scenario=spec.scenario or None,
        seed=spec.seed,
        elapsed_s=float(timing.get("elapsed_s", 0.0) or 0.0),
        wall_s=wall_s,
        stats={"attempts": int(attempts), "weight": spec_registry.spec_weight(spec)},
        spans=spans,
    )


def run_figures(
    figures_wanted: Sequence[str],
    store: ResultsStore,
    scale: str = "paper",
    **kwargs,
) -> SweepReport:
    """Populate the store with everything the named figures need."""
    return run_specs(spec_registry.matrix(scale, figures_wanted), store, **kwargs)


def store_lookup(store: ResultsStore) -> Callable[[ExperimentSpec], Dict[str, object]]:
    """A figure-assembly lookup that reads payloads from the store.

    Raises :class:`KeyError` (carrying the spec) when a needed run is not
    recorded -- the ``figures`` CLI turns that into "run the sweep first".
    """

    def lookup(spec: ExperimentSpec) -> Dict[str, object]:
        payload = store.payload(spec)
        if payload is None:
            raise KeyError(
                f"store {store.path} has no run for spec "
                f"{spec.experiment}/{spec.signature[:12]} -- "
                "populate it with `python -m repro.experiments run`"
            )
        return payload

    return lookup


def direct_lookup(
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> Callable[[ExperimentSpec], Dict[str, object]]:
    """A figure-assembly lookup that executes specs directly (no store)."""

    def lookup(spec: ExperimentSpec) -> Dict[str, object]:
        return spec_registry.execute(spec, checkpoint_dir=checkpoint_dir)

    return lookup


__all__ = [
    "SweepReport",
    "direct_lookup",
    "plan",
    "run_figures",
    "run_specs",
    "store_lookup",
]
