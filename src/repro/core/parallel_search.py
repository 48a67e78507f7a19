"""Sharded, pruned, resumable parallel enumeration over layout spaces.

The paper's exhaustive search (Sections 4.4.3 and 4.5.3) is the quality
yardstick for DOT, but a literal ``M^N`` enumeration caps the object count:
the TPC-C study restricts ES to three hot tables because the full 19-object
x 3-class space has ``3^19 ~ 1.16e9`` layouts.  The batch engine
(:mod:`repro.core.batch_eval`) made one core fast; this module removes the
single-core ceiling:

* **Sharding** -- the mixed-radix assignment index range ``[0, M^N)`` is cut
  into contiguous shards of whole enumeration subtrees and distributed over a
  ``multiprocessing`` pool.  Each worker adopts the coordinator's fully
  warmed :class:`~repro.core.batch_eval.BatchLayoutEvaluator` itself, passed
  through the pool initializer (inherited copy-on-write under ``fork``,
  pickled once per worker under ``spawn``/``forkserver``), then streams
  :func:`~repro.core.batch_eval.iter_assignment_chunks` over its own index
  sub-ranges -- workers never call the optimizer.
* **Branch-and-bound pruning** -- a per-prefix *capacity* bound skips whole
  subtrees whose cheapest completion already violates capacity (the prefix
  space usage is an exact intermediate of the evaluator's accumulation, and
  object sizes only ever add, so the bound is sound bit for bit), and an
  *incumbent-TOC* bound discards chunks whose storage-cost lower bound times
  the workload-time floor already exceeds the best TOC seen by any worker
  (shared through a ``multiprocessing.Value``).
* **Resumability** -- progress is tracked per shard in a picklable
  :class:`SearchProgress`; feeding a partial progress object back into
  :meth:`ParallelEnumerationEngine.run` skips completed shards and continues
  from the recorded incumbent.
* **Fault tolerance** -- shard processing is idempotent and deterministic,
  so the coordinator recovers from worker failures by re-running shards:
  a failed shard is retried with exponential backoff (bounded by
  :data:`SHARD_MAX_RETRIES`), a worker that dies mid-shard (detected because its
  shard exceeds ``shard_timeout_s``) has the shard re-queued on the
  replenished pool, and duplicate completions are ignored
  (:meth:`SearchProgress.record` is keyed by shard id).  A hard wall-clock
  ``deadline_s`` bounds the whole run: on expiry the pool is torn down, the
  checkpoint is flushed and :class:`~repro.exceptions.SolverTimeoutError` is
  raised carrying the partial progress (whose incumbent is the exact best of
  the completed shards).  The engine is a context manager and always
  terminates/joins its pool -- on success, error and ``KeyboardInterrupt``
  alike.  Every recovery action is recorded in ``SearchProgress.incidents``.
  Checkpoints are written, sealed, read and quarantined through
  :mod:`repro.durable`: a damaged file raises
  :class:`~repro.exceptions.CheckpointCorruptionError` naming the path
  (:meth:`SearchProgress.load_or_quarantine` renames it aside and redoes the
  affected shards from scratch).  Faults themselves are injectable through
  :class:`repro.resilience.FaultPlan` for deterministic chaos tests.

Exactness contract
------------------
The scalar/batch exhaustive search returns the *first* candidate (in
enumeration order) achieving the minimum TOC.  Every shard therefore reports
``(toc, global_index)`` of its best candidate and the reduction is
lexicographic, which reproduces "minimum TOC, smallest index" regardless of
shard completion order.  Pruning is strict: a subtree is only skipped when
*every* completion is capacity-infeasible (TOC ``inf`` on the serial path),
and a chunk only when its TOC lower bound is *strictly* above the incumbent
-- equal-TOC candidates are never discarded, so tie-breaking matches the
serial path exactly and the returned layout and TOC are bitwise identical.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.batch_eval import (
    BatchEvalStats,
    BatchLayoutEvaluator,
    accumulate_space_used,
    iter_assignment_chunks,
)
from repro.durable import atomic_write, check_seal, quarantine, read_document, seal
from repro.exceptions import (
    CheckpointCorruptionError,
    ConfigurationError,
    ShardFailureError,
    SolverTimeoutError,
)
from repro.obs import trace
from repro.resilience.faults import FaultInjector, FaultPlan, fire_shard_fault

#: Shards cut per worker: more shards than workers lets the demand-driven
#: dispatch balance uneven pruning across processes.
SHARDS_PER_WORKER = 4
#: How often a failed shard is re-attempted before the run gives up with
#: :class:`ShardFailureError`.  Shard processing is idempotent and
#: deterministic, so a retry is always safe.
SHARD_MAX_RETRIES = 2


# ---------------------------------------------------------------------------
# Progress and results
# ---------------------------------------------------------------------------

@dataclass
class SearchProgress:
    """Resumable checkpoint of a (possibly interrupted) engine run.

    The object is picklable; persisting it between runs and passing it back
    to :meth:`ParallelEnumerationEngine.run` continues the enumeration from
    the completed-shard set and the recorded incumbent instead of starting
    over.  The final result is independent of how the run was split.

    For multi-hour full-space runs (the paper's ``3^19`` studies) the
    checkpoint also round-trips through JSON on disk -- :meth:`save` /
    :meth:`load` -- so an interrupted run is resumable from another process
    (or after a reboot) without relying on pickle compatibility.  Non-finite
    floats (the ``inf`` incumbent of a run that has not found a feasible
    layout yet) use the ``json`` module's ``Infinity`` extension, which the
    loader parses back.

    The on-disk form carries a :func:`~repro.durable.seal`, so a truncated
    write, bit rot or hand edits surface as
    :class:`~repro.exceptions.CheckpointCorruptionError` (with the offending
    path) instead of a bare ``json`` traceback or -- far worse -- a silently
    wrong resume.  :meth:`load_or_quarantine` converts a corrupt checkpoint
    into a fresh start by renaming the damaged file aside
    (``<name>.quarantined``), which makes the engine redo the affected shards
    rather than trust them.
    """

    total_shards: int
    completed: Set[int] = field(default_factory=set)
    best_toc: float = float("inf")
    best_index: int = -1
    best_row: Optional[Tuple[int, ...]] = None
    evaluated: int = 0
    stats: BatchEvalStats = field(default_factory=BatchEvalStats)
    #: Enumeration geometry stamp (space size and prefix depth).  Shard ids
    #: only identify subtree ranges under one geometry, so resuming is
    #: refused when the stamp disagrees with the engine's.
    space: Optional[int] = None
    prefix_depth: Optional[int] = None
    #: Recovery actions taken during the run (retries, re-queues, deadline
    #: aborts); persisted with the checkpoint for post-mortems.
    incidents: List[str] = field(default_factory=list)

    #: Schema stamp of the JSON checkpoint layout (2 added the payload
    #: checksum and the incident log).
    FORMAT_VERSION = 2

    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total_shards

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """The checkpoint as a JSON-serialisable dictionary (sealed)."""
        return seal({
            "format": self.FORMAT_VERSION,
            "total_shards": self.total_shards,
            "completed": sorted(self.completed),
            "best_toc": self.best_toc,
            "best_index": self.best_index,
            "best_row": list(self.best_row) if self.best_row is not None else None,
            "evaluated": self.evaluated,
            "stats": dataclasses.asdict(self.stats),
            "space": self.space,
            "prefix_depth": self.prefix_depth,
            "incidents": list(self.incidents),
        })

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the checkpoint to ``path`` as JSON; returns the path.

        The write is :func:`~repro.durable.atomic_write`, so a crash
        mid-save -- the very interruption scenario checkpoints exist for --
        can never destroy the previous good checkpoint.
        """
        path = Path(path)
        atomic_write(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_json(cls, data: Dict[str, object],
                  source: Optional[Path] = None) -> "SearchProgress":
        """Rebuild a checkpoint from :meth:`to_json` output.

        Schema violations (wrong format version, unknown stats fields) raise
        :class:`ConfigurationError`; a failed seal raises
        :class:`CheckpointCorruptionError` naming ``source``.
        """
        version = data.get("format")
        if version != cls.FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported SearchProgress checkpoint format {version!r} "
                f"(expected {cls.FORMAT_VERSION})"
            )
        known_stats = {f.name for f in dataclasses.fields(BatchEvalStats)}
        raw_stats = dict(data.get("stats") or {})
        unknown = sorted(set(raw_stats) - known_stats)
        if unknown:
            raise ConfigurationError(
                f"SearchProgress checkpoint has unknown stats fields {unknown}"
            )
        check_seal(data, source, "SearchProgress checkpoint")
        best_row = data.get("best_row")
        return cls(
            total_shards=int(data["total_shards"]),
            completed={int(shard) for shard in data.get("completed", ())},
            best_toc=float(data.get("best_toc", float("inf"))),
            best_index=int(data.get("best_index", -1)),
            best_row=tuple(int(v) for v in best_row) if best_row is not None else None,
            evaluated=int(data.get("evaluated", 0)),
            stats=BatchEvalStats(**raw_stats),
            space=int(data["space"]) if data.get("space") is not None else None,
            prefix_depth=(
                int(data["prefix_depth"]) if data.get("prefix_depth") is not None else None
            ),
            incidents=[str(entry) for entry in data.get("incidents", ())],
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SearchProgress":
        """Load a checkpoint previously written by :meth:`save`.

        Unreadable files, invalid JSON and malformed field values all raise
        :class:`CheckpointCorruptionError` carrying the offending path;
        schema-version mismatches keep raising :class:`ConfigurationError`
        (they indicate an incompatible writer, not a damaged file).
        """
        path = Path(path)
        data = read_document(path, "checkpoint")
        try:
            return cls.from_json(data, source=path)
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint fields are malformed: {exc}", path=path
            ) from exc

    @classmethod
    def load_or_quarantine(cls, path: Union[str, Path]) -> Optional["SearchProgress"]:
        """Load a checkpoint, quarantining it if corrupt.

        Returns the checkpoint, or ``None`` when the file is missing or
        corrupt.  A corrupt file is renamed aside to ``<name>.quarantined``
        (preserved for post-mortems) so the caller restarts from scratch --
        the quarantine-and-redo path: no shard recorded by a damaged
        checkpoint is ever trusted.  Schema-version mismatches still raise:
        an old-format checkpoint is a configuration problem, not corruption.
        """
        path = Path(path)
        if not path.exists():
            return None
        try:
            return cls.load(path)
        except CheckpointCorruptionError:
            quarantine(path)
            return None

    # ------------------------------------------------------------------
    def record(self, outcome: "_ShardOutcome") -> None:
        """Fold one shard outcome into the checkpoint (lexicographic best)."""
        if outcome.shard_id in self.completed:
            return
        self.completed.add(outcome.shard_id)
        self.evaluated += outcome.evaluated
        self.stats.merge(outcome.stats)
        if outcome.best_row is not None and (
            outcome.best_toc < self.best_toc
            or (outcome.best_toc == self.best_toc and outcome.best_index < self.best_index)
        ):
            self.best_toc = outcome.best_toc
            self.best_index = outcome.best_index
            self.best_row = outcome.best_row


@dataclass
class _ShardOutcome:
    """What one shard reports back to the coordinator."""

    shard_id: int
    best_toc: float
    best_index: int
    best_row: Optional[Tuple[int, ...]]
    evaluated: int
    stats: BatchEvalStats
    #: Serialized per-shard span (worker-local tracing buffer; ``None`` when
    #: tracing is disabled).  The coordinator grafts it into its live tree;
    #: checkpoints ignore it (spans are observability, not search state).
    span: Optional[Dict[str, object]] = None


# ---------------------------------------------------------------------------
# Pruning bounds
# ---------------------------------------------------------------------------

class _PruningBounds:
    """Vectorized prefix-level bounds for one enumeration geometry.

    ``prefix_depth`` columns are fixed per subtree; the remaining columns are
    free.  Sound rules (see module docstring):

    * capacity: the prefix's per-class space usage is an exact intermediate of
      the evaluator's accumulation order (pinned objects first, then columns
      left to right), and completions only add non-negative sizes, so a class
      already over capacity stays over capacity in every completion;
    * residual fit: if the total size of the free objects exceeds the summed
      remaining slack of all classes (plus a conservative epsilon), no
      completion can fit;
    * cost: the cheapest completion places every free object on the cheapest
      class, giving a storage-cost lower bound for the incumbent-TOC test.
    """

    def __init__(self, evaluator: BatchLayoutEvaluator, prefix_depth: int):
        self.prefix_depth = prefix_depth
        self.num_classes = evaluator.num_classes
        self.capacities = evaluator.capacities.astype(float)
        self.prices = np.array(evaluator.prices, dtype=float)
        self.pinned = [(class_index, size_gb) for _, class_index, size_gb in evaluator.pinned]
        self.prefix_sizes = evaluator.var_sizes[:prefix_depth]
        residual_sizes = np.array(evaluator.var_sizes[prefix_depth:], dtype=float)
        self.residual_total_gb = float(residual_sizes.sum())
        min_price = float(self.prices.min()) if self.prices.size else 0.0
        self.residual_min_cost = float(residual_sizes.sum() * min_price)
        self.slack_epsilon = 1e-9 * (1.0 + self.residual_total_gb + float(self.capacities.sum()))
        # Chunk-level bound operands: full-width sizes, mixed-radix place
        # values (python ints -- 3^19 era magnitudes), pinned storage cost,
        # and the min-price cost of every column suffix.
        self.num_objects = len(evaluator.var_names)
        self.all_sizes = np.array(evaluator.var_sizes, dtype=float)
        self.place_values = [
            self.num_classes ** (self.num_objects - 1 - column)
            for column in range(self.num_objects)
        ]
        self.pinned_cost = float(
            sum(size_gb * float(self.prices[class_index])
                for class_index, size_gb in self.pinned)
        )
        suffix = np.zeros(self.num_objects + 1)
        suffix[:-1] = np.cumsum(self.all_sizes[::-1])[::-1] * min_price
        self.suffix_min_cost = suffix

    def prefix_space(self, prefix_matrix: np.ndarray) -> np.ndarray:
        """Per-subtree per-class space usage of the fixed prefix columns.

        Shares :func:`~repro.core.batch_eval.accumulate_space_used` with the
        evaluator, so the prefix usage is by construction an exact
        intermediate of the full candidate accumulation.
        """
        return accumulate_space_used(
            prefix_matrix, self.num_classes, self.prefix_sizes, self.pinned
        )

    def admissible(self, prefix_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(keep_mask, cost_lower_bound)`` for a batch of subtree prefixes."""
        used = self.prefix_space(prefix_matrix)
        overflow = (used > self.capacities[None, :]).any(axis=1)
        slack = np.clip(self.capacities[None, :] - used, 0.0, None).sum(axis=1)
        cannot_fit = self.residual_total_gb > slack + self.slack_epsilon
        keep = ~(overflow | cannot_fit)
        cost_lb = (used @ self.prices + self.residual_min_cost) * (1.0 - 1e-9)
        return keep, cost_lb

    def chunk_cost_lb(self, chunk_start: int, chunk_last: int) -> float:
        """Storage-cost lower bound over the index range
        ``[chunk_start, chunk_last]`` (inclusive).

        A contiguous mixed-radix range shares the common most-significant
        digits of its two endpoints; those columns are *fixed* for every
        index in the range and price at their actual class, while the free
        suffix prices at the cheapest class.  This tightens the per-subtree
        bound (which fixes only ``prefix_depth`` columns) to chunk
        granularity: deep inside a subtree a chunk fixes many more columns.
        The same ``1 - 1e-9`` margin plus the caller's strict comparison
        keep the bound sound regardless of summation order.
        """
        cost = self.pinned_cost
        depth = 0
        lo = chunk_start
        hi = chunk_last
        for column in range(self.num_objects):
            place = self.place_values[column]
            digit_lo = lo // place
            digit_hi = hi // place
            if digit_lo != digit_hi:
                break
            cost += float(self.all_sizes[column]) * float(self.prices[digit_lo])
            lo -= digit_lo * place
            hi -= digit_hi * place
            depth = column + 1
        return (cost + float(self.suffix_min_cost[depth])) * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Shard processing (runs in workers and in the in-process fallback)
# ---------------------------------------------------------------------------

class _Incumbent:
    """Best-so-far TOC holder; process-local fallback for serial runs."""

    def __init__(self, initial: float = float("inf")):
        self.value = initial

    def get(self) -> float:
        return self.value

    def offer(self, toc: float) -> None:
        if toc < self.value:
            self.value = toc


class _SharedIncumbent:
    """Best-so-far TOC shared across workers via ``multiprocessing.Value``."""

    def __init__(self, shared_value):
        self.shared = shared_value

    def get(self) -> float:
        with self.shared.get_lock():
            return self.shared.value

    def offer(self, toc: float) -> None:
        with self.shared.get_lock():
            if toc < self.shared.value:
                self.shared.value = toc


def _process_shard(
    evaluator: BatchLayoutEvaluator,
    bounds: _PruningBounds,
    incumbent,
    shard_id: int,
    subtree_lo: int,
    subtree_hi: int,
    chunk_size: int,
    toc_floor_factor: float,
    prune: bool,
    *,
    deadline: Optional[float] = None,
    injector: Optional[FaultInjector] = None,
    attempt: int = 0,
    allow_process_kill: bool = True,
    trace_enabled: bool = False,
) -> _ShardOutcome:
    """Enumerate and score the subtrees ``[subtree_lo, subtree_hi)``.

    ``deadline`` is an absolute ``time.monotonic`` instant (comparable
    across processes on Linux); crossing it raises
    :class:`SolverTimeoutError` between prefix batches.  ``injector`` fires
    any fault scheduled for ``(shard_id, attempt)`` before work starts --
    ``allow_process_kill`` is False on the in-process serial path, where a
    hard worker kill is demoted to :class:`ShardFailureError`.
    ``trace_enabled`` records the shard into a worker-local span buffer
    (:attr:`_ShardOutcome.span`) the coordinator merges into its tree; a
    shard that dies mid-flight loses its buffer, and the retry's span plus
    the coordinator's retry event carry the provenance instead.
    """
    if injector is not None:
        fault = injector.shard_fault(shard_id, attempt)
        if fault is not None:
            fire_shard_fault(fault, shard_id, attempt,
                             allow_process_kill=allow_process_kill)
    shard_tracer = trace.Tracer(enabled=trace_enabled)
    shard_span = shard_tracer.start_span(
        f"shard[{shard_id}]", shard_id=shard_id, attempt=attempt,
        subtree_lo=subtree_lo, subtree_hi=subtree_hi,
    )
    num_objects = len(evaluator.var_names)
    num_classes = evaluator.num_classes
    prefix_depth = bounds.prefix_depth
    subtree_size = num_classes ** (num_objects - prefix_depth)

    stats = BatchEvalStats(shards=1)
    evaluator.stats = stats  # chunk evaluations accumulate into the shard delta
    best_toc = float("inf")
    best_index = -1
    best_row: Optional[np.ndarray] = None
    evaluated = 0

    prefix_batch = max(1, chunk_size // 8)
    for prefix_start, prefix_matrix in iter_assignment_chunks(
        prefix_depth, num_classes, prefix_batch, start=subtree_lo, stop=subtree_hi
    ):
        if deadline is not None and time.monotonic() >= deadline:
            raise SolverTimeoutError(
                f"shard {shard_id} crossed the enumeration deadline "
                f"at subtree {prefix_start}/{subtree_hi}"
            )
        if prune:
            keep, cost_lb = bounds.admissible(prefix_matrix)
        else:
            keep = np.ones(prefix_matrix.shape[0], dtype=bool)
            cost_lb = np.zeros(prefix_matrix.shape[0])
        pruned = int((~keep).sum())
        stats.pruned_subtrees += pruned
        stats.pruned_subtree_layouts += pruned * subtree_size
        for offset in np.flatnonzero(keep):
            subtree = prefix_start + int(offset)
            toc_lower_bound = float(cost_lb[offset]) * toc_floor_factor
            subtree_stop = (subtree + 1) * subtree_size
            chunk_start = subtree * subtree_size
            while chunk_start < subtree_stop:
                chunk_stop = min(chunk_start + chunk_size, subtree_stop)
                if prune:
                    current_best = incumbent.get()
                    if toc_lower_bound > current_best:
                        # The incumbent only ever decreases and the bound is
                        # constant per subtree, so no remaining chunk of this
                        # subtree can win: count the rest pruned without
                        # decoding a single row.
                        remaining = subtree_stop - chunk_start
                        stats.pruned_chunks += -(-remaining // chunk_size)
                        stats.pruned_chunk_layouts += remaining
                        break
                    if toc_floor_factor > 0.0:
                        # Chunk-level bound: the chunk's endpoints share more
                        # fixed digits than the subtree prefix, so its cost
                        # floor is tighter -- skip just this chunk when even
                        # that floor cannot beat the incumbent.
                        chunk_bound = (
                            bounds.chunk_cost_lb(chunk_start, chunk_stop - 1)
                            * toc_floor_factor
                        )
                        if chunk_bound > current_best:
                            stats.pruned_chunks += 1
                            stats.pruned_chunk_layouts += chunk_stop - chunk_start
                            chunk_start = chunk_stop
                            continue
                _, chunk = next(iter_assignment_chunks(
                    num_objects, num_classes, chunk_stop - chunk_start,
                    start=chunk_start, stop=chunk_stop,
                ))
                evaluation = evaluator.evaluate_chunk(chunk)
                evaluated += chunk.shape[0]
                index = evaluation.best_index
                if index is not None:
                    toc = float(evaluation.toc_cents[index])
                    global_index = chunk_start + index
                    # Strict-improvement semantics of the serial loop: an
                    # infinite TOC is never adopted, and ties keep the
                    # earlier enumeration index.
                    if toc < best_toc or (toc == best_toc and global_index < best_index):
                        best_toc = toc
                        best_index = global_index
                        best_row = chunk[index].copy()
                        incumbent.offer(toc)
                chunk_start = chunk_stop
    shard_tracer.end_span(
        shard_span, evaluated=evaluated,
        pruned_subtrees=stats.pruned_subtrees, pruned_chunks=stats.pruned_chunks,
        eval_s=stats.eval_s,
    )
    return _ShardOutcome(
        shard_id=shard_id,
        best_toc=best_toc,
        best_index=best_index,
        best_row=tuple(int(v) for v in best_row) if best_row is not None else None,
        evaluated=evaluated,
        stats=stats,
        span=shard_span.to_dict() if trace_enabled else None,
    )


# ---------------------------------------------------------------------------
# Worker bootstrap (module-level so the pool can pickle the entry points)
# ---------------------------------------------------------------------------

_WORKER_STATE: Optional[Dict[str, object]] = None


def _worker_init(evaluator: BatchLayoutEvaluator, bounds: _PruningBounds, shared_value,
                 chunk_size: int, toc_floor_factor: float, prune: bool,
                 fault_plan: Optional[FaultPlan], deadline: Optional[float],
                 trace_enabled: bool) -> None:
    """Pool initializer: adopt the coordinator's warmed evaluator.

    The evaluator arrives through the pool's ``initargs``.  Under the
    ``fork`` start method the worker inherits it copy-on-write, with no
    pickling at all; under ``spawn``/``forkserver`` multiprocessing pickles
    it once per worker with its estimate tables already warm.  Either way
    every worker -- including one the pool starts in place of a dead one --
    scores from complete tables and never calls the optimizer.

    ``deadline`` is an absolute ``time.monotonic`` instant stamped by the
    coordinator; ``CLOCK_MONOTONIC`` is machine-wide, so workers can compare
    against it directly.  ``fault_plan`` injects chaos-test faults (``None``
    in production).  The initializer's own time is the worker's boot
    (``attach_s``) and rides back on its first completed shard outcome.
    """
    global _WORKER_STATE
    started = time.perf_counter()
    _WORKER_STATE = {
        "evaluator": evaluator,
        "bounds": bounds,
        "incumbent": _SharedIncumbent(shared_value),
        "chunk_size": chunk_size,
        "toc_floor_factor": toc_floor_factor,
        "prune": prune,
        "injector": FaultInjector(fault_plan) if fault_plan is not None else None,
        "deadline": deadline,
        "trace_enabled": trace_enabled,
    }
    _WORKER_STATE["attach_s"] = time.perf_counter() - started


def _worker_run_shard(task: Tuple[int, int, int, int]) -> _ShardOutcome:
    shard_id, subtree_lo, subtree_hi, attempt = task
    state = _WORKER_STATE
    evaluator: BatchLayoutEvaluator = state["evaluator"]
    # Worker caches are copies the coordinator's metrics fold never sees;
    # measure this attempt's delta so the coordinator can fold it once per
    # (shard_id, attempt) -- SearchProgress.record drops duplicate and
    # retried completions, so re-run shards cannot double-count.
    hits_before = evaluator.cache.hits
    misses_before = evaluator.cache.misses
    outcome = _process_shard(
        evaluator,
        state["bounds"],
        state["incumbent"],
        shard_id,
        subtree_lo,
        subtree_hi,
        state["chunk_size"],
        state["toc_floor_factor"],
        state["prune"],
        deadline=state["deadline"],
        injector=state["injector"],
        attempt=attempt,
        trace_enabled=bool(state["trace_enabled"]),
    )
    outcome.stats.cache_hits = evaluator.cache.hits - hits_before
    outcome.stats.cache_misses = evaluator.cache.misses - misses_before
    outcome.stats.attach_s = state.pop("attach_s", 0.0)
    return outcome


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ParallelEnumerationEngine:
    """Coordinates the sharded, pruned enumeration of one layout space.

    Parameters
    ----------
    evaluator:
        The batch evaluator to enumerate with.  The engine warms every
        estimate signature on construction (``warm_signatures``), so the
        evaluator becomes a read-only lookup structure that pool workers
        adopt as is.
    workers:
        Process count.  ``workers <= 1`` runs the identical sharded/pruned
        algorithm in-process (no pool) -- useful for tests and for machines
        without spare cores.
    chunk_size:
        Candidate rows scored per ``evaluate_chunk`` call.
    prefix_depth:
        Number of leading mixed-radix columns that define a prunable subtree.
        Defaults to a depth that yields at least ``8 * workers *
        SHARDS_PER_WORKER`` subtrees (clamped to ``[1, N-1]``) so shards stay
        balanced and the capacity bound gets traction.
    prune:
        Disable to enumerate every candidate (the bounds are then skipped
        entirely); results are identical either way.
    retry_backoff_s:
        Base of the exponential backoff between attempts of the same shard
        (``retry_backoff_s * 2**attempt``).
    shard_timeout_s:
        Dead-worker detection: a shard whose in-flight time exceeds this is
        presumed lost (``multiprocessing.Pool`` replaces a crashed worker
        but silently drops its task) and is re-queued.  ``None`` disables
        the watchdog; set it when workers can die or straggle.
    deadline_s:
        Hard wall-clock budget for the whole run.  On expiry the pool is
        torn down, the checkpoint flushed, and :class:`SolverTimeoutError`
        raised carrying the partial :class:`SearchProgress`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injected into shard
        processing for deterministic chaos tests.

    The space is cut into ``workers * SHARDS_PER_WORKER`` contiguous shards
    that the pool pulls on demand; dispatches beyond each worker's first
    shard are counted as ``steals``.  Pool workers receive the warmed
    evaluator itself through the pool initializer, so no worker rebuilds or
    re-warms anything.  A failed shard is retried up to
    :data:`SHARD_MAX_RETRIES` times.

    The engine is a context manager: ``with engine: engine.run()``
    guarantees the pool is terminated and joined on success, error and
    ``KeyboardInterrupt`` alike (``run`` itself also tears down in a
    ``finally``; the context manager is belt and braces for callers that
    drive the engine across multiple calls).
    """

    def __init__(
        self,
        evaluator: BatchLayoutEvaluator,
        workers: int = 1,
        chunk_size: int = 4096,
        prefix_depth: Optional[int] = None,
        prune: bool = True,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.evaluator = evaluator
        self.workers = max(1, int(workers))
        self.chunk_size = chunk_size
        self.prune = prune
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.shard_timeout_s = shard_timeout_s
        self.deadline_s = deadline_s
        self.fault_plan = fault_plan
        self._pool = None

        self.num_objects = len(self.evaluator.var_names)
        self.num_classes = self.evaluator.num_classes
        self.space = self.num_classes**self.num_objects

        if prefix_depth is None:
            prefix_depth = self._default_prefix_depth()
        if not 1 <= prefix_depth <= max(1, self.num_objects - 1):
            raise ConfigurationError(
                f"prefix_depth {prefix_depth} outside [1, {self.num_objects - 1}] "
                f"for {self.num_objects} objects"
            )
        self.prefix_depth = prefix_depth
        self.num_subtrees = self.num_classes**self.prefix_depth
        self._bounds = _PruningBounds(self.evaluator, self.prefix_depth)
        evaluator.warm_signatures()
        self.toc_floor_factor = evaluator.toc_floor_factor() if prune else 0.0

    # ------------------------------------------------------------------
    def _default_prefix_depth(self) -> int:
        if self.num_objects <= 1:
            return 1
        target = 8 * self.workers * SHARDS_PER_WORKER
        depth = 1
        while self.num_classes**depth < target and depth < self.num_objects - 1:
            depth += 1
        return depth

    def shard_ranges(self) -> List[Tuple[int, int, int]]:
        """``(shard_id, subtree_lo, subtree_hi)`` for every shard: the
        subtree range cut into ``workers * SHARDS_PER_WORKER`` contiguous
        pieces (fewer when there are fewer subtrees)."""
        shard_count = min(self.num_subtrees, self.workers * SHARDS_PER_WORKER)
        boundaries = np.linspace(0, self.num_subtrees, shard_count + 1).astype(np.int64)
        return [
            (shard_id, int(boundaries[shard_id]), int(boundaries[shard_id + 1]))
            for shard_id in range(shard_count)
            if boundaries[shard_id] < boundaries[shard_id + 1]
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        progress: Optional[SearchProgress] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> SearchProgress:
        """Enumerate every shard not already completed in ``progress``.

        ``checkpoint_path`` persists the progress to disk (atomically, as
        JSON) after *every* completed shard, so an interrupted multi-hour
        run resumes from the last finished shard instead of from zero:
        ``engine.run(SearchProgress.load(path) if path.exists() else None,
        checkpoint_path=path)``.
        """
        shards = self.shard_ranges()
        if progress is None:
            progress = SearchProgress(total_shards=len(shards), space=self.space,
                                      prefix_depth=self.prefix_depth)
        else:
            mismatches = [
                f"{label} {recorded} != {current}"
                for label, recorded, current in (
                    ("shards", progress.total_shards, len(shards)),
                    ("space", progress.space, self.space),
                    ("prefix_depth", progress.prefix_depth, self.prefix_depth),
                )
                if recorded is not None and recorded != current
            ]
            if mismatches:
                raise ConfigurationError(
                    "progress was recorded under a different enumeration geometry "
                    f"({'; '.join(mismatches)}); resume with the engine configuration "
                    "it was created with"
                )
            progress.space = self.space
            progress.prefix_depth = self.prefix_depth
        pending = [task for task in shards if task[0] not in progress.completed]
        if not pending:
            return progress
        checkpoint = Path(checkpoint_path) if checkpoint_path is not None else None
        deadline = (
            time.monotonic() + self.deadline_s if self.deadline_s is not None else None
        )
        if self.workers <= 1:
            self._run_serial(pending, progress, checkpoint, deadline)
        else:
            self._run_pool(pending, progress, checkpoint, deadline)
        if checkpoint is not None:
            progress.save(checkpoint)
        return progress

    # -- context manager / teardown ------------------------------------
    def __enter__(self) -> "ParallelEnumerationEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Terminate and join the worker pool, if one is live.

        Safe to call repeatedly; a no-op for serial engines.  Runs from
        ``__exit__`` and from ``run``'s ``finally``, so no code path --
        success, exception or ``KeyboardInterrupt`` -- leaks orphaned
        workers.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # -- recovery helpers ----------------------------------------------
    def _deadline_abort(self, progress: SearchProgress,
                        checkpoint: Optional[Path]) -> None:
        """Flush the checkpoint and raise the deadline timeout."""
        progress.incidents.append(
            f"deadline of {self.deadline_s}s expired with "
            f"{len(progress.completed)}/{progress.total_shards} shards complete"
        )
        trace.current_span().event(
            "deadline_abort", deadline_s=self.deadline_s,
            completed=len(progress.completed), total=progress.total_shards,
        )
        if checkpoint is not None:
            progress.save(checkpoint)
        raise SolverTimeoutError(
            f"enumeration deadline ({self.deadline_s}s) expired after "
            f"{len(progress.completed)}/{progress.total_shards} shards",
            elapsed_s=self.deadline_s or 0.0,
            progress=progress,
        )

    def _handle_shard_failure(self, exc: BaseException, task, attempt: int,
                              queue, progress: SearchProgress,
                              checkpoint: Optional[Path]) -> None:
        """Retry a failed shard with exponential backoff, or give up."""
        shard_id = task[0]
        if attempt >= SHARD_MAX_RETRIES:
            progress.incidents.append(
                f"shard {shard_id} failed permanently after {attempt + 1} attempts: {exc}"
            )
            trace.current_span().event(
                "shard_failed", shard_id=shard_id, attempts=attempt + 1,
                error=str(exc),
            )
            if checkpoint is not None:
                progress.save(checkpoint)
            raise ShardFailureError(
                f"shard {shard_id} failed after {attempt + 1} attempts: {exc}",
                shard_id=shard_id,
                attempts=attempt + 1,
            ) from exc
        progress.incidents.append(
            f"shard {shard_id} attempt {attempt} failed ({exc}); retrying"
        )
        trace.current_span().event(
            "shard_retry", shard_id=shard_id, attempt=attempt, error=str(exc),
        )
        if self.retry_backoff_s:
            time.sleep(self.retry_backoff_s * (2 ** attempt))
        queue.append((task, attempt + 1))

    # -- execution paths -----------------------------------------------
    def _run_serial(self, pending, progress: SearchProgress,
                    checkpoint: Optional[Path] = None,
                    deadline: Optional[float] = None) -> None:
        incumbent = _Incumbent(progress.best_toc)
        injector = FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        tracer = trace.get_tracer()
        queue = deque((task, 0) for task in pending)
        while queue:
            task, attempt = queue.popleft()
            shard_id, lo, hi = task
            if deadline is not None and time.monotonic() >= deadline:
                self._deadline_abort(progress, checkpoint)
            try:
                outcome = _process_shard(
                    self.evaluator,
                    self._bounds,
                    incumbent,
                    shard_id,
                    lo,
                    hi,
                    self.chunk_size,
                    self.toc_floor_factor,
                    self.prune,
                    deadline=deadline,
                    injector=injector,
                    attempt=attempt,
                    allow_process_kill=False,
                    trace_enabled=tracer.enabled,
                )
            except SolverTimeoutError:
                self._deadline_abort(progress, checkpoint)
            except Exception as exc:
                self._handle_shard_failure(exc, task, attempt, queue, progress, checkpoint)
                continue
            if shard_id not in progress.completed:
                tracer.adopt(outcome.span)
            progress.record(outcome)
            if checkpoint is not None:
                progress.save(checkpoint)

    def _run_pool(self, pending, progress: SearchProgress,
                  checkpoint: Optional[Path] = None,
                  deadline: Optional[float] = None) -> None:
        tracer = trace.get_tracer()
        context = multiprocessing.get_context()
        shared_value = context.Value("d", progress.best_toc)
        # The warmed evaluator itself is the worker payload, and the pool
        # hands the same initargs to every worker it ever starts.
        pool = context.Pool(
            processes=self.workers,
            initializer=_worker_init,
            initargs=(self.evaluator, self._bounds, shared_value, self.chunk_size,
                      self.toc_floor_factor, self.prune, self.fault_plan, deadline,
                      tracer.enabled),
        )
        self._pool = pool
        dispatched = 0
        try:
            queue = deque((task, 0) for task in pending)
            in_flight: Dict[int, Tuple[object, Tuple[int, int, int], int, float]] = {}
            while queue or in_flight:
                # Keep the pool saturated with a bounded overhang so a
                # straggler cannot starve dispatch.
                while queue and len(in_flight) < 2 * self.workers:
                    task, attempt = queue.popleft()
                    if task[0] in progress.completed or task[0] in in_flight:
                        continue
                    handle = pool.apply_async(
                        _worker_run_shard, ((task[0], task[1], task[2], attempt),)
                    )
                    in_flight[task[0]] = (handle, task, attempt, time.monotonic())
                    dispatched += 1
                    if dispatched > self.workers:
                        # Beyond every worker's first shard, dispatch is
                        # demand-driven: the next range goes to whichever
                        # worker frees up first.
                        progress.stats.steals += 1
                if deadline is not None and time.monotonic() >= deadline:
                    self._deadline_abort(progress, checkpoint)
                advanced = False
                now = time.monotonic()
                for shard_id in list(in_flight):
                    handle, task, attempt, started = in_flight[shard_id]
                    if handle.ready():
                        del in_flight[shard_id]
                        advanced = True
                        try:
                            outcome = handle.get()
                        except SolverTimeoutError:
                            self._deadline_abort(progress, checkpoint)
                        except Exception as exc:
                            self._handle_shard_failure(
                                exc, task, attempt, queue, progress, checkpoint
                            )
                            continue
                        if outcome.shard_id not in progress.completed:
                            tracer.adopt(outcome.span)
                        progress.record(outcome)
                        if checkpoint is not None:
                            progress.save(checkpoint)
                    elif (self.shard_timeout_s is not None
                          and now - started > self.shard_timeout_s):
                        # Dead-worker detection: the pool replaces a crashed
                        # process but its task never completes.  Abandon the
                        # attempt and re-queue; a late "ghost" completion of
                        # a straggler is harmless because record() is
                        # idempotent per shard id.
                        del in_flight[shard_id]
                        advanced = True
                        timeout_exc = ShardFailureError(
                            f"shard {shard_id} attempt {attempt} exceeded "
                            f"{self.shard_timeout_s}s (worker presumed dead)",
                            shard_id=shard_id,
                            attempts=attempt + 1,
                        )
                        self._handle_shard_failure(
                            timeout_exc, task, attempt, queue, progress, checkpoint
                        )
                if not advanced:
                    time.sleep(0.005)
            trace.current_span().set(
                steals=max(dispatched - self.workers, 0), shards=len(pending),
            )
        finally:
            self.close()
