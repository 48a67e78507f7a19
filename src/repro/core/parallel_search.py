"""Sharded, pruned, resumable enumeration over layout spaces.

The paper's exhaustive search (Sections 4.4.3 and 4.5.3) is the quality
yardstick for DOT, but a literal ``M^N`` enumeration caps the object count:
the TPC-C study restricts ES to three hot tables because the full 19-object
x 3-class space has ``3^19 ~ 1.16e9`` layouts.  This module is the one batch
enumerator of :class:`~repro.core.exhaustive.ExhaustiveSolver`: it runs
in-process at ``workers=1`` and on a pool of ``multiprocessing`` worker
processes otherwise, with the same shards, bounds, seed, checkpoints and
deadline either way.

* **Sharding** -- the mixed-radix assignment index range ``[0, M^N)`` is cut
  into contiguous shards of whole enumeration subtrees.  Pool workers adopt
  the coordinator's fully warmed
  :class:`~repro.core.batch_eval.BatchLayoutEvaluator` itself, passed as a
  worker process argument (inherited copy-on-write under ``fork``, pickled
  once per worker under ``spawn``/``forkserver``), so workers never call
  the optimizer.
* **Branch-and-bound pruning** -- a per-prefix *capacity* bound kills
  subtrees whose cheapest completion already violates capacity (the prefix
  space usage is an exact intermediate of the evaluator's accumulation, and
  object sizes only ever add, so the bound is sound bit for bit), and an
  *incumbent-TOC* bound kills subtrees and chunks whose TOC lower bound
  already exceeds the best TOC seen by any worker (shared through a
  ``multiprocessing.Value``).  A shard is one loop over chunks of its index
  range (see :func:`_process_shard`); a chunk may span subtrees, and dead
  ones drop out of it through a row mask.  The bound is the storage-cost
  floor of the fixed leading columns (cheapest class for the rest) times
  the workload-time floor *of those same columns*: each query instance at
  the minimum of its warmed response table over the signatures that agree
  with the fixed prefix
  (:meth:`~repro.core.batch_eval.BatchLayoutEvaluator.time_floor_factors`;
  DSS only -- OLTP keeps the global population-bound factor).
* **Seeded incumbent** -- before enumerating, a pruning engine scores the
  ``M`` all-on-one-class layouts (the paper's uniform baselines) and starts
  the incumbent from the best feasible one, so the TOC bound prunes from the
  first chunk.  The deadline covers warm-up, but the seed is scored even
  after it expired, so a deadline-aborted run still returns that layout.
* **Resumability** -- progress is tracked per shard in a picklable
  :class:`SearchProgress`; feeding a partial progress object back into
  :meth:`ParallelEnumerationEngine.run` skips completed shards and continues
  from the recorded incumbent.
* **Fault tolerance** -- shard processing is idempotent and deterministic,
  so the coordinator recovers from worker failures by re-running shards.
  It owns its worker processes, sends each one shard at a time over its own
  pipe and blocks until a busy worker's pipe has a reply or the deadline
  passes.  A failed shard is retried with exponential backoff (bounded by
  :data:`SHARD_MAX_RETRIES`).  A worker that dies mid-shard closes its end
  of the pipe, so the coordinator reads end-of-file: it starts a
  replacement from the same arguments and retries the shard through the
  same bounded path, with an incident naming the worker's exit code.  A
  straggler just finishes late; the deadline bounds it.  A hard wall-clock
  ``deadline_s`` bounds the whole search: on expiry the workers are torn
  down, the checkpoint is flushed and
  :class:`~repro.exceptions.SolverTimeoutError` is raised carrying the
  partial progress (whose incumbent is the exact best of the seed and the
  completed shards).  The engine is a context manager and always
  terminates/joins its workers -- on success, error and
  ``KeyboardInterrupt`` alike.  Every recovery action is recorded in
  ``SearchProgress.incidents``.
  Checkpoints are written, sealed, read and quarantined through
  :mod:`repro.durable`: a damaged file raises
  :class:`~repro.exceptions.CheckpointCorruptionError` naming the path
  (:meth:`SearchProgress.load_or_quarantine` renames it aside and redoes the
  affected shards from scratch).  Faults themselves are injectable through
  :class:`repro.resilience.FaultPlan` for deterministic chaos tests.

Exactness contract
------------------
The scalar exhaustive search returns the *first* candidate (in enumeration
order) achieving the minimum TOC.  Every shard therefore reports
``(toc, global_index)`` of its best candidate and the reduction is
lexicographic, which reproduces "minimum TOC, smallest index" regardless of
shard completion order.  Pruning is strict: a subtree is only skipped when
*every* completion is capacity-infeasible (TOC ``inf`` on the scalar path),
and a subtree or chunk only when its TOC lower bound is *strictly* above the
incumbent -- equal-TOC candidates are never discarded, so tie-breaking
matches the scalar path exactly and the returned layout and TOC are bitwise
identical.  The seed folds in through the same lexicographic rule as a shard
outcome, with the TOC its own chunk would score and its true mixed-radix
index; since the optimum's chunk can never be cut, the seed changes what is
pruned, never what is returned.  Seed rows are not counted as evaluated, so
``evaluated + pruned_layouts`` still covers the space exactly once.
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
    _mixed_radix_weights,
    accumulate_space_used,
    decode_assignments,
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
#: Base of the exponential backoff between attempts of one shard: the retry
#: of attempt ``a`` waits ``SHARD_RETRY_BACKOFF_S * 2**a`` seconds.
SHARD_RETRY_BACKOFF_S = 0.05
#: Most prefixes (``M**depth``) one per-depth workload-time floor table
#: holds; see :class:`_PruningBounds`.
FLOOR_TABLE_MAX_PREFIXES = 8192
#: Subtrees whose prefix bounds :meth:`_PruningBounds.subtrees` computes and
#: keeps at a time (the default geometry has at most ``24 * workers``).
SUBTREE_WINDOW = 4096


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
        self.offer(outcome.best_toc, outcome.best_index, outcome.best_row)

    def offer(self, toc: float, index: int, row: Optional[Tuple[int, ...]]) -> None:
        """Adopt a candidate if it is lexicographically better: lower TOC,
        or equal TOC at a smaller enumeration index."""
        if row is not None and (
            toc < self.best_toc or (toc == self.best_toc and index < self.best_index)
        ):
            self.best_toc = toc
            self.best_index = index
            self.best_row = row


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
    * TOC: the cheapest completion places every free object on the cheapest
      class, giving a storage-cost lower bound, and the workload-time floor
      of the fixed columns
      (:meth:`~repro.core.batch_eval.BatchLayoutEvaluator.time_floor_factors`)
      bounds the time factor; their product bounds every completion's TOC
      for the incumbent test.

    The time floors are built here, in the coordinator, so pool workers
    inherit (or unpickle) them with the bounds and every chunk-grain floor
    is a table lookup.  The evaluator computes them at the deepest depth
    whose prefix grid fits :data:`FLOOR_TABLE_MAX_PREFIXES`; each shallower
    prefix takes the minimum over its ``M`` children, which bounds every
    completion just as soundly and is never below the evaluator's own floor
    at that depth.  A range fixing more columns than the deepest table reads
    that table: fixing fewer columns only lowers the floor.  OLTP workloads,
    and evaluators whose tables are not fully warmed, keep the global
    :meth:`~repro.core.batch_eval.BatchLayoutEvaluator.toc_floor_factor` as
    a one-entry depth-0 table.
    """

    def __init__(self, evaluator: BatchLayoutEvaluator, prefix_depth: int,
                 with_floors: bool = True):
        self.prefix_depth = prefix_depth
        self.num_classes = evaluator.num_classes
        self.num_subtrees = self.num_classes**prefix_depth
        # (first subtree, keep, toc_lb) of the window subtrees() last computed.
        self._window = (0, np.zeros(0, dtype=bool), np.zeros(0))
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
        # Workload-time floors, indexed [depth][prefix code].  An engine
        # that does not prune reads only ``prefix_depth`` and skips them.
        self.time_floors: List[np.ndarray] = []
        self.floor_depth = 0
        if not with_floors:
            return
        deepest = 0
        while (deepest < self.num_objects
               and self.num_classes ** (deepest + 1) <= FLOOR_TABLE_MAX_PREFIXES):
            deepest += 1
        floors = evaluator.time_floor_factors(deepest)
        if floors is None:
            deepest = 0
            self.time_floors = [np.array([evaluator.toc_floor_factor()])]
        else:
            self.time_floors = [floors]
            for _ in range(deepest):
                self.time_floors.insert(
                    0, self.time_floors[0].reshape(-1, self.num_classes).min(axis=1)
                )
        self.floor_depth = deepest

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
        """``(keep_mask, toc_lower_bound)`` for a batch of subtree prefixes."""
        used = self.prefix_space(prefix_matrix)
        overflow = (used > self.capacities[None, :]).any(axis=1)
        slack = np.clip(self.capacities[None, :] - used, 0.0, None).sum(axis=1)
        cannot_fit = self.residual_total_gb > slack + self.slack_epsilon
        keep = ~(overflow | cannot_fit)
        cost_lb = (used @ self.prices + self.residual_min_cost) * (1.0 - 1e-9)
        depth = min(self.prefix_depth, self.floor_depth)
        codes = prefix_matrix[:, :depth] @ _mixed_radix_weights(depth, self.num_classes)
        return keep, cost_lb * self.time_floors[depth][codes]

    def subtrees(self, first: int, last: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`admissible` for the subtrees ``first..last`` (inclusive),
        sliced from a kept window of up to :data:`SUBTREE_WINDOW` subtrees
        (the bounds do not depend on the incumbent)."""
        lo, keep, toc_lb = self._window
        if not lo <= first <= last < lo + keep.size:
            lo = first
            hi = min(self.num_subtrees, max(last + 1, first + SUBTREE_WINDOW))
            keep, toc_lb = self.admissible(
                decode_assignments(np.arange(lo, hi), self.prefix_depth, self.num_classes)
            )
            self._window = (lo, keep, toc_lb)
        return keep[first - lo:last + 1 - lo], toc_lb[first - lo:last + 1 - lo]

    def chunk_toc_lb(self, chunk_start: int, chunk_last: int) -> float:
        """TOC lower bound over the index range ``[chunk_start, chunk_last]``
        (inclusive).

        A contiguous mixed-radix range shares the common most-significant
        digits of its two endpoints; those columns are *fixed* for every
        index in the range: they price at their actual class and select the
        time floor, while the free suffix prices at the cheapest class.
        This tightens the per-subtree bound (which fixes only
        ``prefix_depth`` columns) to chunk granularity: deep inside a
        subtree a chunk fixes many more columns.  The same ``1 - 1e-9``
        margin plus the caller's strict comparison keep the bound sound
        regardless of summation order.
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
        cost_lb = (cost + float(self.suffix_min_cost[depth])) * (1.0 - 1e-9)
        depth = min(depth, self.floor_depth)
        code = chunk_start // self.num_classes ** (self.num_objects - depth)
        return cost_lb * float(self.time_floors[depth][code])


# ---------------------------------------------------------------------------
# Shard processing (runs in pool workers and in-process)
# ---------------------------------------------------------------------------

class _Incumbent:
    """Best-so-far TOC holder of an in-process run."""

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
    prune: bool,
    *,
    deadline: Optional[float] = None,
    injector: Optional[FaultInjector] = None,
    attempt: int = 0,
    allow_process_kill: bool = True,
    trace_enabled: bool = False,
) -> _ShardOutcome:
    """Enumerate and score the subtrees ``[subtree_lo, subtree_hi)``.

    One loop walks the shard's index range a chunk of up to ``chunk_size``
    rows at a time.  A chunk may span consecutive subtrees, but never
    crosses a subtree boundary when subtrees are at least a chunk long.
    With ``prune``, the rows of dead subtrees (capacity broken, or TOC bound
    above the incumbent) drop out of the chunk through a row mask; a chunk
    with no live subtree runs on to the end of its last one, so a dead
    subtree is skipped whole.  The chunk's own TOC bound can then drop the
    rest.

    ``deadline`` is an absolute ``time.monotonic`` instant (comparable
    across processes on Linux); crossing it raises
    :class:`SolverTimeoutError` before the next chunk.  ``injector`` fires
    any fault scheduled for ``(shard_id, attempt)`` before work starts --
    ``allow_process_kill`` is False on the in-process path, where a hard
    worker kill is demoted to :class:`ShardFailureError`.
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
    subtree_size = num_classes ** (num_objects - bounds.prefix_depth)

    stats = BatchEvalStats(shards=1)
    evaluator.stats = stats  # chunk evaluations accumulate into the shard delta
    best_toc = float("inf")
    best_index = -1
    best_row: Optional[np.ndarray] = None
    evaluated = 0

    position = subtree_lo * subtree_size
    stop = subtree_hi * subtree_size
    while position < stop:
        if deadline is not None and time.monotonic() >= deadline:
            raise SolverTimeoutError(
                f"shard {shard_id} crossed the enumeration deadline "
                f"at index {position}/{stop}"
            )
        first = position // subtree_size
        chunk_stop = min(position + chunk_size, stop)
        if subtree_size >= chunk_size:
            chunk_stop = min(chunk_stop, (first + 1) * subtree_size)
        last = (chunk_stop - 1) // subtree_size
        live = None  # every row of the chunk is scored
        if prune:
            fits, toc_lb = bounds.subtrees(first, last)
            current_best = incumbent.get()
            # The incumbent only ever decreases and a subtree's bound is
            # fixed, so a subtree that dies here stays dead.
            live = fits & ~(toc_lb > current_best)
            if not live.any():
                chunk_stop = min((last + 1) * subtree_size, stop)
            elif bounds.chunk_toc_lb(position, chunk_stop - 1) > current_best:
                # Chunk-level bound: the chunk's endpoints can share more
                # fixed digits than the subtree prefix, so its cost and time
                # floors are tighter.
                live[:] = False
            if live.all():
                live = None
            else:
                starts = np.arange(first, last + 1) * subtree_size
                rows = (np.minimum(starts + subtree_size, chunk_stop)
                        - np.maximum(starts, position))
                stats.pruned_subtrees += int((~fits & (starts >= position)).sum())
                stats.pruned_subtree_layouts += int(rows[~fits].sum())
                cut = int(rows[fits & ~live].sum())
                stats.pruned_chunk_layouts += cut
                if not live.any():
                    if cut:
                        stats.pruned_chunks += 1
                    position = chunk_stop
                    continue
        indices = np.arange(position, chunk_stop, dtype=np.int64)
        if live is not None:
            indices = indices[np.repeat(live, rows)]
        chunk = decode_assignments(indices, num_objects, num_classes)
        evaluation = evaluator.evaluate_chunk(chunk)
        evaluated += chunk.shape[0]
        index = evaluation.best_index
        if index is not None:
            toc = float(evaluation.toc_cents[index])
            global_index = int(indices[index])
            # Strict-improvement semantics of the scalar loop: an infinite
            # TOC is never adopted, and ties keep the earlier index.
            if toc < best_toc or (toc == best_toc and global_index < best_index):
                best_toc = toc
                best_index = global_index
                best_row = chunk[index].copy()
                incumbent.offer(toc)
        position = chunk_stop
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
# Pool worker (module-level so spawned workers can import it)
# ---------------------------------------------------------------------------

def _worker_main(conn, evaluator: BatchLayoutEvaluator, bounds: _PruningBounds,
                 shared_value, chunk_size: int, prune: bool,
                 fault_plan: Optional[FaultPlan], deadline: Optional[float],
                 trace_enabled: bool) -> None:
    """Pool worker: score each shard the coordinator sends over ``conn``.

    The coordinator's warmed evaluator arrives as a process argument.
    Under the ``fork`` start method the worker inherits it copy-on-write,
    with no pickling at all; under ``spawn``/``forkserver`` multiprocessing
    pickles it once per worker with its estimate tables already warm.
    Either way every worker -- including one started in place of a dead
    one -- scores from complete tables and never calls the optimizer.

    Each message is a ``(shard_id, subtree_lo, subtree_hi, attempt)`` task;
    the reply is its :class:`_ShardOutcome`, or the exception the shard
    raised.  ``deadline`` is an absolute ``time.monotonic`` instant stamped
    by the coordinator; ``CLOCK_MONOTONIC`` is machine-wide, so workers can
    compare against it directly.  ``fault_plan`` injects chaos-test faults
    (``None`` in production).  The worker's own set-up time is its boot
    (``attach_s``) and rides back on its first outcome.  The worker serves
    shards until the coordinator terminates it.
    """
    started = time.perf_counter()
    incumbent = _SharedIncumbent(shared_value)
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    attach_s = time.perf_counter() - started
    while True:
        shard_id, subtree_lo, subtree_hi, attempt = conn.recv()
        # Worker caches are copies the coordinator's context never sees;
        # measure this attempt's delta so the solve's stats count it once
        # per (shard_id, attempt).
        hits_before = evaluator.cache.hits
        misses_before = evaluator.cache.misses
        try:
            outcome = _process_shard(
                evaluator, bounds, incumbent, shard_id, subtree_lo, subtree_hi,
                chunk_size, prune, deadline=deadline, injector=injector,
                attempt=attempt, trace_enabled=trace_enabled,
            )
        except Exception as exc:  # the coordinator retries or aborts on it
            conn.send(exc)
            continue
        outcome.stats.cache_hits = evaluator.cache.hits - hits_before
        outcome.stats.cache_misses = evaluator.cache.misses - misses_before
        outcome.stats.attach_s, attach_s = attach_s, 0.0
        conn.send(outcome)


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
        adopt as is; a pruning engine then scores the ``M`` uniform layouts
        to seed the incumbent.
    workers:
        Process count.  ``workers <= 1`` runs the identical sharded/pruned
        algorithm in-process (no pool), as ``ExhaustiveSolver`` does by
        default.
    chunk_size:
        Most candidate rows scored per ``evaluate_chunk`` call.
    prefix_depth:
        Number of leading mixed-radix columns that define a prunable subtree.
        Defaults to a depth that yields at least ``8 * workers *
        SHARDS_PER_WORKER`` subtrees (clamped to ``[1, N-1]``) so shards stay
        balanced and the capacity bound gets traction.
    prune:
        Disable to enumerate every candidate (the bounds and the uniform
        seed are then skipped entirely); results are identical either way.
    deadline_s:
        Hard wall-clock budget counted from construction, so it covers the
        warm-up (which stops once it expires; the seed is still scored).
        On expiry ``run`` starts no shard and no worker, or tears the
        workers down, flushes the checkpoint and raises
        :class:`SolverTimeoutError` carrying the partial
        :class:`SearchProgress`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injected into shard
        processing for deterministic chaos tests.

    The space is cut into ``workers * SHARDS_PER_WORKER`` contiguous shards.
    The pool runs ``workers`` processes that the engine owns, each fed one
    shard at a time over its own pipe as it frees up; dispatches beyond each
    worker's first shard are counted as ``steals``.  Workers receive the
    warmed evaluator itself as a process argument, so no worker rebuilds or
    re-warms anything.  A failed shard, or one whose worker died, is retried
    up to :data:`SHARD_MAX_RETRIES` times after a
    :data:`SHARD_RETRY_BACKOFF_S` exponential backoff; a dead worker is
    replaced.

    The engine is a context manager: ``with engine: engine.run()``
    guarantees the workers are terminated and joined on success, error and
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
        deadline_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.evaluator = evaluator
        self.workers = max(1, int(workers))
        self.chunk_size = chunk_size
        self.prune = prune
        self.deadline_s = deadline_s
        self.fault_plan = fault_plan
        #: ``(process, coordinator end of its pipe)`` of every live worker.
        self._workers: List[tuple] = []

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
        self._deadline = time.monotonic() + deadline_s if deadline_s is not None else None
        evaluator.warm_signatures(deadline=self._deadline)
        self._bounds = _PruningBounds(self.evaluator, self.prefix_depth, with_floors=prune)
        self._seed = self._uniform_seed() if prune else None

    def _uniform_seed(self) -> Optional[Tuple[float, int, Tuple[int, ...]]]:
        """``(toc, index, row)`` of the best feasible all-on-one-class row.

        The ``M`` rows whose variable columns all hold one class (pinned
        objects stay pinned) are the paper's uniform baselines.  The
        evaluator scores them exactly as their shard's chunk will, so the
        TOC is bit for bit the enumeration's; ``index`` is the row's
        mixed-radix index.  ``None`` when no uniform row is feasible.  The
        rows are scored outside the run's accounting (the evaluator's stats
        are set aside): their shards enumerate them again, so ``evaluated +
        pruned_layouts`` still covers the space exactly once.
        """
        rows = np.repeat(
            np.arange(self.num_classes, dtype=np.int64)[:, None], self.num_objects, axis=1
        )
        stats, self.evaluator.stats = self.evaluator.stats, BatchEvalStats()
        try:
            evaluation = self.evaluator.evaluate_chunk(rows)
        finally:
            self.evaluator.stats = stats
        best = evaluation.best_index
        if best is None:
            return None
        index = sum(best * self.num_classes**column for column in range(self.num_objects))
        return float(evaluation.toc_cents[best]), index, (best,) * self.num_objects

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
        if self._seed is not None:
            # Both incumbents (in-process and the pool's shared value) start
            # from progress.best_toc, so the seed prunes from the first chunk.
            progress.offer(*self._seed)
        pending = [task for task in shards if task[0] not in progress.completed]
        if not pending:
            return progress
        checkpoint = Path(checkpoint_path) if checkpoint_path is not None else None
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._deadline_abort(progress, checkpoint)
        if self.workers <= 1:
            self._run_serial(pending, progress, checkpoint)
        else:
            self._run_pool(pending, progress, checkpoint)
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
        """Terminate and join the worker processes, if any are live.

        Safe to call repeatedly; a no-op for in-process engines.  Runs from
        ``__exit__`` and from ``run``'s ``finally``, so no code path --
        success, exception or ``KeyboardInterrupt`` -- leaks orphaned
        workers.
        """
        workers, self._workers = self._workers, []
        for process, _ in workers:
            process.terminate()
        for process, conn in workers:
            process.join()
            conn.close()

    # -- recovery helpers ----------------------------------------------
    def _deadline_abort(self, progress: SearchProgress,
                        checkpoint: Optional[Path]) -> None:
        """Flush the checkpoint and raise the deadline timeout."""
        progress.incidents.append(
            f"deadline expired with {len(progress.completed)}/{progress.total_shards} "
            "shards complete"
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
        time.sleep(SHARD_RETRY_BACKOFF_S * (2 ** attempt))
        queue.append((task, attempt + 1))

    def _fold_reply(self, reply, task, attempt: int, queue, progress: SearchProgress,
                    checkpoint: Optional[Path]) -> None:
        """Fold one shard attempt's reply -- its outcome, or the exception it
        raised -- into ``progress``: a crossed deadline aborts the run, a
        failure goes to the bounded retry, and an outcome has its span
        adopted and is recorded and checkpointed."""
        if isinstance(reply, SolverTimeoutError):
            self._deadline_abort(progress, checkpoint)
        if isinstance(reply, Exception):
            self._handle_shard_failure(reply, task, attempt, queue, progress, checkpoint)
            return
        trace.get_tracer().adopt(reply.span)
        progress.record(reply)
        if checkpoint is not None:
            progress.save(checkpoint)

    # -- execution paths -----------------------------------------------
    def _run_serial(self, pending, progress: SearchProgress,
                    checkpoint: Optional[Path] = None) -> None:
        incumbent = _Incumbent(progress.best_toc)
        injector = FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        trace_enabled = trace.get_tracer().enabled
        queue = deque((task, 0) for task in pending)
        while queue:
            task, attempt = queue.popleft()
            shard_id, lo, hi = task
            try:
                reply = _process_shard(
                    self.evaluator, self._bounds, incumbent, shard_id, lo, hi,
                    self.chunk_size, self.prune, deadline=self._deadline,
                    injector=injector, attempt=attempt, allow_process_kill=False,
                    trace_enabled=trace_enabled,
                )
            except Exception as exc:
                reply = exc
            self._fold_reply(reply, task, attempt, queue, progress, checkpoint)

    def _start_worker(self, context, worker_args):
        """Start one pool worker; returns ``(process, coordinator end of its pipe)``."""
        conn, worker_conn = context.Pipe()
        process = context.Process(target=_worker_main, args=(worker_conn, *worker_args),
                                  daemon=True)
        process.start()
        # Only the worker holds its end now, so its exit reads as EOF on ``conn``.
        worker_conn.close()
        self._workers.append((process, conn))
        return process, conn

    def _run_pool(self, pending, progress: SearchProgress,
                  checkpoint: Optional[Path] = None) -> None:
        from multiprocessing.connection import wait

        context = multiprocessing.get_context()
        # The warmed evaluator itself is the worker payload, and every worker
        # the run starts -- a replacement for a dead one too -- gets the same
        # arguments.
        worker_args = (self.evaluator, self._bounds, context.Value("d", progress.best_toc),
                       self.chunk_size, self.prune, self.fault_plan, self._deadline,
                       trace.get_tracer().enabled)
        queue = deque((task, 0) for task in pending)
        busy = {}  # coordinator end of a busy worker's pipe -> (process, task, attempt)
        dispatched = 0
        try:
            idle = [self._start_worker(context, worker_args)
                    for _ in range(min(self.workers, len(pending)))]
            while queue or busy:
                while queue and idle:
                    task, attempt = queue.popleft()
                    process, conn = idle.pop()
                    try:
                        conn.send((*task, attempt))
                    except OSError:
                        pass  # the worker died idle; its pipe reads as EOF below
                    busy[conn] = (process, task, attempt)
                    dispatched += 1
                    if dispatched > self.workers:
                        # Beyond every worker's first shard, dispatch is
                        # demand-driven: the next range goes to whichever
                        # worker frees up first.
                        progress.stats.steals += 1
                ready = wait(list(busy), None if self._deadline is None
                             else max(0.0, self._deadline - time.monotonic()))
                if not ready:
                    self._deadline_abort(progress, checkpoint)
                for conn in ready:
                    process, task, attempt = busy.pop(conn)
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        # The worker exited mid-shard and closed its end of
                        # the pipe: retry the shard on a replacement.
                        process.join()
                        reply = ShardFailureError(
                            f"worker exited with code {process.exitcode}",
                            shard_id=task[0], attempts=attempt + 1,
                        )
                        self._workers.remove((process, conn))
                        conn.close()
                        process, conn = self._start_worker(context, worker_args)
                    idle.append((process, conn))
                    self._fold_reply(reply, task, attempt, queue, progress, checkpoint)
            trace.current_span().set(
                steals=max(dispatched - self.workers, 0), shards=len(pending),
            )
        finally:
            self.close()
