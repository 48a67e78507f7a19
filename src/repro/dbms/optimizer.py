"""The storage-aware cost-based query optimizer.

For every query and candidate data placement the optimizer chooses:

* the access path of each scanned table (sequential scan vs B+-tree index
  scan), and
* the algorithm of each join step (hash join vs indexed nested-loop join),

by costing the alternatives with the placement-specific I/O latencies of
:class:`~repro.dbms.cost_model.CostModel`.  This reproduces the central
interaction the paper builds DOT around: moving a table or index to a
different storage class can flip the cheapest plan, which in turn changes the
number and type of I/Os issued against every object in the same group.

Plan construction walks the query's left-deep join pipeline greedily (each
step picks its locally cheapest alternative), which mirrors how the paper's
PostgreSQL-based estimates respond to layout changes.

Compile once, price per placement
---------------------------------
Every I/O count and CPU time of every alternative comes from catalog
statistics and :class:`~repro.dbms.cost_model.CostParameters` alone; only the
latencies that weight the counts, and with them the greedy choices, depend on
the placement.  So the optimizer compiles each query once into a template:
the ordered ``(object, I/O type, count)`` items and the CPU time of every
access, join, sort, aggregate and write alternative, produced by the same
``_seq_scan``/``_index_scan``/``_hash_join``/``_index_nl_join``/``_add_*``
helpers the plan walk calls.  Pricing a placement looks up memoized
per-(class, I/O type) latencies, sums each item list in
:meth:`~repro.dbms.cost_model.CostModel.io_time_for_counts` order and makes
the walk's strict-``<`` choices in the walk's addition order, so its times
are bit for bit the walk's.  The tuple of choices is the plan's shape: the
first placement of a new shape builds its tree with the walk
(``_build_plan``, kept as the oracle), and every later plan of that shape
shares the tree, access paths, join algorithms and merged I/O counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dbms.catalog import DatabaseCatalog
from repro.dbms.cost_model import CostModel, CostParameters, ServiceTimeTable, placed_class
from repro.dbms.plan import PlanNode, QueryPlan
from repro.dbms.query import Query, TableAccess, WriteOp
from repro.exceptions import PlanningError, UnknownObjectError
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageClass

#: ``(object, I/O type, count)`` items in the order ``io_time_for_counts`` sums.
IOItems = Tuple[Tuple[str, IOType, float], ...]


@dataclass
class CacheStats:
    """Hit/miss/size accounting of the optimizer's plan cache.

    The searches (ES, DOT, the batch evaluator) re-plan the same queries
    under thousands of placements; because the cache key only covers a
    query's signature objects (the objects it references plus temp space),
    moving an *unrelated* object must produce a hit.  These counters make
    that observable and are the basis of the cache regression tests.
    """

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.size = 0


@dataclass
class _Candidate:
    """A costed sub-plan alternative."""

    node: PlanNode
    io_time_ms: float
    cpu_time_ms: float
    rows_out: float

    @property
    def total_time_ms(self) -> float:
        return self.io_time_ms + self.cpu_time_ms


def _io_time(
    items: IOItems, placement: Mapping[str, StorageClass], latencies: ServiceTimeTable
) -> float:
    """``CostModel.io_time_for_counts`` bit for bit: the same addition order,
    a class looked up only for a positive count, and ``count <= 0`` adding an
    exact ``0.0``."""
    total = 0.0
    for object_name, io_type, count in items:
        if count <= 0:
            total += 0.0
        else:
            total += count * latencies.latency_ms(placed_class(placement, object_name), io_type)
    return total


class _UnpricedCostModel(CostModel):
    """A cost model without a placement: CPU and memory terms only.

    The plan helpers run under it to compile a template; they price no I/O,
    and the template keeps their count dicts to price later.
    """

    def __init__(self, parameters: CostParameters):
        super().__init__({}, parameters=parameters)

    def io_time_for_counts(self, io_counts) -> float:
        return 0.0


# Template step kinds.  An alternative is ``(items, cpu_ms)`` of its own work.
_SCAN = "scan"  # (kind, seq, index): the first access
_APPEND = "append"  # (kind, seq, index): a later access with no join spec
_JOIN = "join"  # (kind, seq, index, (hash after seq, [hash after index]), nlj)
_TAIL = "tail"  # (kind, alternative): a sort or a write
_AGGREGATE = "aggregate"  # (kind, cpu_ms)


class _PlanTemplate:
    """The placement-independent part of one query's plans."""

    __slots__ = ("query", "signature", "steps", "shapes")

    def __init__(self, query: Query, signature: Tuple[str, ...], steps: Optional[tuple]):
        self.query = query
        #: Objects whose class can change the plan's price.
        self.signature = signature
        #: Compiled steps, or ``None`` for a query the helpers cannot
        #: compile: the walk then plans it and raises its error.
        self.steps = steps
        #: The walk's plan of each shape (tuple of choices) seen so far.
        self.shapes: Dict[tuple, QueryPlan] = {}


def _own(candidate: _Candidate) -> Tuple[IOItems, float]:
    """A candidate node's own I/O items and CPU time (children excluded)."""
    items = tuple(
        (object_name, io_type, count)
        for object_name, by_type in candidate.node.io_counts.items()
        for io_type, count in by_type.items()
    )
    return items, candidate.node.cpu_ms


def _best_path(seq, index, placement, latencies) -> Tuple[float, float, int]:
    """``_best_access_path``'s choice as ``(io_ms, cpu_ms, 0 seq | 1 index)``."""
    seq_io = _io_time(seq[0], placement, latencies)
    if index is not None:
        index_io = _io_time(index[0], placement, latencies)
        if index_io + index[1] < seq_io + seq[1]:
            return index_io, index[1], 1
    return seq_io, seq[1], 0


class QueryOptimizer:
    """Chooses physical plans under a specific data placement."""

    def __init__(
        self,
        catalog: DatabaseCatalog,
        parameters: Optional[CostParameters] = None,
        temp_object: Optional[str] = None,
    ):
        self.catalog = catalog
        self.parameters = parameters or CostParameters()
        #: Name of the temporary-space object used for sort/hash spills, if
        #: the database registers one and the placement covers it.
        self.temp_object = temp_object
        self._plan_cache: Dict[tuple, QueryPlan] = {}
        self._templates: Dict[str, _PlanTemplate] = {}
        self._latencies: Dict[int, ServiceTimeTable] = {}
        self.cache_stats = CacheStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        query: Query,
        placement: Mapping[str, StorageClass],
        concurrency: int = 1,
        use_cache: bool = True,
    ) -> QueryPlan:
        """Produce the cheapest plan for ``query`` under ``placement``.

        The plan cache keys on the query name, the concurrency and the
        classes of :meth:`signature_objects`.  A miss prices the query's
        template, compiled on first use, under ``placement``: its times,
        access paths, join algorithms and I/O counts are bit for bit those
        of a fresh plan walk, and plans of one shape share their tree and
        counts.
        """
        template = self._templates.get(query.name)
        if template is None or template.query is not query:
            template = self._template(query)
        cache_key = None
        if use_cache:
            cache_key = (query.name, concurrency, tuple([
                storage_class.name if storage_class is not None else None
                for storage_class in map(placement.get, template.signature)
            ]))
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                self.cache_stats.hits += 1
                return cached
            self.cache_stats.misses += 1

        plan = self._price(query, template, placement, concurrency)
        if cache_key is not None:
            self._plan_cache[cache_key] = plan
            self.cache_stats.size = len(self._plan_cache)
        return plan

    def signature_objects(self, query: Query) -> Tuple[str, ...]:
        """Objects whose storage class can influence this query's plan.

        The query's referenced objects plus the temporary-space object:
        spills pay I/O against temp, so its class matters even though no
        query references it directly.  Two placements agreeing on these
        objects get the same plan, so the plan cache and the estimate tables
        key on them.
        """
        return self._template(query).signature

    def clear_cache(self) -> None:
        """Drop all cached plans, templates and latencies (placements,
        statistics or storage classes changed)."""
        self._plan_cache.clear()
        self._templates.clear()
        self._latencies.clear()
        self.cache_stats.size = 0

    def plan_table(self) -> Dict[tuple, QueryPlan]:
        """A snapshot of the plan cache keyed by (query, concurrency, classes
        of the signature objects), for introspection and debugging of search
        runs."""
        return dict(self._plan_cache)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def _template(self, query: Query) -> _PlanTemplate:
        template = self._templates.get(query.name)
        if template is not None:
            if template.query is not query:
                if template.query != query:
                    raise PlanningError(
                        f"two different queries are named {query.name!r}; the optimizer "
                        "keys its plans by query name"
                    )
                template.query = query
            return template
        signature = list(query.referenced_objects)
        if self.temp_object and self.temp_object not in signature:
            signature.append(self.temp_object)
        try:
            steps = self._compile(query)
        except (PlanningError, UnknownObjectError):
            # Left to the walk, which raises this error where it always has
            # (after any placement error of an earlier step).
            steps = None
        template = _PlanTemplate(query, tuple(signature), steps)
        self._templates[query.name] = template
        return template

    def _compile(self, query: Query) -> Optional[tuple]:
        """The placement-independent steps of ``query``'s plan walk.

        ``None`` when the alternatives of one step disagree on their output
        rows: the choice would then change the counts of later steps.
        """
        model = _UnpricedCostModel(self.parameters)
        steps: List[tuple] = []
        rows = 0.0
        for position, access in enumerate(query.accesses):
            seq = self._seq_scan(access, model)
            index = self._index_scan(access, model)
            paths = (_own(seq), _own(index) if index is not None else None)
            inners = [seq] if index is None else [seq, index]
            outputs = list(inners)
            join = query.join_for(position) if position else None
            if position == 0:
                steps.append((_SCAN,) + paths)
                rows = seq.rows_out
            elif join is None:
                steps.append((_APPEND,) + paths)
            else:
                outer = _Candidate(node=PlanNode(operator="Result"), io_time_ms=0.0,
                                   cpu_time_ms=0.0, rows_out=rows)
                outputs = [
                    self._hash_join(outer, inner, access, join.rows_per_outer, model)[0]
                    for inner in inners
                ]
                hashes = tuple(_own(candidate) for candidate in outputs)
                nlj = None
                if join.inner_index is not None:
                    candidate = self._index_nl_join(
                        outer, access, join.rows_per_outer, join.inner_index, model
                    )
                    outputs.append(candidate)
                    nlj = _own(candidate)
                steps.append((_JOIN,) + paths + (hashes, nlj))
                rows = outputs[0].rows_out
            if any(candidate.rows_out != outputs[0].rows_out for candidate in outputs):
                return None

        current = _Candidate(node=PlanNode(operator="Result"), io_time_ms=0.0,
                             cpu_time_ms=0.0, rows_out=rows)
        if query.sort_rows > 0:
            steps.append((_TAIL, _own(self._add_sort(current, query.sort_rows, model))))
        if query.aggregate_rows > 0:
            aggregate = self._add_aggregate(current, query.aggregate_rows, model)
            steps.append((_AGGREGATE, aggregate.node.cpu_ms))
        for write in query.writes:
            steps.append((_TAIL, _own(self._add_write(current, write, model))))
        return tuple(steps)

    def _latency_table(self, concurrency: int) -> ServiceTimeTable:
        table = self._latencies.get(concurrency)
        if table is None:
            if concurrency < 1:
                raise ValueError("degree of concurrency must be >= 1")
            table = self._latencies[concurrency] = ServiceTimeTable(concurrency)
        return table

    def _price(
        self,
        query: Query,
        template: _PlanTemplate,
        placement: Mapping[str, StorageClass],
        concurrency: int,
    ) -> QueryPlan:
        """The plan walk's result under ``placement``, priced from the template."""
        if template.steps is None:
            return self._build_plan(
                query, CostModel(placement, concurrency=concurrency, parameters=self.parameters)
            )
        latencies = self._latency_table(concurrency)
        io_ms = 0.0
        cpu_ms = 0.0
        shape = []
        for step in template.steps:
            kind = step[0]
            if kind == _TAIL:
                items, own_cpu = step[1]
                io_ms = io_ms + _io_time(items, placement, latencies)
                cpu_ms = cpu_ms + own_cpu
                continue
            if kind == _AGGREGATE:
                cpu_ms = cpu_ms + step[1]
                continue
            path_io, path_cpu, path = _best_path(step[1], step[2], placement, latencies)
            if kind == _SCAN:
                io_ms, cpu_ms = path_io, path_cpu
            elif kind == _APPEND:
                io_ms, cpu_ms = io_ms + path_io, cpu_ms + path_cpu
            else:
                spill, own_cpu = step[3][path]
                hash_io = io_ms + path_io + _io_time(spill, placement, latencies)
                hash_cpu = cpu_ms + path_cpu + own_cpu
                nlj = step[4]
                if nlj is not None:
                    nlj_io = io_ms + _io_time(nlj[0], placement, latencies)
                    nlj_cpu = cpu_ms + nlj[1]
                    if nlj_io + nlj_cpu < hash_io + hash_cpu:
                        io_ms, cpu_ms = nlj_io, nlj_cpu
                        shape.append(2)
                        continue
                io_ms, cpu_ms = hash_io, hash_cpu
            shape.append(path)

        shape = tuple(shape)
        shared = template.shapes.get(shape)
        if shared is None:
            shared = self._build_plan(
                query, CostModel(placement, concurrency=concurrency, parameters=self.parameters)
            )
            template.shapes[shape] = shared
            return shared
        return QueryPlan(
            query_name=query.name,
            root=shared.root,
            io_time_ms=io_ms,
            cpu_time_ms=cpu_ms,
            access_paths=shared.access_paths,
            join_algorithms=shared.join_algorithms,
            merged_io=shared.io_by_object,
        )

    # ------------------------------------------------------------------
    # The plan walk: the oracle the templates price bit for bit
    # ------------------------------------------------------------------
    def _build_plan(self, query: Query, cost_model: CostModel) -> QueryPlan:
        access_paths: Dict[str, str] = {}
        join_algorithms = []

        if query.accesses:
            current = self._best_access_path(query.accesses[0], cost_model)
            access_paths[query.accesses[0].table] = current.node.operator
            for position in range(1, len(query.accesses)):
                access = query.accesses[position]
                join = query.join_for(position)
                if join is None:
                    # Independent access (e.g. an uncorrelated subquery): cost it
                    # and keep the pipeline cardinality unchanged.
                    extra = self._best_access_path(access, cost_model)
                    access_paths[access.table] = extra.node.operator
                    current = _Candidate(
                        node=PlanNode(
                            operator="Append",
                            rows_out=current.rows_out,
                            children=[current.node, extra.node],
                        ),
                        io_time_ms=current.io_time_ms + extra.io_time_ms,
                        cpu_time_ms=current.cpu_time_ms + extra.cpu_time_ms,
                        rows_out=current.rows_out,
                    )
                    continue
                current, algorithm, inner_path = self._best_join(
                    current, access, join.rows_per_outer, join.inner_index, cost_model
                )
                join_algorithms.append(algorithm)
                if inner_path is not None:
                    access_paths[access.table] = inner_path
        else:
            current = _Candidate(node=PlanNode(operator="Result", rows_out=0.0),
                                 io_time_ms=0.0, cpu_time_ms=0.0, rows_out=0.0)

        # Post-join processing: sort and aggregation.
        if query.sort_rows > 0:
            current = self._add_sort(current, query.sort_rows, cost_model)
        if query.aggregate_rows > 0:
            current = self._add_aggregate(current, query.aggregate_rows, cost_model)

        # Writes (inserts / keyed updates) including index maintenance.
        for write in query.writes:
            current = self._add_write(current, write, cost_model)

        root = current.node
        plan = QueryPlan(
            query_name=query.name,
            root=root,
            io_time_ms=current.io_time_ms,
            cpu_time_ms=current.cpu_time_ms,
            access_paths=access_paths,
            join_algorithms=tuple(join_algorithms),
        )
        return plan

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _seq_scan(self, access: TableAccess, cost_model: CostModel) -> _Candidate:
        stats = self.catalog.table_stats(access.table)
        repeat = max(access.repeat, 0.0)
        io_counts = {access.table: {IOType.SEQ_READ: float(stats.pages) * repeat}}
        io_time = cost_model.io_time_for_counts(io_counts)
        cpu_time = cost_model.scan_cpu_ms(stats.row_count) * repeat
        rows_out = stats.row_count * access.selectivity * repeat
        node = PlanNode(
            operator="SeqScan",
            target=access.table,
            rows_out=rows_out,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            detail=f"selectivity={access.selectivity:.4g}",
        )
        return _Candidate(node=node, io_time_ms=io_time, cpu_time_ms=cpu_time, rows_out=rows_out)

    def _index_scan(self, access: TableAccess, cost_model: CostModel) -> Optional[_Candidate]:
        if access.index is None:
            return None
        if not self.catalog.has_object(access.index):
            raise PlanningError(
                f"query references index {access.index!r} which is not in the catalog"
            )
        table_stats = self.catalog.table_stats(access.table)
        index_stats = self.catalog.index_stats(access.index)
        repeat = max(access.repeat, 0.0)
        matching_rows = table_stats.row_count * access.selectivity

        # Index I/O: one descent through the interior levels plus the leaf
        # pages covering the matching range.
        matching_leaves = max(1.0, math.ceil(matching_rows / max(index_stats.entries_per_leaf, 1.0)))
        descent_levels = self.parameters.descent_io_levels(index_stats.height)
        index_reads = (descent_levels + float(matching_leaves)) * repeat

        # Heap I/O: for shuffled (unclustered) heaps every matching row is a
        # separate random heap-page fetch; for clustered accesses adjacent
        # rows share pages.  Both are capped by the table's page count.
        if access.clustered:
            heap_fetches = math.ceil(matching_rows / max(table_stats.rows_per_page, 1.0))
        else:
            heap_fetches = matching_rows
        heap_reads = min(float(heap_fetches), float(table_stats.pages)) * repeat
        heap_reads *= 1.0 - self.parameters.heap_refetch_discount

        io_counts = {
            access.index: {IOType.RAND_READ: index_reads},
            access.table: {IOType.RAND_READ: heap_reads},
        }
        io_time = cost_model.io_time_for_counts(io_counts)
        cpu_time = (
            cost_model.index_probe_cpu_ms(repeat, index_stats.height)
            + cost_model.scan_cpu_ms(matching_rows * repeat)
        )
        node = PlanNode(
            operator="IndexScan",
            target=access.table,
            rows_out=matching_rows * repeat,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            detail=f"index={access.index}, selectivity={access.selectivity:.4g}",
        )
        return _Candidate(node=node, io_time_ms=io_time, cpu_time_ms=cpu_time,
                          rows_out=matching_rows * repeat)

    def _best_access_path(self, access: TableAccess, cost_model: CostModel) -> _Candidate:
        seq = self._seq_scan(access, cost_model)
        index = self._index_scan(access, cost_model)
        if index is not None and index.total_time_ms < seq.total_time_ms:
            return index
        return seq

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _hash_join(
        self,
        outer: _Candidate,
        inner: _Candidate,
        access: TableAccess,
        rows_per_outer: float,
        cost_model: CostModel,
    ) -> Tuple[_Candidate, str]:
        rows_out = outer.rows_out * rows_per_outer
        cpu_time = cost_model.hash_cpu_ms(build_rows=inner.rows_out, probe_rows=outer.rows_out)

        io_counts: Dict[str, Dict[IOType, float]] = {}
        io_time = 0.0
        spill_detail = ""
        # Spill the build side to temporary space when it exceeds work_mem.
        table_stats = self.catalog.table_stats(access.table)
        build_bytes = inner.rows_out * table_stats.row_width_bytes
        if self.temp_object and build_bytes > cost_model.work_mem_bytes():
            from repro.units import PAGE_SIZE_BYTES

            spill_pages = build_bytes / PAGE_SIZE_BYTES
            io_counts[self.temp_object] = {
                IOType.SEQ_WRITE: spill_pages,
                IOType.SEQ_READ: spill_pages,
            }
            io_time = cost_model.io_time_for_counts(io_counts)
            spill_detail = ", spills to temp"

        node = PlanNode(
            operator="HashJoin",
            target=access.table,
            rows_out=rows_out,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            children=[outer.node, inner.node],
            detail=f"build={access.table}{spill_detail}",
        )
        candidate = _Candidate(
            node=node,
            io_time_ms=outer.io_time_ms + inner.io_time_ms + io_time,
            cpu_time_ms=outer.cpu_time_ms + inner.cpu_time_ms + cpu_time,
            rows_out=rows_out,
        )
        return candidate, inner.node.operator

    def _index_nl_join(
        self,
        outer: _Candidate,
        access: TableAccess,
        rows_per_outer: float,
        inner_index: str,
        cost_model: CostModel,
    ) -> Optional[_Candidate]:
        if not self.catalog.has_object(inner_index):
            raise PlanningError(
                f"join references index {inner_index!r} which is not in the catalog"
            )
        table_stats = self.catalog.table_stats(access.table)
        index_stats = self.catalog.index_stats(inner_index)

        probes = outer.rows_out

        # Each probe descends the B+-tree (paying I/O only for the uncached
        # lower levels) and fetches the matching heap rows (one random read
        # each, since the heap is unclustered).  The inner access's own filter
        # selectivity is already folded into rows_per_outer by the workload
        # definition.
        index_reads = probes * self.parameters.descent_io_levels(index_stats.height)
        heap_reads = probes * max(rows_per_outer, 0.0)
        # A probe with no match still pays the descent but fetches nothing.
        rows_out = outer.rows_out * rows_per_outer

        io_counts = {
            inner_index: {IOType.RAND_READ: index_reads},
            access.table: {IOType.RAND_READ: heap_reads},
        }
        io_time = cost_model.io_time_for_counts(io_counts)
        cpu_time = (
            cost_model.index_probe_cpu_ms(probes, index_stats.height)
            + cost_model.scan_cpu_ms(rows_out)
        )
        node = PlanNode(
            operator="IndexNLJoin",
            target=access.table,
            rows_out=rows_out,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            children=[outer.node],
            detail=f"index={inner_index}, probes={probes:.0f}",
        )
        return _Candidate(
            node=node,
            io_time_ms=outer.io_time_ms + io_time,
            cpu_time_ms=outer.cpu_time_ms + cpu_time,
            rows_out=rows_out,
        )

    def _best_join(
        self,
        outer: _Candidate,
        access: TableAccess,
        rows_per_outer: float,
        inner_index: Optional[str],
        cost_model: CostModel,
    ) -> Tuple[_Candidate, str, Optional[str]]:
        inner = self._best_access_path(access, cost_model)
        hash_candidate, inner_path = self._hash_join(
            outer, inner, access, rows_per_outer, cost_model
        )
        best = hash_candidate
        algorithm = "HashJoin"
        chosen_inner_path: Optional[str] = inner_path

        if inner_index is not None:
            nlj_candidate = self._index_nl_join(
                outer, access, rows_per_outer, inner_index, cost_model
            )
            if nlj_candidate is not None and nlj_candidate.total_time_ms < best.total_time_ms:
                best = nlj_candidate
                algorithm = "IndexNLJoin"
                chosen_inner_path = None  # inner table is probed, not scanned
        return best, algorithm, chosen_inner_path

    # ------------------------------------------------------------------
    # Post-processing operators
    # ------------------------------------------------------------------
    def _add_sort(self, current: _Candidate, sort_rows: float, cost_model: CostModel) -> _Candidate:
        cpu_time = cost_model.sort_cpu_ms(sort_rows)
        io_counts: Dict[str, Dict[IOType, float]] = {}
        io_time = 0.0
        # External sort spills when the sorted rows exceed work_mem (assume
        # 64 bytes per sort row for keys + pointers).
        sort_bytes = sort_rows * 64.0
        if self.temp_object and sort_bytes > cost_model.work_mem_bytes():
            from repro.units import PAGE_SIZE_BYTES

            spill_pages = sort_bytes / PAGE_SIZE_BYTES
            io_counts[self.temp_object] = {
                IOType.SEQ_WRITE: spill_pages,
                IOType.SEQ_READ: spill_pages,
            }
            io_time = cost_model.io_time_for_counts(io_counts)
        node = PlanNode(
            operator="Sort",
            rows_out=current.rows_out,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            children=[current.node],
            detail=f"rows={sort_rows:.0f}",
        )
        return _Candidate(
            node=node,
            io_time_ms=current.io_time_ms + io_time,
            cpu_time_ms=current.cpu_time_ms + cpu_time,
            rows_out=current.rows_out,
        )

    def _add_aggregate(
        self, current: _Candidate, aggregate_rows: float, cost_model: CostModel
    ) -> _Candidate:
        cpu_time = cost_model.aggregate_cpu_ms(aggregate_rows)
        node = PlanNode(
            operator="Aggregate",
            rows_out=min(current.rows_out, aggregate_rows),
            cpu_ms=cpu_time,
            children=[current.node],
            detail=f"input rows={aggregate_rows:.0f}",
        )
        return _Candidate(
            node=node,
            io_time_ms=current.io_time_ms,
            cpu_time_ms=current.cpu_time_ms + cpu_time,
            rows_out=node.rows_out,
        )

    def _add_write(self, current: _Candidate, write: WriteOp, cost_model: CostModel) -> _Candidate:
        stats = self.catalog.table_stats(write.table)
        io_counts: Dict[str, Dict[IOType, float]] = {}

        if write.sequential:
            # Append-style insert: rows go to the end of the heap; index
            # entries land on (mostly random) leaf pages.
            io_counts[write.table] = {IOType.SEQ_WRITE: write.rows}
            operator = "Insert"
        else:
            # Keyed update: locate the rows (random reads via the primary
            # index when one exists), then write them back in place.  Rows
            # that are physically adjacent share heap pages.
            if write.clustered:
                pages_touched = math.ceil(write.rows / max(stats.rows_per_page, 1.0))
            else:
                pages_touched = write.rows
            primary = self.catalog.primary_index(write.table)
            lookup_reads = float(pages_touched)
            if primary is not None:
                index_stats = self.catalog.index_stats(primary.name)
                io_counts[primary.name] = {
                    IOType.RAND_READ: write.rows
                    * self.parameters.descent_io_levels(index_stats.height)
                }
            io_counts.setdefault(write.table, {})
            io_counts[write.table][IOType.RAND_READ] = lookup_reads
            io_counts[write.table][IOType.RAND_WRITE] = float(pages_touched)
            operator = "Update"

        # Index maintenance: entries for append-style inserts arrive in key
        # order (and are absorbed by the buffer/WAL), so they behave like
        # sequential writes; in-place updates dirty arbitrary leaf pages.
        maintenance_io = IOType.SEQ_WRITE if write.sequential else IOType.RAND_WRITE
        for index_name in write.indexes:
            if not self.catalog.has_object(index_name):
                raise PlanningError(
                    f"write references index {index_name!r} which is not in the catalog"
                )
            bucket = io_counts.setdefault(index_name, {})
            bucket[maintenance_io] = bucket.get(maintenance_io, 0.0) + write.rows

        io_time = cost_model.io_time_for_counts(io_counts)
        cpu_time = cost_model.scan_cpu_ms(write.rows)
        node = PlanNode(
            operator=operator,
            target=write.table,
            rows_out=write.rows,
            io_counts=io_counts,
            cpu_ms=cpu_time,
            children=[current.node] if current.node.operator != "Result" else [],
            detail=f"rows={write.rows:.0f}",
        )
        return _Candidate(
            node=node,
            io_time_ms=current.io_time_ms + io_time,
            cpu_time_ms=current.cpu_time_ms + cpu_time,
            rows_out=current.rows_out,
        )
