"""Physical query plans.

A plan is a tree of :class:`PlanNode` operators.  Each node records the I/O
it performs against each database object (by I/O type) and its CPU cost; the
:class:`QueryPlan` wrapper aggregates those numbers so DOT can read off the
per-object I/O profile and the optimizer's estimated response time, exactly
like the paper reads PostgreSQL's ``EXPLAIN`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.storage.io_profile import IOType

#: Per-object I/O counts: ``{object_name: {io_type: count}}``.
ObjectIOCounts = Dict[str, Dict[IOType, float]]


def merge_io_counts(target: ObjectIOCounts, source: Mapping[str, Mapping[IOType, float]]) -> None:
    """Accumulate ``source`` into ``target`` in place."""
    for object_name, by_type in source.items():
        bucket = target.setdefault(object_name, {})
        for io_type, count in by_type.items():
            bucket[io_type] = bucket.get(io_type, 0.0) + count


def scale_io_counts(counts: Mapping[str, Mapping[IOType, float]], factor: float) -> ObjectIOCounts:
    """Return a copy of ``counts`` with every count multiplied by ``factor``."""
    return {
        object_name: {io_type: count * factor for io_type, count in by_type.items()}
        for object_name, by_type in counts.items()
    }


def total_io_count(counts: Mapping[str, Mapping[IOType, float]]) -> float:
    """Total number of I/O operations across all objects and types."""
    return sum(sum(by_type.values()) for by_type in counts.values())


@dataclass
class PlanNode:
    """One physical operator in a query plan.

    Attributes
    ----------
    operator:
        Operator name, e.g. ``"SeqScan"``, ``"IndexScan"``, ``"HashJoin"``,
        ``"IndexNLJoin"``, ``"Sort"``, ``"Aggregate"``, ``"Insert"``,
        ``"Update"``.
    target:
        The main object the operator works on (table/index name), if any.
    rows_out:
        Estimated output cardinality.
    io_counts:
        I/O performed directly by this operator (children excluded).
    cpu_ms:
        CPU time consumed directly by this operator (children excluded).
    children:
        Input operators.
    detail:
        Free-form annotation used when rendering the plan.
    """

    operator: str
    target: Optional[str] = None
    rows_out: float = 0.0
    io_counts: ObjectIOCounts = field(default_factory=dict)
    cpu_ms: float = 0.0
    children: List["PlanNode"] = field(default_factory=list)
    detail: str = ""

    # ------------------------------------------------------------------
    def total_io_counts(self) -> ObjectIOCounts:
        """Aggregate I/O of this node and all descendants."""
        totals: ObjectIOCounts = {}
        merge_io_counts(totals, self.io_counts)
        for child in self.children:
            merge_io_counts(totals, child.total_io_counts())
        return totals

    def total_cpu_ms(self) -> float:
        """Aggregate CPU time of this node and all descendants."""
        return self.cpu_ms + sum(child.total_cpu_ms() for child in self.children)

    def walk(self) -> Iterable["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        """Render the subtree as an ``EXPLAIN``-style indented listing."""
        target = f" on {self.target}" if self.target else ""
        detail = f" ({self.detail})" if self.detail else ""
        line = f"{'  ' * indent}-> {self.operator}{target}  rows={self.rows_out:.0f}{detail}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass
class QueryPlan:
    """A complete plan for one query under one data placement.

    The optimizer shares ``root``, ``access_paths``, ``join_algorithms`` and
    the merged :attr:`io_by_object` between every plan of the same shape (the
    same access path and join algorithm at every step), since none of them
    depends on the placement: treat them as read-only.
    """

    query_name: str
    root: PlanNode
    io_time_ms: float = 0.0
    cpu_time_ms: float = 0.0
    access_paths: Dict[str, str] = field(default_factory=dict)
    join_algorithms: Tuple[str, ...] = ()
    #: The tree's merged I/O counts, filled on first read of ``io_by_object``.
    merged_io: Optional[ObjectIOCounts] = field(default=None, repr=False, compare=False)

    @property
    def estimated_time_ms(self) -> float:
        """Optimizer's response-time estimate: I/O time plus CPU time."""
        return self.io_time_ms + self.cpu_time_ms

    @property
    def io_by_object(self) -> ObjectIOCounts:
        """Per-object, per-I/O-type counts for the whole plan (``chi`` in the paper).

        Merged from the tree once per plan shape and shared: read-only.
        """
        if self.merged_io is None:
            self.merged_io = self.root.total_io_counts()
        return self.merged_io

    @property
    def total_io_operations(self) -> float:
        """Total I/O operations performed by the plan."""
        return total_io_count(self.io_by_object)

    def io_for(self, object_name: str) -> Dict[IOType, float]:
        """I/O counts against one object (empty dict if untouched)."""
        return dict(self.io_by_object.get(object_name, {}))

    def uses_index_nlj(self) -> bool:
        """True if any join in the plan is an indexed nested-loop join."""
        return any(algorithm == "IndexNLJoin" for algorithm in self.join_algorithms)

    def render(self) -> str:
        """Render the plan tree plus the cost summary."""
        header = (
            f"Plan for {self.query_name}: est. {self.estimated_time_ms:.2f} ms "
            f"(I/O {self.io_time_ms:.2f} ms, CPU {self.cpu_time_ms:.2f} ms)"
        )
        return header + "\n" + self.root.render()
