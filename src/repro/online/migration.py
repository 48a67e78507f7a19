"""Migration planning and migration-aware TOC accounting.

Re-tiering is not free: every object moved between storage classes is read
sequentially off its source class and written sequentially onto its target
class, and while the copy is in flight the object occupies *both* classes.
This module prices a layout-to-layout transition so the online advisor can
charge that price against the projected TOC savings and only re-tier when
the move amortises within its horizon.

The cost model is deliberately linear in bytes moved, which makes it
conservative (per-GB transfer times and per-GB prices are both per-unit
constants of the class pair):

* ``seconds_per_gb(src, dst)`` -- one GB of pages sequentially read from
  ``src`` plus sequentially written to ``dst`` at the calibrated service
  times;
* ``cents_per_gb(src, dst)`` -- the double-occupancy charge: each moved GB
  pays both classes' hourly price for the duration of its own transfer;
* an optional *disruption* term prices the migration I/O time at a layout's
  hourly cost, exactly how the paper prices DSS workload time
  (``C(L) * t``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.layout import Layout
from repro.storage.io_profile import IOType
from repro.storage.storage_class import StorageSystem
from repro.units import MS_PER_SECOND, SECONDS_PER_HOUR, gb_to_pages


@dataclass(frozen=True)
class ObjectMove:
    """One object's relocation between storage classes."""

    object_name: str
    size_gb: float
    source: str
    target: str


@dataclass(frozen=True)
class MigrationPlan:
    """The set of object moves turning one layout into another."""

    moves: Tuple[ObjectMove, ...]

    @classmethod
    def between(cls, current: Layout, target: Layout) -> "MigrationPlan":
        """Diff two layouts over the same objects into a move list."""
        if set(current.object_names) != set(target.object_names):
            raise ValueError("layouts must place the same objects to be diffed")
        moves: List[ObjectMove] = []
        for obj in current.objects:
            source = current.class_name_of(obj.name)
            destination = target.class_name_of(obj.name)
            if source != destination:
                moves.append(
                    ObjectMove(
                        object_name=obj.name,
                        size_gb=obj.size_gb,
                        source=source,
                        target=destination,
                    )
                )
        return cls(moves=tuple(moves))

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the layouts already agree."""
        return not self.moves

    def bytes_moved_gb(self) -> float:
        """Total gigabytes relocated by the plan."""
        return sum(move.size_gb for move in self.moves)

    def bytes_by_class_pair(self) -> Dict[Tuple[str, str], float]:
        """Gigabytes moved per ``(source, target)`` class pair."""
        by_pair: Dict[Tuple[str, str], float] = {}
        for move in self.moves:
            key = (move.source, move.target)
            by_pair[key] = by_pair.get(key, 0.0) + move.size_gb
        return by_pair

    def describe(self) -> str:
        """Human-readable one-line-per-move summary."""
        if self.is_empty:
            return "no objects to move"
        return "; ".join(
            f"{move.object_name} {move.source}->{move.target} ({move.size_gb:.2f} GB)"
            for move in self.moves
        )


@dataclass(frozen=True)
class MigrationCost:
    """The priced outcome of one migration plan."""

    bytes_moved_gb: float
    bytes_by_class_pair: Dict[Tuple[str, str], float]
    io_time_s: float
    transfer_cents: float
    disruption_cents: float

    @property
    def cost_cents(self) -> float:
        """Total migration charge in cents (transfer plus disruption)."""
        return self.transfer_cents + self.disruption_cents


class MigrationCostModel:
    """Prices migration plans against a storage system's profiles and prices.

    Objects are copied page by page by a single background mover thread, so
    transfers run at the classes' concurrency-1 service times.
    """

    def __init__(self, system: StorageSystem):
        self.system = system

    # ------------------------------------------------------------------
    # Per-GB unit constants of a class pair
    # ------------------------------------------------------------------
    def seconds_per_gb(self, source: str, target: str) -> float:
        """Seconds to read one GB from ``source`` and write it to ``target``."""
        pages = gb_to_pages(1.0)
        read_ms = self.system[source].service_time_ms(IOType.SEQ_READ, 1)
        write_ms = self.system[target].service_time_ms(IOType.SEQ_WRITE, 1)
        return pages * (read_ms + write_ms) / MS_PER_SECOND

    def cents_per_gb(self, source: str, target: str) -> float:
        """Double-occupancy charge for moving one GB between the pair.

        While a GB is in flight it is billed on both classes, so it pays
        ``(p_src + p_dst)`` cents/GB/hour for its own transfer duration.
        """
        prices = (
            self.system[source].price_cents_per_gb_hour
            + self.system[target].price_cents_per_gb_hour
        )
        return prices * (self.seconds_per_gb(source, target) / SECONDS_PER_HOUR)

    # ------------------------------------------------------------------
    def io_time_s(self, plan: MigrationPlan) -> float:
        """Total migration I/O time of a plan in seconds."""
        return sum(
            move.size_gb * self.seconds_per_gb(move.source, move.target)
            for move in plan.moves
        )

    def assess(self, plan: MigrationPlan,
               layout_cost_cents_per_hour: float = 0.0) -> MigrationCost:
        """Price a plan: bytes by pair, I/O time, transfer and disruption cost.

        ``layout_cost_cents_per_hour`` is the hourly cost of the layout the
        migration runs under (the *target* layout, conservatively: both
        copies of moved objects exist until the copy completes); the
        disruption term prices the migration I/O time at that rate, the
        same way the paper prices DSS workload time.
        """
        io_time = self.io_time_s(plan)
        transfer = sum(
            move.size_gb * self.cents_per_gb(move.source, move.target)
            for move in plan.moves
        )
        disruption = layout_cost_cents_per_hour * (io_time / SECONDS_PER_HOUR)
        return MigrationCost(
            bytes_moved_gb=plan.bytes_moved_gb(),
            bytes_by_class_pair=plan.bytes_by_class_pair(),
            io_time_s=io_time,
            transfer_cents=transfer,
            disruption_cents=disruption,
        )


@dataclass(frozen=True)
class ReProvisioningPolicy:
    """When is a re-tier worth its migration cost?

    The candidate layout's per-epoch TOC saving is projected over
    ``horizon_epochs`` (the amortization window -- how long the new layout
    is assumed to stay appropriate) and compared against the migration
    cost; the move happens only when the projected net saving exceeds
    ``min_saving_cents``.
    """

    horizon_epochs: int = 4
    min_saving_cents: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_epochs < 1:
            raise ValueError("amortization horizon must span at least one epoch")

    def projected_net_saving_cents(self, current_toc_cents: float,
                                   candidate_toc_cents: float,
                                   migration_cost_cents: float) -> float:
        """Projected saving over the horizon, net of the migration cost."""
        per_epoch = current_toc_cents - candidate_toc_cents
        return per_epoch * self.horizon_epochs - migration_cost_cents

    def should_migrate(self, current_toc_cents: float, candidate_toc_cents: float,
                       migration_cost_cents: float) -> bool:
        """True when the projected net saving clears the threshold."""
        return (
            self.projected_net_saving_cents(
                current_toc_cents, candidate_toc_cents, migration_cost_cents
            )
            > self.min_saving_cents
        )
