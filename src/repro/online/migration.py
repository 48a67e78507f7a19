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
from typing import Dict, Iterator, List, Tuple

from repro.core.layout import Layout
from repro.storage.io_profile import IOType
from repro.storage.simulator import IORequest
from repro.storage.storage_class import StorageSystem
from repro.units import (
    MS_PER_SECOND,
    PAGE_SIZE_BYTES,
    SECONDS_PER_HOUR,
    gb_to_pages,
)


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

    Parameters
    ----------
    system:
        The storage system whose service times and prices apply.
    concurrency:
        Concurrency the migration batches are issued at (1: a single
        background mover thread, the default).
    page_size_bytes:
        Transfer granularity; objects are copied page by page.
    """

    def __init__(self, system: StorageSystem, concurrency: int = 1,
                 page_size_bytes: int = PAGE_SIZE_BYTES):
        self.system = system
        self.concurrency = concurrency
        self.page_size_bytes = page_size_bytes

    # ------------------------------------------------------------------
    # Per-GB unit constants of a class pair
    # ------------------------------------------------------------------
    def seconds_per_gb(self, source: str, target: str) -> float:
        """Seconds to read one GB from ``source`` and write it to ``target``."""
        pages = gb_to_pages(1.0, self.page_size_bytes)
        read_ms = self.system[source].service_time_ms(IOType.SEQ_READ, self.concurrency)
        write_ms = self.system[target].service_time_ms(IOType.SEQ_WRITE, self.concurrency)
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

    # ------------------------------------------------------------------
    def io_requests(self, plan: MigrationPlan) -> Iterator[Tuple[str, IORequest]]:
        """The migration's I/O batches for the device simulator.

        Yields ``(class_name, request)`` pairs -- a sequential-read batch
        against each move's source class followed by a sequential-write
        batch against its target class -- consumable by
        :meth:`repro.storage.simulator.MultiClassSimulator.run_batches`.
        """
        for move in plan.moves:
            pages = gb_to_pages(move.size_gb, self.page_size_bytes)
            yield move.source, IORequest(
                io_type=IOType.SEQ_READ, count=pages, object_name=move.object_name
            )
            yield move.target, IORequest(
                io_type=IOType.SEQ_WRITE, count=pages, object_name=move.object_name
            )


@dataclass(frozen=True)
class SimulatedMigrationCost:
    """A migration priced by *executing* its I/O on the device simulator.

    The byte batches of the plan run through
    :class:`~repro.storage.simulator.MultiClassSimulator`, sharing the
    devices with the epoch workload: each class's utilisation by the
    workload stretches the mover's effective transfer window (the mover only
    gets the idle fraction of a device's queue), so the double-occupancy
    charge grows with contention exactly as it would on real hardware.  The
    purely analytic :class:`MigrationCost` is kept as ``analytic`` for
    cross-checking -- with a deterministic simulator and an idle system the
    two agree bit for bit.
    """

    bytes_moved_gb: float
    bytes_by_class_pair: Dict[Tuple[str, str], float]
    #: Device busy time of the migration I/O itself (excludes queueing).
    io_time_s: float
    #: Contention-stretched in-flight time the double-occupancy charge covers.
    contended_time_s: float
    #: Workload utilisation per storage class during the epoch (0..1).
    utilization_by_class: Dict[str, float]
    #: Simulated migration busy time per storage class (milliseconds).
    busy_ms_by_class: Dict[str, float]
    transfer_cents: float
    disruption_cents: float
    #: The closed-form model's price of the same plan (the cross-check).
    analytic: MigrationCost

    @property
    def cost_cents(self) -> float:
        """Total migration charge in cents (transfer plus disruption)."""
        return self.transfer_cents + self.disruption_cents

    @property
    def contention_factor(self) -> float:
        """How much device contention stretched the transfer window."""
        if self.io_time_s <= 0:
            return 1.0
        return self.contended_time_s / self.io_time_s


class MigrationExecutor:
    """Executes migration plans on the device simulator, under workload load.

    Parameters
    ----------
    system:
        The storage system whose simulated devices service the batches; an
        analytic :class:`MigrationCostModel` over it provides the batch
        geometry and the cross-check price.
    jitter:
        Per-batch measurement noise of the simulator (``0`` keeps the run
        deterministic and makes the idle-system busy time equal the analytic
        ``io_time_s`` exactly).
    seed:
        Seed of the simulator's per-class noise streams.
    max_utilization:
        Cap on the workload utilisation a device may contribute to the
        contention factor; a fully saturated class would otherwise starve
        the mover forever (``1 / (1 - u)`` diverges).
    """

    def __init__(self, system: StorageSystem, jitter: float = 0.0, seed: int = 2011,
                 max_utilization: float = 0.9):
        if not 0.0 <= max_utilization < 1.0:
            raise ValueError("utilisation cap must be in [0, 1)")
        self.system = system
        self.model = MigrationCostModel(system)
        self.jitter = jitter
        self.seed = seed
        self.max_utilization = max_utilization

    # ------------------------------------------------------------------
    def _utilizations(self, workload_result) -> Dict[str, float]:
        """Workload busy fraction per class over the epoch window."""
        if workload_result is None:
            return {}
        busy_by_class = getattr(workload_result, "busy_time_by_class_ms", None) or {}
        window_s = getattr(workload_result, "total_time_s", 0.0)
        if window_s <= 0:
            return {}
        return {
            class_name: min(busy_ms / MS_PER_SECOND / window_s, self.max_utilization)
            for class_name, busy_ms in busy_by_class.items()
        }

    def execute(self, plan: MigrationPlan, workload_result=None,
                layout_cost_cents_per_hour: float = 0.0) -> SimulatedMigrationCost:
        """Run the plan's batches through the simulator and price the result.

        ``workload_result`` is the epoch's
        :class:`~repro.dbms.executor.WorkloadRunResult` (or anything with
        ``busy_time_by_class_ms`` and ``total_time_s``); its per-class busy
        fractions become the background load the mover contends with.  Passing
        ``None`` prices an idle system, which reproduces the analytic model
        exactly when ``jitter`` is zero.
        """
        from repro.storage.simulator import MultiClassSimulator

        simulator = MultiClassSimulator(
            self.system, concurrency=self.model.concurrency,
            jitter=self.jitter, seed=self.seed,
        )
        utilization = self._utilizations(workload_result)

        # One geometry source: the analytic model's own batch stream yields
        # (source, read-batch), (target, write-batch) per move, in order.
        batches = self.model.io_requests(plan)
        busy_s_by_move: List[Tuple[ObjectMove, float, float]] = []
        for move in plan.moves:
            source_class, read_request = next(batches)
            target_class, write_request = next(batches)
            read_ms = simulator.submit(source_class, read_request)
            write_ms = simulator.submit(target_class, write_request)
            busy_s_by_move.append((move, read_ms / MS_PER_SECOND, write_ms / MS_PER_SECOND))

        io_time_s = 0.0
        contended_time_s = 0.0
        transfer_cents = 0.0
        for move, read_s, write_s in busy_s_by_move:
            idle_src = 1.0 - utilization.get(move.source, 0.0)
            idle_dst = 1.0 - utilization.get(move.target, 0.0)
            in_flight_s = read_s / idle_src + write_s / idle_dst
            io_time_s += read_s + write_s
            contended_time_s += in_flight_s
            prices = (
                self.system[move.source].price_cents_per_gb_hour
                + self.system[move.target].price_cents_per_gb_hour
            )
            # Double occupancy: the moved bytes are billed on both classes
            # for their (contention-stretched) in-flight time.
            transfer_cents += prices * (in_flight_s / SECONDS_PER_HOUR)
        disruption_cents = layout_cost_cents_per_hour * (contended_time_s / SECONDS_PER_HOUR)
        return SimulatedMigrationCost(
            bytes_moved_gb=plan.bytes_moved_gb(),
            bytes_by_class_pair=plan.bytes_by_class_pair(),
            io_time_s=io_time_s,
            contended_time_s=contended_time_s,
            utilization_by_class=utilization,
            busy_ms_by_class=simulator.busy_time_by_class_ms(),
            transfer_cents=transfer_cents,
            disruption_cents=disruption_cents,
            analytic=self.model.assess(
                plan, layout_cost_cents_per_hour=layout_cost_cents_per_hour
            ),
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
