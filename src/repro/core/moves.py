"""Move enumeration and priority scores (paper Section 3.2-3.3, Procedure 2).

A *move* ``m(g, p)`` re-places a whole object group ``g`` onto the placement
tuple ``p``.  DOT enumerates every placement combination of every group,
scores each move by how much workload I/O time it adds per cent of layout
cost it saves, and applies the moves in ascending score order (cheapest
performance penalty per unit of saving first).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.layout import Layout
from repro.core.profiles import WorkloadProfileSet
from repro.exceptions import ProfileError
from repro.objects import ObjectGroup
from repro.storage.storage_class import StorageSystem

#: Score assigned to moves that save nothing (they sort last and are skipped
#: by the optimizer unless explicitly requested).
_ZERO_SAVING_SCORE = float("inf")


@dataclass(frozen=True)
class Move:
    """A candidate move of one object group to a placement tuple."""

    group: ObjectGroup
    placement: Tuple[str, ...]
    #: Workload I/O time added by the move relative to the initial layout (ms).
    time_penalty_ms: float = 0.0
    #: Layout cost saved by the move relative to the initial layout (cents/hour).
    cost_saving_cents_per_hour: float = 0.0

    @property
    def score(self) -> float:
        """Priority score ``sigma = delta_time / delta_cost`` (lower is better)."""
        if self.cost_saving_cents_per_hour <= 0:
            return _ZERO_SAVING_SCORE
        return self.time_penalty_ms / self.cost_saving_cents_per_hour

    @property
    def saves_cost(self) -> bool:
        """True if the move actually reduces the layout cost."""
        return self.cost_saving_cents_per_hour > 0

    def apply_to(self, layout: Layout) -> Layout:
        """Apply the move to a layout, returning the new layout ``m(L)``."""
        return layout.with_group_placement(self.group, self.placement)

    def describe(self) -> str:
        """Human readable one-liner used in optimizer traces."""
        placement = ", ".join(
            f"{member.name}->{class_name}"
            for member, class_name in zip(self.group.members, self.placement)
        )
        return (
            f"move[{self.group.key}] ({placement}) "
            f"penalty={self.time_penalty_ms:.1f} ms saving={self.cost_saving_cents_per_hour:.4f} c/h "
            f"score={self.score:.4g}"
        )


def group_cost_cents_per_hour(group: ObjectGroup, placement: Sequence[str],
                              system: StorageSystem) -> float:
    """Hourly storage cost of one group under a placement."""
    total = 0.0
    for member, class_name in zip(group.members, placement):
        total += system[class_name].storage_cost_cents_per_hour(member.size_gb)
    return total


def enumerate_moves(
    groups: Sequence[ObjectGroup],
    system: StorageSystem,
    profiles: WorkloadProfileSet,
    include_non_saving: bool = False,
) -> List[Move]:
    """Enumerate and sort all candidate moves (Procedure 2).

    Moves are scored relative to the initial layout ``L_0``, which places
    every object on the most expensive class, as in the paper.

    Parameters
    ----------
    groups:
        The object groups ``G``.
    system:
        The storage system ``D`` with prices ``P``.
    profiles:
        Workload profiles ``X`` used to compute the performance penalty.
    include_non_saving:
        Keep moves whose cost saving is zero or negative (they sort last);
        by default they are dropped because applying them can only hurt.
    """
    initial = system.most_expensive().name
    moves: List[Move] = []
    for group in groups:
        initial_placement = tuple([initial] * len(group))
        try:
            initial_time = profiles.io_time_share_ms(group, initial_placement)
        except ProfileError:
            initial_time = 0.0
        initial_cost = group_cost_cents_per_hour(group, initial_placement, system)

        for combo in itertools.product(system.class_names, repeat=len(group)):
            placement = tuple(combo)
            if placement == initial_placement:
                continue
            try:
                new_time = profiles.io_time_share_ms(group, placement)
            except ProfileError:
                new_time = initial_time
            new_cost = group_cost_cents_per_hour(group, placement, system)
            move = Move(
                group=group,
                placement=placement,
                time_penalty_ms=new_time - initial_time,
                cost_saving_cents_per_hour=initial_cost - new_cost,
            )
            if move.saves_cost or include_non_saving:
                moves.append(move)

    moves.sort(key=lambda move: (move.score, -move.cost_saving_cents_per_hour))
    return moves
