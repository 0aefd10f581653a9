"""Cylinder shuffling: the adaptive-rearrangement baseline.

Vongsathorn and Carson [Vongsath 90] rearrange whole *cylinders* into an
organ-pipe order by observed cylinder reference frequency; the DataMesh
disk-shuffling study [Ruemmler 91] compared cylinder and block shuffling
and found block shuffling generally better — "their conclusion that block
shuffling generally outperforms cylinder shuffling corroborates one of
our own" (Section 1.1).  This module implements cylinder shuffling inside
the same driver so the two techniques can be compared head-to-head (see
``benchmarks/test_ablation_block_vs_cylinder.py``).

Differences from block rearrangement, mirroring Section 1.1's list:

* **Granularity** — whole cylinders move; hot and cold blocks within a
  cylinder travel together, and zero-length seeks cannot increase.
* **Data volume** — the shuffle is a permutation of the *entire* disk,
  not a small copy into reserved space.
* **Layout preservation** — nothing is preserved; every remapped
  cylinder's layout relationship to its neighbours changes.

The shuffle is applied atomically between measurement days (the papers
reorganized offline); the cost is reported as the number of cylinders
moved (each costs a read and a write of a full cylinder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..analysis.organpipe import organ_pipe_arrangement
from ..core.analyzer import ReferenceStreamAnalyzer
from ..driver.driver import AdaptiveDiskDriver


@dataclass(frozen=True)
class CylinderShufflePlan:
    """A whole-disk cylinder permutation: original -> new position."""

    mapping: dict[int, int]

    def is_permutation(self) -> bool:
        targets = list(self.mapping.values())
        return len(set(targets)) == len(targets) and set(targets) == set(
            self.mapping
        )


def plan_organ_pipe_shuffle(
    cylinder_counts: Mapping[int, int], num_cylinders: int
) -> CylinderShufflePlan:
    """Organ-pipe permutation: the hottest cylinder goes to the middle of
    the disk, the next hottest to either side, and so on."""
    if num_cylinders <= 0:
        raise ValueError("num_cylinders must be positive")
    weights = [float(cylinder_counts.get(c, 0)) for c in range(num_cylinders)]
    # order[position] = original cylinder to put there.
    order = organ_pipe_arrangement(weights)
    mapping = {original: position for position, original in enumerate(order)}
    return CylinderShufflePlan(mapping=mapping)


def cylinder_counts_from_blocks(
    block_counts: Mapping[int, int], driver: AdaptiveDiskDriver
) -> dict[int, int]:
    """Fold per-(logical-)block reference counts into per-physical-cylinder
    counts, through the driver's label mapping."""
    geometry = driver.disk.geometry
    counts: dict[int, int] = {}
    for logical, count in block_counts.items():
        physical = driver.label.virtual_to_physical_block(logical)
        cylinder = geometry.cylinder_of_block(physical)
        counts[cylinder] = counts.get(cylinder, 0) + count
    return counts


class CylinderShuffler:
    """Applies cylinder shuffles to a driver (the V&C-style alternative).

    Use with a driver whose label has *no* reserved area: cylinder
    shuffling reorganizes the whole disk instead of copying into hidden
    cylinders.
    """

    def __init__(self, driver: AdaptiveDiskDriver) -> None:
        if driver.label.is_rearranged:
            raise ValueError(
                "cylinder shuffling expects a disk without a reserved "
                "area; it permutes the whole disk instead"
            )
        self.driver = driver
        self.shuffles_applied = 0
        self.cylinders_moved = 0

    def plan_from_analyzer(
        self, analyzer: ReferenceStreamAnalyzer
    ) -> CylinderShufflePlan:
        counts = cylinder_counts_from_blocks(
            dict(analyzer.hot_blocks()), self.driver
        )
        return plan_organ_pipe_shuffle(
            counts, self.driver.disk.geometry.cylinders
        )

    def apply(self, plan: CylinderShufflePlan) -> int:
        """Install the permutation (and physically move the data).

        Composes with any previously applied shuffle: the new plan is
        expressed over *original* cylinder numbers, as produced from
        monitored reference counts (which are in original coordinates).
        Returns the number of cylinders moved relative to the previous
        layout.
        """
        if not plan.is_permutation():
            raise ValueError("plan is not a permutation of the cylinders")
        old_map = self.driver.cylinder_map or {}
        geometry = self.driver.disk.geometry
        per_cyl = geometry.blocks_per_cylinder

        def old_position(cylinder: int) -> int:
            return old_map.get(cylinder, cylinder)

        # Data currently sits at old_position(c); it must move to the new
        # position for every original cylinder c.
        current_of_original = {
            c: old_position(c) for c in range(geometry.cylinders)
        }
        new_of_current = {
            current: plan.mapping.get(original, original)
            for original, current in current_of_original.items()
        }

        def block_mapping(block: int) -> int:
            cylinder, index = divmod(block, per_cyl)
            return new_of_current.get(cylinder, cylinder) * per_cyl + index

        self.driver.disk.move_contents(block_mapping)
        moved = sum(
            1 for cur, new in new_of_current.items() if cur != new
        )
        self.driver.cylinder_map = dict(plan.mapping)
        self.shuffles_applied += 1
        self.cylinders_moved += moved
        return moved

    def reset(self) -> int:
        """Undo shuffling: restore the original layout."""
        identity = CylinderShufflePlan(
            mapping={
                c: c for c in range(self.driver.disk.geometry.cylinders)
            }
        )
        moved = self.apply(identity)
        self.driver.cylinder_map = None
        return moved
