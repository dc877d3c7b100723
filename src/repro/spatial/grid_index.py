"""A uniform-grid spatial index over point-keyed items.

The index answers two queries the rest of the library needs constantly:
``nearest(point)`` (map matching, anchor calibration) and
``within_radius(point, r)`` (worker knowledge radius, truth reuse matching).
A uniform grid is simple, predictable and fast enough for city-scale data.

Coordinates live in flat, append-only numpy buffers; each grid cell keeps the
*slots* (insertion sequence numbers) of its items, so radius queries gather
candidate slots and compute all distances in one vectorized pass.  Tiny
candidate sets skip numpy entirely — scalar math beats array overhead below a
handful of points.  Results are deterministic: ties at equal distance break on
insertion order (the slot number captured at insert time), never on string
renderings of the items.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from ..exceptions import SpatialError
from .point import Point

T = TypeVar("T")

#: Below this many candidates a scalar loop outruns numpy dispatch overhead.
_VECTORIZE_THRESHOLD = 16


def rank_tolerance(radius: float) -> float:
    """The band within which a radius query's two distance functions may
    disagree: ``np.hypot`` ranks vectorized candidates and ``math.hypot``
    the rest, and the two can differ in the last ulp.  Callers that compare
    distances the index ranked (not just its in-or-out decisions) widen
    their comparisons by this much."""
    return 4.0 * float(np.finfo(np.float64).eps) * max(radius, 1.0)


class GridIndex(Generic[T]):
    """Maps items to planar locations and supports nearest / radius queries."""

    def __init__(self, cell_size: float = 500.0):
        if not 0 < cell_size < math.inf:
            raise SpatialError("cell_size must be positive and finite")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._item_slot: Dict[T, int] = {}
        self._slot_item: List[T] = []
        self._slot_point: List[Point] = []
        self._xs = np.empty(64, dtype=np.float64)
        self._ys = np.empty(64, dtype=np.float64)
        # Bounding box over live items: expanded in O(1) on insert, marked
        # stale on remove and recomputed lazily.  ``nearest`` uses it to cap
        # its doubling search without the former O(n) farthest-item scan.
        self._bbox: Optional[Tuple[float, float, float, float]] = None
        self._bbox_stale = False

    def __len__(self) -> int:
        return len(self._item_slot)

    def __contains__(self, item: T) -> bool:
        return item in self._item_slot

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (int(math.floor(point.x / self.cell_size)), int(math.floor(point.y / self.cell_size)))

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """The grid-cell coordinates ``point`` falls in.

        Exposed so consumers that group data by spatial cell (the truth
        store's destination cells, the planner's shard planning) can
        quantise with exactly the index's own boundary decisions.
        """
        return self._cell_of(point)

    # --------------------------------------------------------------- updates
    def insert(self, item: T, location: Point) -> None:
        """Insert ``item`` at ``location``; re-inserting an item moves it."""
        if item in self._item_slot:
            self.remove(item)
        slot = len(self._slot_item)
        if slot == len(self._xs):
            self._xs = np.concatenate([self._xs, np.empty_like(self._xs)])
            self._ys = np.concatenate([self._ys, np.empty_like(self._ys)])
        self._xs[slot] = location.x
        self._ys[slot] = location.y
        self._slot_item.append(item)
        self._slot_point.append(location)
        self._item_slot[item] = slot
        self._cells.setdefault(self._cell_of(location), []).append(slot)
        if self._bbox is None:
            self._bbox = (location.x, location.x, location.y, location.y)
        else:
            min_x, max_x, min_y, max_y = self._bbox
            self._bbox = (
                min(min_x, location.x),
                max(max_x, location.x),
                min(min_y, location.y),
                max(max_y, location.y),
            )

    def insert_many(self, entries: Iterable[Tuple[T, Point]]) -> None:
        for item, location in entries:
            self.insert(item, location)

    def remove(self, item: T) -> None:
        """Remove ``item``; raises ``KeyError`` if absent."""
        slot = self._item_slot.pop(item)
        cell = self._cell_of(self._slot_point[slot])
        slots = self._cells[cell]
        slots.remove(slot)
        if not slots:
            del self._cells[cell]
        self._bbox_stale = True
        # Dead slots (removed or moved items) are tombstones in the flat
        # buffers; compact once they outnumber the live items so churny
        # workloads stay O(live) in memory (amortised O(1) per removal).
        if len(self._slot_item) > 64 and len(self._slot_item) > 2 * len(self._item_slot):
            self._compact()

    def _compact(self) -> None:
        """Renumber live slots densely, preserving relative insertion order
        (slot order is the tie-break, so rankings are unchanged)."""
        live = sorted(self._item_slot.values())
        self._xs[: len(live)] = self._xs[live]
        self._ys[: len(live)] = self._ys[live]
        self._slot_item = [self._slot_item[slot] for slot in live]
        self._slot_point = [self._slot_point[slot] for slot in live]
        self._item_slot = {item: i for i, item in enumerate(self._slot_item)}
        new_slot = {old: i for i, old in enumerate(live)}
        for slots in self._cells.values():
            slots[:] = [new_slot[slot] for slot in slots]

    # ----------------------------------------------------------------- reads
    def location_of(self, item: T) -> Point:
        """Return the stored location of ``item``."""
        return self._slot_point[self._item_slot[item]]

    def items(self) -> List[T]:
        return list(self._item_slot)

    # --------------------------------------------------------------- queries
    def _candidate_slots(self, center: Point, radius: float) -> List[int]:
        reach = int(math.ceil(radius / self.cell_size))
        center_cell = self._cell_of(center)
        cells = self._cells
        if len(cells) <= (2 * reach + 1) ** 2:
            # Query square covers most of the index: walking the populated
            # cells is cheaper than enumerating the square.
            cx_lo, cx_hi = center_cell[0] - reach, center_cell[0] + reach
            cy_lo, cy_hi = center_cell[1] - reach, center_cell[1] + reach
            found: List[int] = []
            for (cx, cy), slots in cells.items():
                if cx_lo <= cx <= cx_hi and cy_lo <= cy <= cy_hi:
                    found.extend(slots)
            return found
        found = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                slots = cells.get((center_cell[0] + dx, center_cell[1] + dy))
                if slots:
                    found.extend(slots)
        return found

    def _ranked_within(self, slots: List[int], center: Point, radius: float) -> List[Tuple[T, float]]:
        """``(item, distance)`` for candidate slots within ``radius``, sorted
        by increasing distance with insertion-order tie-breaking."""
        slot_item = self._slot_item
        # In-or-out decisions must agree exactly with ``Point.distance_to``
        # (math.hypot): callers mix index queries with direct distance checks,
        # so an ulp of disagreement at the radius boundary would make them
        # contradict each other.  The scalar branch uses math.hypot directly;
        # the vectorized branch uses np.hypot — which may differ from
        # math.hypot in the last ulp — and re-decides the few entries within
        # an ulp-band of the boundary with math.hypot.
        if len(slots) < _VECTORIZE_THRESHOLD:
            hypot = math.hypot
            cx, cy = center.x, center.y
            xs, ys = self._xs, self._ys
            scored = []
            for slot in slots:
                distance = hypot(xs[slot] - cx, ys[slot] - cy)
                if distance <= radius:
                    scored.append((distance, slot))
            scored.sort()
            return [(slot_item[slot], float(distance)) for distance, slot in scored]
        index = np.asarray(slots, dtype=np.intp)
        dx = self._xs[index] - center.x
        dy = self._ys[index] - center.y
        distances = np.hypot(dx, dy)
        inside = distances <= radius
        if math.isfinite(radius):
            tolerance = rank_tolerance(radius)
            for j in np.nonzero(np.abs(distances - radius) <= tolerance)[0]:
                exact = math.hypot(float(dx[j]), float(dy[j]))
                distances[j] = exact
                inside[j] = exact <= radius
        index = index[inside]
        distances = distances[inside]
        order = np.lexsort((index, distances))
        return [(slot_item[index[i]], float(distances[i])) for i in order]

    def within_radius(self, center: Point, radius: float) -> List[Tuple[T, float]]:
        """Return ``(item, distance)`` pairs within ``radius`` metres of ``center``.

        Results are sorted by increasing distance; ties break on insertion
        order, so the ranking is deterministic for any item type.
        """
        if not 0 <= radius < math.inf:
            raise SpatialError("radius must be non-negative and finite")
        if not self._item_slot:
            return []
        return self._ranked_within(self._candidate_slots(center, radius), center, radius)

    def _farthest_possible(self, center: Point) -> float:
        """Upper bound on the distance from ``center`` to any indexed item."""
        if self._bbox_stale:
            live = np.fromiter(self._item_slot.values(), dtype=np.intp, count=len(self._item_slot))
            xs, ys = self._xs[live], self._ys[live]
            self._bbox = (float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max()))
            self._bbox_stale = False
        min_x, max_x, min_y, max_y = self._bbox  # type: ignore[misc]
        return math.hypot(
            max(abs(center.x - min_x), abs(center.x - max_x)),
            max(abs(center.y - min_y), abs(center.y - max_y)),
        )

    def nearest(self, center: Point, max_radius: Optional[float] = None) -> Optional[Tuple[T, float]]:
        """Return the nearest item and its distance, or ``None`` if empty.

        If ``max_radius`` is given, items farther than it are ignored.

        ``within_radius`` inspects every cell overlapping the query square, so
        as soon as it returns a non-empty result its closest entry is the
        global nearest neighbour — anything closer would also have been inside
        the same radius.  The doubling search is capped by the bounding box of
        the indexed items (maintained incrementally), so a query far outside
        the indexed area degrades to a single pass instead of growing the
        radius forever.
        """
        if not self._item_slot:
            return None
        limit = float("inf") if max_radius is None else float(max_radius)
        radius = self.cell_size
        farthest = self._farthest_possible(center)
        while True:
            effective = min(radius, limit)
            candidates = self.within_radius(center, effective)
            if candidates:
                return candidates[0]
            if effective >= limit or radius >= farthest:
                return None
            radius *= 2

    def k_nearest(self, center: Point, k: int) -> List[Tuple[T, float]]:
        """Return up to ``k`` nearest items as ``(item, distance)`` pairs."""
        if k <= 0:
            return []
        if not self._item_slot:
            return []
        # Grow the radius until at least k items are inside, then trim.
        radius = self.cell_size
        max_extent = self.cell_size * (len(self._cells) + 2) + 1.0
        while True:
            candidates = self.within_radius(center, radius)
            if len(candidates) >= k or radius > max_extent:
                break
            radius *= 2
        if len(candidates) < k:
            candidates = self._ranked_within(
                list(self._item_slot.values()), center, float("inf")
            )
        return candidates[:k]
