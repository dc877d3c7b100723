"""Verified-truth database and truth reuse (Section II-B1).

Once a best route between two places (at a departure-time slot) has been
verified — either because the candidate sources strongly agreed or because
the crowd voted — it is stored as a :class:`VerifiedTruth`.  Subsequent
requests whose endpoints fall within the reuse radius of a stored truth and
whose departure time falls in the same time slot are answered immediately,
which is the main lever the paper uses to keep crowdsourcing cost down.

A lookup depends only on the query's origin node, destination node and time
slot and on the store's contents, so every store memoises its answers per
``(origin, destination, slot)`` key and clears the memo on every insert.
The unmemoised scan is preserved as
:func:`repro.core.reference.lookup_reference`, the memo's oracle.

Serving shards read the store through a copy-on-write overlay over the whole
store (:meth:`TruthDatabase.overlay`); every truth a shard's queries could
match is in it by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..exceptions import TruthStoreError
from ..roadnet.graph import RoadNetwork
from ..routing.base import CandidateRoute, RouteQuery
from ..spatial import GridIndex, Point

class _TruthIdSequence:
    """Process-global truth-id sequence.

    Unlike a bare :func:`itertools.count`, the sequence can be advanced past
    externally issued ids: when a serving worker adopts truths merged by the
    parent process (:meth:`TruthDatabase.adopt_all`), its local sequence must
    jump past the adopted ids so locally recorded truths keep the sequential
    invariant "newer truth => larger id" — the id is the deterministic
    tie-break of :meth:`TruthDatabase.lookup`.  It is the only source of
    truth ids: a shard clone records its truths in submission order
    (:func:`repro.serving.shards.execute_shard`).
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    def advance_past(self, value: int) -> None:
        """Ensure the next issued id is strictly greater than ``value``."""
        if value >= self._next:
            self._next = value + 1


_truth_ids = _TruthIdSequence()


@dataclass(frozen=True)
class VerifiedTruth:
    """A verified best route between two places for one departure-time slot."""

    truth_id: int
    origin: Point
    destination: Point
    time_slot: int
    route: CandidateRoute
    verified_by: str
    confidence: float

    @property
    def source(self) -> str:
        return self.route.source


class TruthDatabase:
    """Stores verified truths and answers reuse lookups."""

    def __init__(self, network: RoadNetwork, config: PlannerConfig = DEFAULT_CONFIG):
        self.network = network
        self.config = config
        self._truths: Dict[int, VerifiedTruth] = {}
        cell_size = max(200.0, config.truth_reuse_radius_m)
        self._origin_index: GridIndex[int] = GridIndex(cell_size=cell_size)
        # Second index over destinations: od lookups intersect the two radius
        # queries instead of scanning every origin match with a Python-level
        # distance check.
        self._destination_index: GridIndex[int] = GridIndex(cell_size=cell_size)
        # ``(origin node, destination node, slot) -> (origin distance,
        # truth)`` or ``None``: every lookup answered since the last insert.
        self._memo: Dict[Tuple[int, int, int], Optional[Tuple[float, VerifiedTruth]]] = {}

    def __len__(self) -> int:
        return len(self._truths)

    def __contains__(self, truth_id: int) -> bool:
        """Whether a truth with this id is stored (journal replay uses this
        to skip records that were already adopted, making replay idempotent)."""
        return truth_id in self._truths

    @property
    def reuse_cell_size_m(self) -> float:
        """Grid cell size of the endpoint indexes (floored reuse radius).

        Batch planning quantises od-pairs at this resolution so its groups
        stay aligned with the truth store's spatial granularity.
        """
        return self._origin_index.cell_size

    # ------------------------------------------------------------------ time
    def time_slot_of(self, departure_time_s: float) -> int:
        """Map a departure time to its slot index."""
        slot_width_s = self.config.truth_time_slot_minutes * 60
        return int((departure_time_s % (24 * 3600)) // slot_width_s)

    # ----------------------------------------------------------------- write
    def record(
        self,
        query: RouteQuery,
        route: CandidateRoute,
        verified_by: str,
        confidence: float,
    ) -> VerifiedTruth:
        """Store a verified truth for ``query``."""
        if not 0.0 <= confidence <= 1.0:
            raise TruthStoreError("confidence must be in [0, 1]")
        truth = VerifiedTruth(
            truth_id=_truth_ids.next(),
            origin=self.network.node_location(query.origin),
            destination=self.network.node_location(query.destination),
            time_slot=self.time_slot_of(query.departure_time_s),
            route=route,
            verified_by=verified_by,
            confidence=confidence,
        )
        self._adopt(truth)
        return truth

    def _adopt(self, truth: VerifiedTruth) -> None:
        """Insert an already-built truth, keeping its id — the one insert
        path behind :meth:`record`, :meth:`absorb` and :meth:`adopt_all`.
        Any insert may change any memoised answer, so it clears the memo."""
        self._memo.clear()
        self._truths[truth.truth_id] = truth
        self._origin_index.insert(truth.truth_id, truth.origin)
        self._destination_index.insert(truth.truth_id, truth.destination)

    # ---------------------------------------------------------------- overlay
    def destination_cell_of(self, point: Point) -> Tuple[int, int]:
        """The destination-index grid cell ``point`` falls in."""
        return self._destination_index.cell_of(point)

    def overlay(self) -> "TruthDatabaseView":
        """A copy-on-write overlay over this whole store, built in O(1).

        The serving layer's shard-seeding primitive, the counterpart of
        :meth:`~repro.core.worker.WorkerPool.overlay`: reads see this store
        plus the overlay's writes (:meth:`record`), which never reach this
        store; merge them back explicitly with :meth:`absorb`.  This store
        must not be mutated while the overlay is live.
        """
        return TruthDatabaseView(self)

    def absorb(self, truths: Iterable[VerifiedTruth]) -> List[VerifiedTruth]:
        """Merge truths recorded by shard clones back, assigning fresh ids.

        ``truths`` must be ordered the way a sequential run would have
        recorded them (the serving engine orders them by query submission
        position); each is re-issued under this store's id sequence so the
        merged store is indistinguishable — up to the process-local id values
        themselves — from one that recorded the batch sequentially.
        """
        merged: List[VerifiedTruth] = []
        for truth in truths:
            renumbered = VerifiedTruth(
                truth_id=_truth_ids.next(),
                origin=truth.origin,
                destination=truth.destination,
                time_slot=truth.time_slot,
                route=truth.route,
                verified_by=truth.verified_by,
                confidence=truth.confidence,
            )
            self._adopt(renumbered)
            merged.append(renumbered)
        return merged

    def adopt_all(self, truths) -> None:
        """Adopt already-issued truths *keeping their ids* (delta import hook).

        This is the receiving end of the serving layer's truth streaming: a
        pool worker applies the parent's merged deltas to its warm base store
        so later batches observe them exactly as the parent does.  Ids are
        preserved (they are the lookup tie-break, so relative order must
        match the parent) and the process-local id sequence is advanced past
        them, keeping locally recorded truths strictly newer.

        ``truths`` is any iterable of :class:`VerifiedTruth` — or a columnar
        :class:`~repro.serving.protocol.TruthDeltaBlock`, which is decoded
        against this store's own network (duck-typed via ``decode_truths``
        so the core layer needs no serving import).
        """
        decode = getattr(truths, "decode_truths", None)
        if decode is not None:
            truths = decode(self.network)
        for truth in truths:
            if truth.truth_id in self:
                raise TruthStoreError(f"truth id {truth.truth_id} already present")
            self._adopt(truth)
            _truth_ids.advance_past(truth.truth_id)

    # ------------------------------------------------------------------ read
    def get(self, truth_id: int) -> VerifiedTruth:
        try:
            return self._truths[truth_id]
        except KeyError:
            raise TruthStoreError(f"unknown truth id {truth_id}") from None

    def all(self) -> List[VerifiedTruth]:
        return list(self._truths.values())

    def truths_since(self, position: int) -> List[VerifiedTruth]:
        """Truths recorded/absorbed after the first ``position`` (delta export).

        ``position`` is a cursor previously captured as ``len(store)``;
        record order is stable and truths are never removed, so the slice is
        exactly what a consumer synced at ``position`` is missing.
        """
        if position <= 0:
            return self.all()
        if position >= len(self._truths):
            return []  # the common already-synced case: no O(store) walk
        return list(itertools.islice(self._truths.values(), position, None))

    # The two match helpers are the only spatial read primitives ``lookup``
    # and ``truths_near`` consume; :class:`TruthDatabaseView` overrides them
    # (plus ``_truth_by_id``) to serve base + overlay reads.
    def _origin_matches(self, point: Point, radius_m: float) -> List[Tuple[int, float]]:
        """``(truth_id, distance)`` with origin within ``radius_m``, ranked
        by increasing distance with record-order tie-breaking."""
        return self._origin_index.within_radius(point, radius_m)

    def _destination_matches(self, point: Point, radius_m: float) -> List[Tuple[int, float]]:
        """``(truth_id, distance)`` with destination within ``radius_m``,
        ranked like :meth:`_origin_matches`."""
        return self._destination_index.within_radius(point, radius_m)

    def _truth_by_id(self, truth_id: int) -> VerifiedTruth:
        return self._truths[truth_id]

    def lookup(self, query: RouteQuery) -> Optional[VerifiedTruth]:
        """Return a reusable truth for ``query`` or ``None``.

        A truth is reusable when both endpoints are within the reuse radius
        and the departure-time slot matches.  The closest-origin match wins,
        the smaller truth id breaking distance ties.  The answer is
        memoised per ``(origin, destination, slot)`` until the next insert,
        so a repeated key costs one dict lookup (see :meth:`match`).
        """
        found = self.match(query)
        return None if found is None else found[1]

    def match(self, query: RouteQuery) -> Optional[Tuple[float, VerifiedTruth]]:
        """:meth:`lookup`'s answer with its origin distance, or ``None``.

        The distance is the one the ranking used; the serving layer's settle
        pass (:meth:`~repro.core.planner.CrowdPlanner.settled_hits`)
        compares it with the truths a window will write.
        """
        slot = self.time_slot_of(query.departure_time_s)
        key = (query.origin, query.destination, slot)
        memo = self._memo
        if key in memo:
            return memo[key]
        origin = self.network.node_location(query.origin)
        destination = self.network.node_location(query.destination)
        radius = self.config.truth_reuse_radius_m
        near_destination = {
            truth_id for truth_id, _ in self._destination_matches(destination, radius)
        }
        best: Optional[Tuple[float, VerifiedTruth]] = None
        for truth_id, origin_distance in self._origin_matches(origin, radius):
            if truth_id not in near_destination:
                continue
            truth = self._truth_by_id(truth_id)
            if truth.time_slot != slot:
                continue
            if best is None or (origin_distance, truth_id) < (best[0], best[1].truth_id):
                best = (origin_distance, truth)
        memo[key] = best
        return best

    def truths_near(
        self,
        origin: Point,
        destination: Point,
        radius_m: float,
        time_slot: Optional[int] = None,
    ) -> List[VerifiedTruth]:
        """Truths whose endpoints are within ``radius_m`` of the given points.

        Used by the route-evaluation component to compute confidence scores
        from previously verified knowledge in the neighbourhood.  Both
        endpoint conditions are grid-index radius queries (the index's
        boundary decisions agree exactly with ``Point.distance_to``), so the
        result — still ranked by origin distance — matches the former
        per-truth Python distance filter.
        """
        near_destination = {
            truth_id for truth_id, _ in self._destination_matches(destination, radius_m)
        }
        results = []
        for truth_id, _ in self._origin_matches(origin, radius_m):
            if truth_id not in near_destination:
                continue
            truth = self._truth_by_id(truth_id)
            if time_slot is not None and truth.time_slot != time_slot:
                continue
            results.append(truth)
        return results

    def hit_rate(self, hits: int, total: int) -> float:
        """Convenience: fraction of requests served from the truth store."""
        if total <= 0:
            return 0.0
        return hits / total


def _merge_ranked(
    primary: List[Tuple[int, float]], secondary: List[Tuple[int, float]]
) -> List[Tuple[int, float]]:
    """Merge two distance-ranked match lists, primary winning distance ties.

    Both inputs are sorted by increasing distance with record-order
    tie-breaking; every primary (base) truth was recorded before any
    secondary (overlay) truth, so at equal distance the primary entry
    enumerates first.  A stable two-way merge reproduces the enumeration of
    one store holding both.
    """
    if not secondary:
        return primary
    if not primary:
        return secondary
    merged: List[Tuple[int, float]] = []
    i = j = 0
    while i < len(primary) and j < len(secondary):
        if secondary[j][1] < primary[i][1]:
            merged.append(secondary[j])
            j += 1
        else:
            merged.append(primary[i])
            i += 1
    merged.extend(primary[i:])
    merged.extend(secondary[j:])
    return merged


class TruthDatabaseView(TruthDatabase):
    """Copy-on-write overlay over a whole :class:`TruthDatabase`
    (:meth:`TruthDatabase.overlay`).

    Reads see every base truth plus everything recorded through the view;
    writes go only to the structures inherited from :class:`TruthDatabase`,
    so the base is never touched.  ``lookup``, ``truths_near``, ``all()``
    order and ``len`` answer like one store holding the base's truths and
    then the view's.  The base must stay unmutated while the view is live,
    and there are no views over views.  A view keeps its own lookup memo,
    cleared by every overlay write (:meth:`_adopt`).
    """

    def __init__(self, base: TruthDatabase):
        if isinstance(base, TruthDatabaseView):
            raise TruthStoreError("cannot build a view over a view; use the base store")
        super().__init__(base.network, base.config)
        self._base = base

    # ------------------------------------------------------------- overrides
    def __len__(self) -> int:
        return len(self._base) + len(self._truths)

    def __contains__(self, truth_id: int) -> bool:
        return truth_id in self._truths or truth_id in self._base

    def all(self) -> List[VerifiedTruth]:
        return self._base.all() + list(self._truths.values())

    def truths_since(self, position: int) -> List[VerifiedTruth]:
        overlay_start = max(position - len(self._base), 0)
        return self._base.truths_since(position) + list(
            itertools.islice(self._truths.values(), overlay_start, None)
        )

    def get(self, truth_id: int) -> VerifiedTruth:
        truth = self._truths.get(truth_id)
        return self._base.get(truth_id) if truth is None else truth

    _truth_by_id = get

    def _origin_matches(self, point: Point, radius_m: float) -> List[Tuple[int, float]]:
        return _merge_ranked(
            self._base._origin_matches(point, radius_m),
            self._origin_index.within_radius(point, radius_m),
        )

    def _destination_matches(self, point: Point, radius_m: float) -> List[Tuple[int, float]]:
        return _merge_ranked(
            self._base._destination_matches(point, radius_m),
            self._destination_index.within_radius(point, radius_m),
        )
