"""Common interfaces for candidate-route sources."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from ..exceptions import InsufficientSupportError, RoutingError
from ..roadnet.graph import RoadNetwork
from ..spatial import Point


@dataclass(frozen=True)
class RouteQuery:
    """A route recommendation request.

    Attributes
    ----------
    origin, destination:
        Road-network node ids of the requested endpoints.
    departure_time_s:
        Departure time of day in seconds since midnight.
    max_response_time_s:
        The user-specified longest acceptable answer delay (used by worker
        selection when the request reaches the crowd module).
    """

    origin: int
    destination: int
    departure_time_s: float = 9 * 3600.0
    max_response_time_s: float = 3_600.0

    def reversed(self) -> "RouteQuery":
        """Return the same query in the opposite direction."""
        return RouteQuery(
            origin=self.destination,
            destination=self.origin,
            departure_time_s=self.departure_time_s,
            max_response_time_s=self.max_response_time_s,
        )


@dataclass(frozen=True)
class CandidateRoute:
    """A route proposed by one source for one query.

    ``path`` is the node path on the road network; ``source`` names the
    producing algorithm ("shortest", "fastest", "MPR", "LDR", "MFP", ...);
    ``support`` is the number of historical trajectories backing the route
    (0 for web-service routes); ``metadata`` carries per-source diagnostics.
    """

    path: Tuple[int, ...]
    source: str
    support: int = 0
    metadata: Dict[str, float] = field(default_factory=dict)

    def __init__(
        self,
        path: Sequence[int],
        source: str,
        support: int = 0,
        metadata: Optional[Dict[str, float]] = None,
    ):
        if len(path) < 2:
            raise RoutingError("a candidate route needs at least two nodes")
        object.__setattr__(self, "path", tuple(path))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "support", int(support))
        object.__setattr__(self, "metadata", dict(metadata or {}))
        object.__setattr__(self, "_edge_signature", None)

    @property
    def origin(self) -> int:
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]

    def length_m(self, network: RoadNetwork) -> float:
        """Geometric length of the route on ``network``."""
        return network.path_length(self.path)

    def points(self, network: RoadNetwork) -> List[Point]:
        """Intersection coordinates along the route."""
        return network.path_points(self.path)

    def edge_set(self) -> set:
        """The set of directed edges the route uses (for similarity measures)."""
        return set(self.edge_signature())

    def edge_signature(self) -> frozenset:
        """The route's directed edge set as a cached frozenset.

        Similarity is computed many times per route (agreement checks compare
        every candidate pair; confidence scoring compares every candidate
        against every nearby verified truth), so the set is built once per
        route instead of once per comparison.  The path is immutable, which
        makes the cache safe.
        """
        signature = self._edge_signature
        if signature is None:
            signature = frozenset(zip(self.path, self.path[1:]))
            object.__setattr__(self, "_edge_signature", signature)
        return signature

    def similarity_to(self, other: "CandidateRoute") -> float:
        """Jaccard similarity of the two routes' edge sets.

        1.0 means identical edge usage, 0.0 means completely disjoint.  This
        is the agreement measure the TR module uses to decide whether
        candidate routes "agree with each other to a high degree".
        """
        mine = self.edge_signature()
        theirs = other.edge_signature()
        if not mine and not theirs:
            return 1.0
        union = mine | theirs
        if not union:
            return 1.0
        return len(mine & theirs) / len(union)


class RouteSource(abc.ABC):
    """Interface of every candidate-route producer."""

    #: Human-readable name recorded on produced routes.
    name: str = "source"

    @abc.abstractmethod
    def recommend(self, query: RouteQuery) -> CandidateRoute:
        """Return this source's best route for ``query``.

        Implementations raise :class:`~repro.exceptions.RoutingError` (or a
        subclass such as ``InsufficientSupportError``) when they cannot
        produce a route.
        """

    def recommend_or_none(self, query: RouteQuery) -> Optional[CandidateRoute]:
        """Like :meth:`recommend` but returns ``None`` instead of raising."""
        try:
            return self.recommend(query)
        except RoutingError:
            return None

    def prepare_batch(self, queries: Sequence[RouteQuery]) -> None:
        """Hook called once before a batch of queries is answered.

        Sources that amortise per-state work across queries (e.g. the MPR
        miner compiling its popularity cost vector) override this; the
        default is a no-op.  Implementations must not change what
        :meth:`recommend` returns for any individual query — batching is a
        performance channel, never a semantic one.
        """


class _Refusal(NamedTuple):
    """A memoised :class:`InsufficientSupportError`: its four fields, not
    the exception, whose traceback would pin the frames that raised it."""

    origin: Any
    destination: Any
    support: int
    required: int


class OdMemo:
    """A bounded memo of one source's answers per ``(origin, destination)``.

    A source whose answer does not read the departure time computes it
    once per od pair.  Each answer is valid for a *stamp*: every piece of
    state and every parameter it was computed from (the network version,
    the trajectory store's size, the transfer network's version, ...).
    Asking with a different stamp clears the memo, so an answer computed
    before a mutation is never served after it.  An
    :class:`~repro.exceptions.InsufficientSupportError` is memoised as its
    fields and raised afresh on each hit; any other error is not memoised.
    Past ``limit`` entries the oldest is dropped: 256 pairs hold a
    hotspot's working set many times over, while traffic of distinct pairs,
    which the memo cannot help, keeps few routes alive.
    """

    def __init__(self, limit: int = 256):
        self.limit = limit
        self._stamp: Hashable = None
        self._entries: Dict[Tuple[int, int], Any] = {}

    def get(self, stamp: Hashable, query: RouteQuery, compute: Callable[[], Any]) -> Any:
        """The memoised answer for ``query``'s od pair, or ``compute()``'s."""
        entries = self._entries
        if stamp != self._stamp:
            entries.clear()
            self._stamp = stamp
        key = (query.origin, query.destination)
        entry = entries.get(key)
        if entry is None:
            try:
                entry = compute()
            except InsufficientSupportError as exc:
                entry = _Refusal(exc.origin, exc.destination, exc.support, exc.required)
            if len(entries) >= self.limit:
                del entries[next(iter(entries))]
            entries[key] = entry
        if type(entry) is _Refusal:
            raise InsufficientSupportError(*entry)
        return entry

    def clear(self) -> None:
        self._entries.clear()
