"""The memoised truth lookup and the settle pass built on it.

``TruthDatabase.lookup`` memoises its answer per (origin, destination,
slot) and clears the memo on every insert; it must answer exactly like the
unmemoised scan (``repro.core.reference.lookup_reference``) under any
interleaving of writes, on base stores and on overlays.  ``CrowdPlanner.
settled_hits`` must only settle a query whose sequential answer is the
stored truth it names.  Both run on a tie-heavy city: nodes on an exact
100 m lattice, with reuse radii at lattice distances, so equal origin
distances and on-the-boundary matches are everywhere.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlannerConfig
from repro.core.planner import CrowdPlanner
from repro.core.reference import lookup_reference
from repro.core.truth import TruthDatabase
from repro.core.worker import WorkerPool
from repro.roadnet.graph import RoadClass, RoadEdge, RoadNetwork, RoadNode
from repro.routing.base import CandidateRoute, RouteQuery, RouteSource
from repro.serving import recommendation_fingerprint
from repro.spatial import Point

SIDE = 6
SPACING = 100.0
#: Lattice distances: every radius sits exactly on some node pairs.
RADII = (100.0, math.hypot(100.0, 100.0), 200.0, math.hypot(200.0, 100.0))
#: 9:00 and 9:30 share slot 9 of 60-minute slots; 10:00 is slot 10.
DEPARTURES = (9 * 3600.0, 9.5 * 3600.0, 10 * 3600.0)


def _lattice(points=None) -> RoadNetwork:
    """Nodes at ``points`` (default: a SIDE x SIDE lattice), chained by edges."""
    if points is None:
        points = [(x * SPACING, y * SPACING) for y in range(SIDE) for x in range(SIDE)]
    network = RoadNetwork(index_cell_size=SPACING)
    for node_id, (x, y) in enumerate(points):
        network.add_node(RoadNode(node_id, Point(x, y)))
    for node_id in range(1, len(points)):
        network.add_edge(
            RoadEdge(node_id - 1, node_id, SPACING, RoadClass.LOCAL), bidirectional=True
        )
    return network


LATTICE = _lattice()


class DirectSource(RouteSource):
    """One candidate per query, so every miss is a ``single_candidate``
    answer that records one truth: the sequential oracle at no routing
    cost."""

    name = "direct"

    def recommend(self, query):
        return CandidateRoute(path=(query.origin, query.destination), source=self.name)


def _planner(network, radius) -> CrowdPlanner:
    config = PlannerConfig(truth_reuse_radius_m=radius, truth_time_slot_minutes=60)
    return CrowdPlanner(network, None, None, [DirectSource()], WorkerPool(), config=config)


node = st.integers(min_value=0, max_value=SIDE * SIDE - 1)
query = st.builds(
    lambda origin, destination, departure: RouteQuery(origin, destination, departure),
    node,
    node,
    st.sampled_from(DEPARTURES),
).filter(lambda q: q.origin != q.destination)


def _record(store, q):
    return store.record(q, CandidateRoute((q.origin, q.destination), "t"), "test", 0.5)


def _same(store, q):
    got, expected = store.lookup(q), lookup_reference(store, q)
    assert (got and got.truth_id) == (expected and expected.truth_id)


operation = st.one_of(
    st.tuples(st.just("record"), query),
    st.tuples(st.just("absorb"), st.lists(query, min_size=1, max_size=3)),
    st.tuples(st.just("adopt_all"), st.lists(query, min_size=1, max_size=3)),
    st.tuples(st.just("lookup"), query),
)


def _apply(store, operations):
    for kind, argument in operations:
        if kind == "record":
            _record(store, argument)
        elif kind == "lookup":
            _same(store, argument)
            _same(store, argument)  # the second call is a memo hit
        else:
            # Truths written elsewhere: absorb renumbers them, adopt_all
            # keeps their (newer) ids.
            side = TruthDatabase(store.network, store.config)
            written = [_record(side, q) for q in argument]
            getattr(store, kind)(written)


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(
    radius=st.sampled_from(RADII),
    operations=st.lists(operation, max_size=25),
    view_operations=st.lists(operation, max_size=12),
    probes=st.lists(query, min_size=1, max_size=8),
)
def test_memoised_lookup_equals_reference_scan(radius, operations, view_operations, probes):
    config = PlannerConfig(truth_reuse_radius_m=radius, truth_time_slot_minutes=60)
    store = TruthDatabase(LATTICE, config)
    _apply(store, operations)
    for q in probes:
        _same(store, q)
    view = store.overlay()
    for q in probes:
        _same(view, q)
    _apply(view, view_operations)
    for q in probes:
        _same(view, q)
        _same(store, q)  # the base, and its memo, saw none of the view's writes


def test_lookup_answers_repeated_key_from_memo_until_an_insert():
    store = TruthDatabase(LATTICE, PlannerConfig(truth_reuse_radius_m=200.0))
    q = RouteQuery(7, 28)
    first = _record(store, q)
    assert store.lookup(q) is first
    assert store.match(q) is store.match(q)  # one memo entry, answered twice
    newer = _record(store, RouteQuery(7, 28))
    # Same endpoints, newer id: the older truth still wins the tie.
    assert store.lookup(q) is first and newer.truth_id > first.truth_id
    assert store.match(RouteQuery(7, 28, 10 * 3600.0)) is None


batch = st.lists(query, min_size=1, max_size=8)


@pytest.mark.property
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    radius=st.sampled_from(RADII),
    history=st.lists(query, max_size=20),
    window=st.lists(
        st.one_of(batch, st.tuples(st.integers(0, 19), st.integers(1, 8))),
        min_size=1,
        max_size=4,
    ),
)
def test_settled_queries_answer_as_the_sequential_oracle(radius, history, window):
    """Windows of fresh batches, repeats of the history and both mixed: a
    settled query's oracle answer is the truth reuse ``settled_hits`` named."""
    planner = _planner(LATTICE, radius)
    planner.recommend_batch(history)
    batches = []
    for drawn in window:
        if isinstance(drawn, tuple):  # a repeat of a slice of the history
            start, size = drawn
            start %= max(len(history), 1)
            drawn = history[start : start + size] or [RouteQuery(0, 1)]
        batches.append(drawn)
    settled = planner.settled_hits(batches)
    for queries, hits in zip(batches, settled):
        results = planner.recommend_batch(queries)
        for index, result in hits.items():
            assert result.method == "truth_reuse"
            assert recommendation_fingerprint(result) == recommendation_fingerprint(
                results[index]
            )
    if history and all(isinstance(drawn, tuple) for drawn in window):
        # A pure repeat writes nothing, so every query of it settles.
        assert sum(map(len, settled)) == sum(map(len, batches))


class TestTies:
    """One slot, reuse radius 250 m.  The query starts at the origin; the
    stored truth ``T`` starts 200 m east of it; an earlier query of the same
    window, too far from ``T`` to reuse it, writes a truth that starts west
    of the query's origin."""

    R = 200.0

    def _settle(self, miss_x):
        # Nodes: 0 query origin, 1 T's origin, 2 the miss's origin, 3 the
        # shared destination.
        network = _lattice([(0.0, 0.0), (self.R, 0.0), (miss_x, 0.0), (0.0, 2_000.0)])
        planner = _planner(network, 250.0)
        planner.recommend(RouteQuery(1, 3))  # stores T
        miss, probe = RouteQuery(2, 3), RouteQuery(0, 3)
        assert planner.truths.lookup(miss) is None
        (hits,) = planner.settled_hits([[miss, probe]])
        oracle = planner.recommend_batch([miss, probe])
        return hits, oracle

    def test_closer_pending_write_blocks_settling(self):
        hits, oracle = self._settle(-self.R / 2)
        assert hits == {}
        # The oracle answers from the miss's newer, closer truth.
        assert oracle[0].method == "single_candidate"
        assert oracle[1].route.path == (2, 3)

    def test_equal_distance_pending_write_blocks_settling(self):
        """The tie rule is conservative: the miss's truth ties with ``T`` and
        loses on id, so the oracle answers ``T``, but settling is left to the
        dispatched path."""
        hits, oracle = self._settle(-self.R)
        assert hits == {}
        assert oracle[1].route.path == (1, 3)
