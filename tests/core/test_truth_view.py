"""Copy-on-write truth overlays must be indistinguishable from one store.

``TruthDatabase.overlay`` is the serving layer's shard-seeding primitive:
an overlay over the whole store must answer exactly like an independent
store holding the base's truths followed by the overlay's writes (member
set, lookup tie-breaks, neighbourhood enumeration order, ``all()`` order).
The oracle is ``repro.core.reference.partition_by_cells`` over every
populated destination cell — a materialised copy of the whole store — with
the overlay's writes adopted under the same ids.  Writes stay in the
overlay and never touch the base store.
"""

import pytest

from repro.config import PlannerConfig
from repro.core.reference import partition_by_cells
from repro.core.truth import TruthDatabase, TruthDatabaseView
from repro.exceptions import TruthStoreError
from repro.roadnet.shortest_path import dijkstra_path
from repro.routing.base import CandidateRoute, RouteQuery


@pytest.fixture()
def populated_db(small_network):
    """A truth store with truths spread over many destination cells."""
    db = TruthDatabase(
        small_network, PlannerConfig(truth_reuse_radius_m=250.0, truth_time_slot_minutes=60)
    )
    nodes = small_network.node_ids()
    for index in range(24):
        origin = nodes[index]
        destination = nodes[-1 - (index % 11)]
        if origin == destination:
            continue
        path = dijkstra_path(small_network, origin, destination)
        db.record(
            RouteQuery(origin, destination, departure_time_s=9 * 3600.0),
            CandidateRoute(path=path, source=f"s{index}", support=index),
            verified_by="test",
            confidence=0.5 + (index % 5) / 10.0,
        )
    return db


def _truth_tuples(truths):
    return [(t.truth_id, t.origin, t.destination, t.time_slot, t.route.path) for t in truths]


def _whole_store(db, overlay=None):
    """The oracle: a partition of ``db`` over every populated destination
    cell, with ``overlay``'s writes adopted after it in record order."""
    copy = partition_by_cells(db, {db.destination_cell_of(t.destination) for t in db.all()})
    if overlay is not None:
        for truth in overlay.truths_since(len(db)):
            copy._adopt(truth)
    return copy


def _record_some(view, network, count):
    """Overlay writes near the base's truths (same endpoints as some of
    them, so lookups and neighbourhoods meet distance ties)."""
    nodes = network.node_ids()
    for index in range(count):
        origin, destination = nodes[index * 3], nodes[-1 - index]
        view.record(
            RouteQuery(origin, destination, departure_time_s=9 * 3600.0),
            CandidateRoute(
                path=dijkstra_path(network, origin, destination), source="overlay", support=index
            ),
            "test",
            0.9,
        )


class TestViewReadEquivalence:
    def test_members_and_order_match_partition(self, populated_db, small_network):
        view = populated_db.overlay()
        assert len(view) == len(populated_db)
        assert _truth_tuples(view.all()) == _truth_tuples(_whole_store(populated_db).all())
        _record_some(view, small_network, 4)
        oracle = _whole_store(populated_db, view)
        assert len(view) == len(oracle) == len(populated_db) + 4
        assert _truth_tuples(view.all()) == _truth_tuples(oracle.all())

    def test_lookup_and_neighbourhood_match_partition(self, populated_db, small_network):
        view = populated_db.overlay()
        _record_some(view, small_network, 6)
        oracle = _whole_store(populated_db, view)
        nodes = small_network.node_ids()
        for origin in nodes[::5]:
            for destination in nodes[::7]:
                if origin == destination:
                    continue
                query = RouteQuery(origin, destination, departure_time_s=9 * 3600.0)
                expected = oracle.lookup(query)
                got = view.lookup(query)
                assert (got.truth_id if got else None) == (
                    expected.truth_id if expected else None
                )
                o = small_network.node_location(origin)
                d = small_network.node_location(destination)
                assert _truth_tuples(view.truths_near(o, d, 1_500.0)) == _truth_tuples(
                    oracle.truths_near(o, d, 1_500.0)
                )

    def test_get_resolves_members_and_rejects_others(self, populated_db, small_network):
        view = populated_db.overlay()
        _record_some(view, small_network, 1)
        for truth in view.all():
            assert truth.truth_id in view
            assert view.get(truth.truth_id) is truth
        unknown = max(t.truth_id for t in view.all()) + 1
        assert unknown not in view
        with pytest.raises(TruthStoreError):
            view.get(unknown)


class TestViewWrites:
    def test_records_stay_in_overlay(self, populated_db, small_network):
        view = populated_db.overlay()
        base_before = len(populated_db)
        view_before = len(view)
        nodes = small_network.node_ids()
        path = dijkstra_path(small_network, nodes[0], nodes[-1])
        # Slot 10: the base holds this od pair in slot 9 only.
        query = RouteQuery(nodes[0], nodes[-1], departure_time_s=10 * 3600.0)
        assert populated_db.lookup(query) is None
        recorded = view.record(
            query, CandidateRoute(path=path, source="overlay", support=1), "test", 0.9
        )
        assert len(populated_db) == base_before  # base untouched
        assert recorded.truth_id not in populated_db
        assert len(view) == view_before + 1
        assert view.all()[-1].truth_id == recorded.truth_id  # appended, like one store
        assert view.get(recorded.truth_id).verified_by == "test"
        assert view.truths_since(view_before) == [recorded]
        assert view.lookup(query).truth_id == recorded.truth_id
        assert populated_db.lookup(query) is None

    def test_overlay_ids_stay_newer_than_adopted_ids(self, populated_db, small_network):
        """After adopt_all of high parent ids, local records must be higher
        still — the id is the deterministic lookup tie-break."""
        base = TruthDatabase(small_network, populated_db.config)
        source = populated_db.all()
        base.adopt_all(source[:5])
        nodes = small_network.node_ids()
        path = dijkstra_path(small_network, nodes[1], nodes[-2])
        recorded = base.record(
            RouteQuery(nodes[1], nodes[-2], departure_time_s=9 * 3600.0),
            CandidateRoute(path=path, source="local", support=1),
            "test",
            0.8,
        )
        assert recorded.truth_id > max(t.truth_id for t in source[:5])

    def test_adopt_all_rejects_duplicates(self, populated_db, small_network):
        base = TruthDatabase(small_network, populated_db.config)
        truths = populated_db.all()[:2]
        base.adopt_all(truths)
        with pytest.raises(TruthStoreError):
            base.adopt_all(truths[:1])
        # An overlay rejects the ids its base already holds.
        with pytest.raises(TruthStoreError):
            base.overlay().adopt_all(truths[:1])


class TestViewGuards:
    def test_no_view_over_view(self, populated_db):
        view = populated_db.overlay()
        assert isinstance(view, TruthDatabaseView)
        with pytest.raises(TruthStoreError):
            view.overlay()
        with pytest.raises(TruthStoreError):
            TruthDatabaseView(view)
