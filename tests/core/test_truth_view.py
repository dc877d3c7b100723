"""Copy-on-write truth views must be indistinguishable from partitions.

``TruthDatabase.view_by_cells`` is the serving layer's shard-seeding
primitive: reads must answer exactly like a materialised
``repro.core.reference.partition_by_cells`` over the same cells (member set,
lookup tie-breaks, neighbourhood enumeration order, ``all()`` order), while
writes stay in the view and never touch the base store.
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


def _cells_of(db, count):
    cells = sorted({db.destination_cell_of(t.destination) for t in db.all()})
    return cells[:count]


class TestViewReadEquivalence:
    def test_members_and_order_match_partition(self, populated_db):
        cells = _cells_of(populated_db, 3)
        partition = partition_by_cells(populated_db, cells)
        view = populated_db.view_by_cells(cells)
        assert len(view) == len(partition)
        assert _truth_tuples(view.all()) == _truth_tuples(partition.all())

    def test_lookup_and_neighbourhood_match_partition(self, populated_db, small_network):
        cells = _cells_of(populated_db, 4)
        partition = partition_by_cells(populated_db, cells)
        view = populated_db.view_by_cells(cells)
        nodes = small_network.node_ids()
        for origin in nodes[::5]:
            for destination in nodes[::7]:
                if origin == destination:
                    continue
                query = RouteQuery(origin, destination, departure_time_s=9 * 3600.0)
                expected = partition.lookup(query)
                got = view.lookup(query)
                assert (got.truth_id if got else None) == (
                    expected.truth_id if expected else None
                )
                o = small_network.node_location(origin)
                d = small_network.node_location(destination)
                assert _truth_tuples(view.truths_near(o, d, 1_500.0)) == _truth_tuples(
                    partition.truths_near(o, d, 1_500.0)
                )

    def test_get_resolves_members_and_rejects_others(self, populated_db):
        cells = _cells_of(populated_db, 2)
        view = populated_db.view_by_cells(cells)
        partition = partition_by_cells(populated_db, cells)
        member = partition.all()[0]
        assert view.get(member.truth_id).truth_id == member.truth_id
        outside = [t for t in populated_db.all() if t.truth_id not in view._member_ids]
        assert outside, "fixture must leave truths outside the view"
        with pytest.raises(TruthStoreError):
            view.get(outside[0].truth_id)


class TestViewWrites:
    def test_records_stay_in_overlay(self, populated_db, small_network):
        cells = _cells_of(populated_db, 3)
        view = populated_db.view_by_cells(cells)
        base_before = len(populated_db)
        view_before = len(view)
        nodes = small_network.node_ids()
        path = dijkstra_path(small_network, nodes[0], nodes[-1])
        query = RouteQuery(nodes[0], nodes[-1], departure_time_s=9 * 3600.0)
        recorded = view.record(
            query, CandidateRoute(path=path, source="overlay", support=1), "test", 0.9
        )
        assert len(populated_db) == base_before  # base untouched
        assert len(view) == view_before + 1
        assert view.all()[-1].truth_id == recorded.truth_id  # appended, like a partition
        assert view.get(recorded.truth_id).verified_by == "test"
        assert view.truths_since(view_before) == [recorded]
        assert view.lookup(query).truth_id == recorded.truth_id

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


class TestViewGuards:
    def test_no_view_over_view(self, populated_db):
        cells = _cells_of(populated_db, 2)
        view = populated_db.view_by_cells(cells)
        assert isinstance(view, TruthDatabaseView)
        with pytest.raises(TruthStoreError):
            view.view_by_cells(cells)
        with pytest.raises(TruthStoreError):
            TruthDatabaseView(view, cells)
