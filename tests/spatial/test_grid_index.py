"""Tests for repro.spatial.grid_index, including a property-based check
against a brute-force linear scan."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SpatialError
from repro.spatial import GridIndex, Point

coord = st.floats(min_value=-5_000, max_value=5_000, allow_nan=False)
point_list = st.lists(st.tuples(coord, coord), min_size=1, max_size=40, unique=True)


class TestBasicOperations:
    def test_invalid_cell_size(self):
        with pytest.raises(SpatialError):
            GridIndex(cell_size=0)

    def test_non_finite_cell_size_rejected(self):
        """A NaN cell size constructed, then its first insert raised a raw
        ``ValueError`` converting the NaN cell to an integer."""
        for cell_size in (math.nan, math.inf):
            with pytest.raises(SpatialError):
                GridIndex(cell_size=cell_size)

    def test_non_finite_radius_rejected(self):
        """An infinite radius reached ``int(inf)`` and raised a raw
        ``OverflowError``."""
        index = GridIndex(cell_size=100)
        index.insert("a", Point(0, 0))
        for radius in (math.nan, math.inf):
            with pytest.raises(SpatialError):
                index.within_radius(Point(0, 0), radius)

    def test_insert_and_contains(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(0, 0))
        assert "a" in index
        assert len(index) == 1
        assert index.location_of("a") == Point(0, 0)

    def test_reinsert_moves_item(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(0, 0))
        index.insert("a", Point(500, 500))
        assert len(index) == 1
        assert index.location_of("a") == Point(500, 500)

    def test_remove(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(0, 0))
        index.remove("a")
        assert "a" not in index
        with pytest.raises(KeyError):
            index.remove("a")

    def test_insert_many_and_items(self):
        index = GridIndex(cell_size=100)
        index.insert_many([("a", Point(0, 0)), ("b", Point(10, 10))])
        assert sorted(index.items()) == ["a", "b"]


class TestQueries:
    def test_within_radius_sorted_by_distance(self):
        index = GridIndex(cell_size=50)
        index.insert("near", Point(10, 0))
        index.insert("far", Point(90, 0))
        index.insert("outside", Point(500, 0))
        results = index.within_radius(Point(0, 0), 100)
        assert [item for item, _ in results] == ["near", "far"]

    def test_within_radius_negative_raises(self):
        with pytest.raises(SpatialError):
            GridIndex().within_radius(Point(0, 0), -1)

    def test_nearest_empty_index(self):
        assert GridIndex().nearest(Point(0, 0)) is None

    def test_nearest_respects_max_radius(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(1000, 0))
        assert index.nearest(Point(0, 0), max_radius=500) is None
        assert index.nearest(Point(0, 0), max_radius=2000)[0] == "a"

    def test_nearest_far_query_point(self):
        index = GridIndex(cell_size=10)
        index.insert("a", Point(0, 0))
        item, distance = index.nearest(Point(10_000, 10_000))
        assert item == "a"
        assert distance == pytest.approx(Point(10_000, 10_000).distance_to(Point(0, 0)))

    def test_k_nearest_returns_k_items(self):
        index = GridIndex(cell_size=100)
        for i in range(10):
            index.insert(i, Point(i * 50, 0))
        result = index.k_nearest(Point(0, 0), 3)
        assert [item for item, _ in result] == [0, 1, 2]

    def test_k_nearest_k_larger_than_population(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(0, 0))
        assert len(index.k_nearest(Point(0, 0), 5)) == 1

    def test_k_nearest_zero(self):
        assert GridIndex().k_nearest(Point(0, 0), 0) == []


class TestDeterministicTieBreaking:
    def test_equidistant_items_rank_by_insertion_order(self):
        index = GridIndex(cell_size=100)
        # Four items at the same distance from the query, inserted in an
        # order that differs from their lexicographic order.
        index.insert("zz", Point(10, 0))
        index.insert("aa", Point(-10, 0))
        index.insert("mm", Point(0, 10))
        index.insert("bb", Point(0, -10))
        results = index.within_radius(Point(0, 0), 50)
        assert [item for item, _ in results] == ["zz", "aa", "mm", "bb"]

    def test_reinsertion_moves_item_to_back_of_ties(self):
        index = GridIndex(cell_size=100)
        index.insert("a", Point(10, 0))
        index.insert("b", Point(0, 10))
        index.insert("a", Point(-10, 0))  # move: now younger than "b"
        results = index.within_radius(Point(0, 0), 50)
        assert [item for item, _ in results] == ["b", "a"]

    def test_unorderable_items_are_supported(self):
        # The former tie-break on str(item) was deterministic but allocated a
        # string per pair; insertion-order ranking must handle items whose
        # repr is unstable (default object repr embeds the address).
        index = GridIndex(cell_size=100)
        first, second = object(), object()
        index.insert(first, Point(10, 0))
        index.insert(second, Point(-10, 0))
        results = index.within_radius(Point(0, 0), 50)
        assert [item for item, _ in results] == [first, second]


class TestChurn:
    def test_heavy_insert_remove_churn_stays_correct_and_compact(self):
        index = GridIndex(cell_size=137.0)
        live = {}
        for i in range(3000):
            name = f"p{i % 200}"  # constant rotation of 200 identities
            location = Point((i * 37) % 1000, (i * 91) % 1000)
            index.insert(name, location)
            live[name] = location
            if i % 3 == 2:
                victim = f"p{(i - 2) % 200}"
                if victim in index:
                    index.remove(victim)
                    del live[victim]
        assert len(index) == len(live)
        # Tombstoned slots must be compacted away, not accumulate forever.
        assert len(index._slot_item) <= max(64, 2 * len(live)) * 2
        query = Point(500, 500)
        expected = {n for n, p in live.items() if query.distance_to(p) <= 300.0}
        assert {item for item, _ in index.within_radius(query, 300.0)} == expected
        nearest_item, _ = index.nearest(query)
        assert nearest_item == min(live, key=lambda n: (query.distance_to(live[n]), n)) or (
            query.distance_to(live[nearest_item])
            == min(query.distance_to(p) for p in live.values())
        )


class TestAgainstLinearScan:
    pytestmark = [pytest.mark.property]

    @given(point_list, coord, coord)
    @settings(max_examples=50, deadline=None)
    def test_nearest_matches_linear_scan(self, raw_points, qx, qy):
        index = GridIndex(cell_size=137.0)
        points = {f"p{i}": Point(x, y) for i, (x, y) in enumerate(raw_points)}
        index.insert_many(points.items())
        query = Point(qx, qy)
        expected_distance = min(query.distance_to(p) for p in points.values())
        item, distance = index.nearest(query)
        assert distance == pytest.approx(expected_distance)
        assert query.distance_to(points[item]) == pytest.approx(expected_distance)

    @given(point_list, coord, coord, st.floats(min_value=0, max_value=2_000))
    @settings(max_examples=50, deadline=None)
    def test_within_radius_matches_linear_scan(self, raw_points, qx, qy, radius):
        index = GridIndex(cell_size=211.0)
        points = {f"p{i}": Point(x, y) for i, (x, y) in enumerate(raw_points)}
        index.insert_many(points.items())
        query = Point(qx, qy)
        expected = {name for name, p in points.items() if query.distance_to(p) <= radius}
        got = {item for item, _ in index.within_radius(query, radius)}
        assert got == expected
