"""Spatial primitives: points, distances, bounding boxes, polylines and a grid index."""

from .point import Point, euclidean_distance, haversine_distance
from .bbox import BoundingBox
from .polyline import Polyline
from .grid_index import GridIndex, rank_tolerance
from .distance import (
    point_to_segment_distance,
    project_point_on_segment,
    route_length,
)

__all__ = [
    "Point",
    "euclidean_distance",
    "haversine_distance",
    "BoundingBox",
    "Polyline",
    "GridIndex",
    "rank_tolerance",
    "point_to_segment_distance",
    "project_point_on_segment",
    "route_length",
]
