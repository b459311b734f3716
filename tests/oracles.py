"""Reference computations shared by the test modules."""

import numpy as np

from aerosurvey import planner
from aerosurvey.spatial import GridSpec, Waypoint, point_to_index


def route_cost(grid: GridSpec, u, waypoints: list[Waypoint]) -> float:
    """Total reciprocal-integral cost of a grid-point waypoint sequence."""
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    total = 0.0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        i = point_to_index(grid, (a.x, a.y))
        j = point_to_index(grid, (b.x, b.y))
        total += planner._edge_cost(vals, grid, i, j)
    return total
