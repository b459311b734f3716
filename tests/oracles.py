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


def _catmull_rom_1d(p0, p1, p2, p3, u: float):
    cubic = 3.0 * (p1 - p2) + p3 - p0
    quadratic = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
    return 0.5 * (2.0 * p1 + u * ((p2 - p0) + u * (quadratic + u * cubic)))


def catmull_rom_power(grid: GridSpec, powers, point) -> np.ndarray:
    """Separable Horner-form Catmull-Rom interpolation of each grid field at one point.

    Border cells are replicated outward; one value per row of ``powers``.
    """
    x, y = float(point[0]), float(point[1])
    fx = float(np.clip((x - grid.origin[0]) / grid.spacing, 0.0, grid.cols - 1))
    fy = float(np.clip((y - grid.origin[1]) / grid.spacing, 0.0, grid.rows - 1))
    c0 = min(int(np.floor(fx)), grid.cols - 1)
    r0 = min(int(np.floor(fy)), grid.rows - 1)
    cs = np.clip(np.arange(c0 - 1, c0 + 3), 0, grid.cols - 1)
    rs = np.clip(np.arange(r0 - 1, r0 + 3), 0, grid.rows - 1)
    out = []
    for field in np.asarray(powers, dtype=float).reshape(-1, grid.rows, grid.cols):
        patch = field[np.ix_(rs, cs)]
        rowvals = _catmull_rom_1d(patch[:, 0], patch[:, 1], patch[:, 2], patch[:, 3], fx - c0)
        out.append(_catmull_rom_1d(rowvals[0], rowvals[1], rowvals[2], rowvals[3], fy - r0))
    return np.array(out)
