"""Waypoint planners: uncertainty-driven shortest-path routing plus sweep and random baselines."""

from __future__ import annotations

import heapq
from enum import Enum

import numpy as np
from scipy.signal import convolve2d

from .spatial import GridSpec, Waypoint, index_to_point, point_to_index

__all__ = [
    "EDGE_FLOOR",
    "PlannerKind",
    "pick_destination",
    "min_cost_route",
    "grid_route",
    "spiral_route",
    "random_route",
]

# Lower bound on the per-edge uncertainty line integral before taking the
# reciprocal; zero-uncertainty edges stay traversable at a large finite cost.
EDGE_FLOOR = 1e-6


class PlannerKind(str, Enum):
    MIN_COST = "min_cost"
    GRID = "grid"
    SPIRAL = "spiral"
    RANDOM = "random"


def pick_destination(uncertainty, grid: GridSpec, exclude: int | None = None) -> int:
    """Grid index maximizing the 3x3 box-filtered uncertainty.

    Cells outside the grid count as zero in the filter. Ties break toward the
    lowest linear index; ``exclude`` removes one candidate (used to avoid
    replanning to the point the agent already occupies).
    """
    vals = np.asarray(uncertainty, dtype=float)
    if vals.size != grid.num_points:
        raise ValueError("uncertainty field does not match the grid")
    field = vals.reshape(grid.rows, grid.cols)
    filtered = convolve2d(field, np.ones((3, 3)), mode="same", boundary="fill", fillvalue=0.0)
    flat = filtered.ravel()
    if exclude is not None and flat.size > 1:
        flat[exclude] = -np.inf
    return int(np.argmax(flat))


# The eight king moves as (row step, column step), in ascending order of the
# neighbour's index.
_KING_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _dijkstra(grid: GridSpec, u: list[float], src: int, dst: int) -> list[int]:
    rows, cols = grid.rows, grid.cols
    # Each move's half length, so an edge's trapezoid integral is half * (u[i] + u[j]).
    moves = [
        (dr, dc, dr * cols + dc, grid.spacing * float(np.hypot(dr, dc)) * 0.5)
        for dr, dc in _KING_MOVES
    ]
    dist = {src: 0.0}
    prev: dict[int, int] = {}
    done: set[int] = set()
    heap = [(0.0, src)]  # (cost, node): equal costs pop the lowest index first
    while True:  # king moves connect every grid point, so dst is always reached
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        done.add(node)
        r, c = divmod(node, cols)
        for dr, dc, step, half in moves:
            if not (0 <= r + dr < rows and 0 <= c + dc < cols):
                continue
            nb = node + step
            if nb in done:
                continue
            nd = d + 1.0 / max(half * (u[node] + u[nb]), EDGE_FLOOR)
            if nd < dist.get(nb, np.inf):
                dist[nb] = nd
                prev[nb] = node
                heapq.heappush(heap, (nd, nb))


def min_cost_route(
    grid: GridSpec, uncertainty, start: Waypoint, destination: int
) -> list[Waypoint]:
    """Cheapest king-move walk from the grid point nearest ``start`` to ``destination``.

    Each edge costs the reciprocal of the trapezoidal uncertainty line
    integral along it (floored at EDGE_FLOOR), so routes gravitate toward
    high-uncertainty terrain. Dijkstra finds the route, walking the in-bounds
    king moves of each grid point.
    """
    if not 0 <= destination < grid.num_points:
        raise IndexError(f"destination {destination} out of range [0, {grid.num_points})")
    u = np.asarray(uncertainty, dtype=float)
    if u.size != grid.num_points:
        raise ValueError("uncertainty field does not match the grid")
    src = point_to_index(grid, (start.x, start.y))
    if src == destination:
        return [Waypoint(*index_to_point(grid, src))]
    path = _dijkstra(grid, u.tolist(), src, destination)
    return [Waypoint(*index_to_point(grid, g)) for g in path]


def grid_route(grid: GridSpec) -> list[Waypoint]:
    """Boustrophedon sweep: every row end-to-end, alternating direction."""
    wps: list[Waypoint] = []
    for r in range(grid.rows):
        cols = (0, grid.cols - 1) if r % 2 == 0 else (grid.cols - 1, 0)
        for c in cols:
            p = index_to_point(grid, r * grid.cols + c)
            wp = Waypoint(p[0], p[1])
            if not wps or wps[-1] != wp:
                wps.append(wp)
    return wps


def spiral_route(grid: GridSpec) -> list[Waypoint]:
    """Inward rectangular spiral over the grid starting at the origin corner.

    Each perimeter ring is flown once (first along the low row, then the high
    column, high row, and back down the low column), then the next ring in.
    """
    wps: list[Waypoint] = []

    def emit(r: int, c: int) -> None:
        p = index_to_point(grid, r * grid.cols + c)
        wp = Waypoint(p[0], p[1])
        if not wps or wps[-1] != wp:
            wps.append(wp)

    r_lo, r_hi = 0, grid.rows - 1
    c_lo, c_hi = 0, grid.cols - 1
    emit(r_lo, c_lo)
    while r_lo <= r_hi and c_lo <= c_hi:
        if r_lo == r_hi and c_lo == c_hi:
            break
        if r_lo == r_hi:
            emit(r_lo, c_hi)
            break
        if c_lo == c_hi:
            emit(r_hi, c_lo)
            break
        emit(r_lo, c_hi)
        emit(r_hi, c_hi)
        emit(r_hi, c_lo)
        if r_lo + 1 < r_hi:
            emit(r_lo + 1, c_lo)  # stop short of closing the ring
        r_lo += 1
        r_hi -= 1
        c_lo += 1
        c_hi -= 1
        if r_lo <= r_hi and c_lo <= c_hi:
            emit(r_lo, c_lo)
    return wps


def random_route(grid: GridSpec, rng: np.random.Generator) -> list[Waypoint]:
    """A uniform random grid point, to be flown to in a straight line."""
    p = index_to_point(grid, int(rng.integers(grid.num_points)))
    return [Waypoint(p[0], p[1])]
