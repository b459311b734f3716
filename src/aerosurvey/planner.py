"""Waypoint planners: uncertainty-driven shortest-path routing plus sweep and random baselines."""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from enum import Enum

import numpy as np

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


# The nine (row, column) offsets of the 3x3 box in the order
# scipy.signal.convolve2d adds them up, from (+1, +1) down to (-1, -1).
# Floating-point addition is not associative, so this order is what makes the
# box sum equal convolve2d's bit for bit, ties in the argmax included.
_BOX_OFFSETS = tuple((dr, dc) for dr in (1, 0, -1) for dc in (1, 0, -1))


def _box_sum(field: np.ndarray) -> np.ndarray:
    """3x3 box sum of a 2-D field, cells outside the grid counting as zero."""
    rows, cols = field.shape
    # Flatten the field with a zero border and two trailing zeros. In that
    # layout the cells one offset adds to every output cell form a single
    # contiguous run of rows * stride values, so each term is one 1-D add.
    # The two border columns of each output row are junk, dropped at the end.
    stride = cols + 2
    size = rows * stride
    padded = np.zeros((rows + 2) * stride + 2)
    # Adding the field into zeros turns -0.0 into +0.0, as convolve2d's sums
    # from zero do.
    interior = padded[stride + 1 : stride + 1 + size].reshape(rows, stride)[:, :cols]
    interior += field
    first, second, *rest = [(1 + dr) * stride + 1 + dc for dr, dc in _BOX_OFFSETS]
    acc = padded[first : first + size] + padded[second : second + size]
    for start in rest:
        acc += padded[start : start + size]
    return acc.reshape(rows, stride)[:, :cols]


def _finite_field(uncertainty, grid: GridSpec) -> np.ndarray:
    """``uncertainty`` as a float array of one value per grid point, all finite."""
    vals = np.asarray(uncertainty, dtype=float)
    if vals.size != grid.num_points:
        raise ValueError("uncertainty field does not match the grid")
    finite = np.isfinite(vals).ravel()
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"uncertainty field must be finite; it holds {vals.flat[bad]} at grid index {bad}")
    return vals


def pick_destination(uncertainty, grid: GridSpec, exclude: int | None = None) -> int:
    """Grid index maximizing the 3x3 box-filtered uncertainty.

    Cells outside the grid count as zero in the filter. Ties break toward the
    lowest linear index; ``exclude`` removes one candidate (used to avoid
    replanning to the point the agent already occupies) and must be a grid
    index. A field holding nan or an infinity is rejected.
    """
    vals = _finite_field(uncertainty, grid)
    if exclude is not None and not 0 <= exclude < grid.num_points:
        raise IndexError(f"exclude {exclude} out of range [0, {grid.num_points})")
    flat = _box_sum(vals.reshape(grid.rows, grid.cols)).ravel()
    if exclude is not None and flat.size > 1:
        flat[exclude] = -np.inf
    return int(np.argmax(flat))


# The eight king moves as (row step, column step), in ascending order of the
# neighbour's index.
_KING_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@functools.lru_cache(maxsize=4)
def _route_layout(grid: GridSpec) -> tuple[int, tuple[tuple[int, float], ...], bytes]:
    """The grid framed by a border one node wide, as the router walks it, from a cache of four.

    Grid node (r, c) is node ``(r + 1) * stride + c + 1`` of the frame, with
    ``stride = cols + 2``. Returns the stride, the eight king moves as
    (index step, half the move's length) in ``_KING_MOVES`` order, and the
    frame's initial done flags: 1 on the border, 0 inside. Every neighbour of a
    grid node is then a frame node, and the border ones are never entered,
    so no move needs a bounds check. Frame indices rise with grid indices, so
    equal costs still pop the lowest grid index first.
    """
    stride = grid.cols + 2
    moves = tuple((dr * stride + dc, grid.spacing * float(np.hypot(dr, dc)) * 0.5) for dr, dc in _KING_MOVES)
    done = bytearray(b"\x01") * ((grid.rows + 2) * stride)
    for r in range(1, grid.rows + 1):
        done[r * stride + 1 : r * stride + 1 + grid.cols] = bytes(grid.cols)
    return stride, moves, bytes(done)


def _dijkstra(grid: GridSpec, u: np.ndarray, src: int, dst: int) -> list[int]:
    """Grid indices of the cheapest king-move walk from ``src`` to ``dst`` over the field ``u``."""
    stride, moves, border = _route_layout(grid)
    rows, cols = grid.rows, grid.cols
    # The field in the frame; the border's zeros are never read.
    framed = np.zeros((rows + 2, stride))
    framed[1:-1, 1:-1] = u.reshape(rows, cols)
    uf = framed.ravel().tolist()
    start = src + 2 * (src // cols) + stride + 1
    goal = dst + 2 * (dst // cols) + stride + 1
    # Flat typed arrays hold one slot per frame node, so the search allocates
    # only its heap entries, however far it explores.
    dist = array("d", [math.inf]) * len(border)
    dist[start] = 0.0
    prev = array("q", [0]) * len(border)
    done = bytearray(border)
    heap = [(0.0, start)]  # (cost, node): equal costs pop the lowest index first
    pop, push, floor = heapq.heappop, heapq.heappush, EDGE_FLOOR
    while True:  # king moves connect every grid point, so dst is always reached
        d, node = pop(heap)
        if done[node]:
            continue
        if node == goal:
            path = [goal]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return [(p // stride - 1) * cols + p % stride - 1 for p in reversed(path)]
        done[node] = 1
        here = uf[node]
        for step, half in moves:
            nb = node + step
            if done[nb]:
                continue
            # An edge's trapezoid integral, floored; the same result as max(x, floor), nan included.
            x = half * (here + uf[nb])
            nd = d + 1.0 / (floor if floor > x else x)
            if nd < dist[nb]:
                dist[nb] = nd
                prev[nb] = node
                push(heap, (nd, nb))


def min_cost_route(
    grid: GridSpec, uncertainty, start: Waypoint, destination: int
) -> list[Waypoint]:
    """Cheapest king-move walk from the grid point nearest ``start`` to ``destination``.

    Each edge costs the reciprocal of the trapezoidal uncertainty line
    integral along it (floored at EDGE_FLOOR), so routes gravitate toward
    high-uncertainty terrain. Dijkstra finds the route, walking the king
    moves of each grid point inside a one-node border that is never entered.
    A field holding nan or an infinity is rejected.
    """
    if not 0 <= destination < grid.num_points:
        raise IndexError(f"destination {destination} out of range [0, {grid.num_points})")
    u = _finite_field(uncertainty, grid)
    src = point_to_index(grid, start)
    path = [src] if src == destination else _dijkstra(grid, u, src, destination)
    return [index_to_point(grid, g) for g in path]


def grid_route(grid: GridSpec) -> list[Waypoint]:
    """Boustrophedon sweep: every row end-to-end, alternating direction."""
    wps: list[Waypoint] = []
    for r in range(grid.rows):
        cols = (0, grid.cols - 1) if r % 2 == 0 else (grid.cols - 1, 0)
        for c in cols:
            wp = index_to_point(grid, r * grid.cols + c)
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
        wp = index_to_point(grid, r * grid.cols + c)
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
    return [index_to_point(grid, int(rng.integers(grid.num_points)))]
