"""Survey grid geometry and arc-length path sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "Waypoint",
    "index_to_point",
    "point_to_index",
    "grid_points",
    "PathSampler",
]

# Arc-length slack (meters) under which a sample still lands on a segment, so
# rounding in segment lengths neither drops nor adds a sample.
_ARC_TOL = 1e-9

# Slack (meters) by which a point may lie outside the grid rectangle and still
# count as inside it.
_BOUNDS_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of ``rows x cols`` points spaced ``spacing`` meters apart.

    Indices are row-major: index ``g`` sits at column ``g % cols`` and row
    ``g // cols``, with columns running along +x and rows along +y from
    ``origin``. ``altitude`` is the sensing height above ground and only
    enters 3D link distances.
    """

    rows: int
    cols: int
    spacing: float
    origin: tuple[float, float] = (0.0, 0.0)
    altitude: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if not self.altitude >= 0:
            raise ValueError("altitude must be nonnegative")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def num_points(self) -> int:
        return self.rows * self.cols

    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding rectangle as (xmin, ymin, xmax, ymax)."""
        ox, oy = self.origin
        return (
            ox,
            oy,
            ox + (self.cols - 1) * self.spacing,
            oy + (self.rows - 1) * self.spacing,
        )

    def contains(self, x: float, y: float) -> bool:
        xmin, ymin, xmax, ymax = self.bounds()
        tol = _BOUNDS_TOL
        return (xmin - tol) <= x <= (xmax + tol) and (ymin - tol) <= y <= (ymax + tol)


class Waypoint(NamedTuple):
    """One corner of a flight polyline, in meters."""

    x: float
    y: float


def index_to_point(grid: GridSpec, g: int) -> Waypoint:
    """Planar coordinates of grid index ``g``."""
    if not 0 <= g < grid.num_points:
        raise IndexError(f"grid index {g} out of range [0, {grid.num_points})")
    row, col = divmod(int(g), grid.cols)
    ox, oy = grid.origin
    return Waypoint(ox + col * grid.spacing, oy + row * grid.spacing)


def point_to_index(grid: GridSpec, point: Sequence[float]) -> int:
    """Index of the grid point nearest ``point``; exact inverse of index_to_point."""
    x, y = float(point[0]), float(point[1])
    ox, oy = grid.origin
    col = min(max(int(round((x - ox) / grid.spacing)), 0), grid.cols - 1)
    row = min(max(int(round((y - oy) / grid.spacing)), 0), grid.rows - 1)
    return row * grid.cols + col


@functools.lru_cache(maxsize=4)
def grid_points(grid: GridSpec) -> np.ndarray:
    """All grid coordinates as a read-only (N, 2) array in index order, from a cache of four."""
    ox, oy = grid.origin
    # Filled by broadcasting, the same values as meshgrid and column_stack
    # give; those two cost most of a cold survey set-up's first link budget.
    points = np.empty((grid.rows, grid.cols, 2))
    points[:, :, 0] = ox + np.arange(grid.cols) * grid.spacing
    points[:, :, 1] = (oy + np.arange(grid.rows) * grid.spacing)[:, None]
    points = points.reshape(grid.num_points, 2)
    points.flags.writeable = False
    return points


class PathSampler:
    """Arc-length sampler over a polyline that is flown one segment at a time.

    A sample falls every ``delta`` meters of arc length after the start, and
    the sampling phase carries across segment joints, so consecutive samples
    are exactly ``delta`` apart along the path. A sample that lands within
    1e-9 m past a segment's end is taken on that segment, so rounding in
    segment lengths neither drops nor adds a sample.
    """

    def __init__(self, delta: float) -> None:
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.need = delta  # arc length left until the next sample
        self.meters = 0.0  # arc length flown so far

    def segment(self, a: Sequence[float], b: Sequence[float]) -> Iterator[tuple[tuple[float, float], float]]:
        """Fly from ``a`` to ``b``, yielding each sample's ``(x, y)`` and arc length.

        The samples are Python floats, computed as ``a + direction * walked``
        would be on arrays. A consumer that stops iterating early leaves the
        flight at the last sample it received.
        """
        ax, ay = float(a[0]), float(a[1])
        sx, sy = float(b[0]) - ax, float(b[1]) - ay
        length = float(np.hypot(sx, sy))
        if length == 0.0:
            return
        dx, dy = sx / length, sy / length
        walked = 0.0
        while self.need <= length - walked + _ARC_TOL:
            walked += self.need
            self.meters += self.need
            self.need = self.delta
            yield (ax + dx * walked, ay + dy * walked), self.meters
        leftover = length - walked
        self.need -= leftover
        self.meters += leftover
