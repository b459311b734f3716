"""Ground-truth radio environment synthesis.

Received power at a location decomposes into a deterministic link budget
(transmit power plus free-space gain at the 3D link distance, minus the mean
shadowing loss), a zero-mean spatially correlated shadowing term whose
covariance halves every ``corr_distance`` meters of separation, and small-scale
fading that is independent from point to point. Measurements add white sensor
noise on top. All power quantities are dBm and all variances dB^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spatial import GridSpec, grid_points

__all__ = [
    "SPEED_OF_LIGHT",
    "Transmitter",
    "ChannelParams",
    "GroundTruth",
    "Measurement",
    "GridPrior",
    "MAX_TORUS_POINTS",
    "shadow_cov",
    "base_powers",
    "grid_base_powers",
    "link_budgets",
    "grid_prior",
    "circulant_root",
    "draw_transmitters",
    "sample_ground_truth",
    "interpolation_taps",
    "true_power",
    "take_measurement",
]

SPEED_OF_LIGHT = 299_792_458.0

# The largest torus, in points, that shadowing is drawn on. The torus side
# grows with corr_distance / spacing, so this bounds the correlation length.
MAX_TORUS_POINTS = 2**24


@dataclass(frozen=True)
class Transmitter:
    """A fixed transmitter: 3D position in meters, transmit power in dBm."""

    position: tuple[float, float, float]
    power_dbm: float

    def __post_init__(self) -> None:
        if len(self.position) != 3:
            raise ValueError("transmitter position must be a 3D point")
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and sensing parameters shared by every transmitter."""

    transmitters: tuple[Transmitter, ...] = ()
    frequency: float = 2.4e9
    pathloss_exponent: float = 2.0
    shadow_var: float = 9.0
    shadow_mean: float = 0.0
    corr_distance: float = 50.0
    fading_var: float = 0.0
    noise_var: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")
        if not self.pathloss_exponent > 0:
            raise ValueError("pathloss_exponent must be positive")
        if not self.corr_distance > 0:
            raise ValueError("corr_distance must be positive")
        for name in ("shadow_var", "fading_var", "noise_var"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        # The estimator squares and sums terms bounded by the shadowing
        # variance, which overflow when it lies within rounding of the
        # largest float.
        if not math.isfinite(float(self.shadow_var) * (1.0 + 1e-9)):
            raise ValueError("shadow_var must lie below the largest float by a relative 1e-9")

    @property
    def num_transmitters(self) -> int:
        return len(self.transmitters)


def shadow_cov(distance, params: ChannelParams):
    """Shadowing covariance between two points ``distance`` meters apart.

    Exponentially decaying in the separation, reaching half the shadowing
    variance at ``corr_distance``.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    out = params.shadow_var * np.exp2(-d / params.corr_distance)
    return float(out) if out.ndim == 0 else out


def base_powers(
    points, tx: Transmitter, params: ChannelParams, altitude: float = 0.0
) -> np.ndarray:
    """Deterministic received-power component at each planar point (dBm).

    Free-space gain is evaluated at the 3D distance between the sensing
    altitude and the transmitter; path-loss exponents other than 2 scale the
    free-space loss proportionally.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    txx, txy, txz = tx.position
    with np.errstate(over="ignore"):
        d2 = (pts[:, 0] - txx) ** 2 + (pts[:, 1] - txy) ** 2 + np.float64(altitude - txz) ** 2
    if not np.isfinite(d2).all():
        raise ValueError(f"squared link distances to the transmitter at {tx.position} overflow")
    if (d2 <= 0).any():
        raise ValueError(f"a point coincides with the transmitter at {tx.position}")
    gain = -10.0 * params.pathloss_exponent * np.log10(
        4.0 * np.pi * params.frequency * np.sqrt(d2) / SPEED_OF_LIGHT
    )
    return tx.power_dbm + gain - params.shadow_mean


def grid_base_powers(grid: GridSpec, params: ChannelParams, tx: Transmitter) -> np.ndarray:
    return base_powers(grid_points(grid), tx, params, grid.altitude)


@functools.lru_cache(maxsize=1)
def link_budgets(grid: GridSpec, params: ChannelParams) -> np.ndarray:
    """Every transmitter's :func:`grid_base_powers` as a read-only (K, N) array, for one channel.

    A survey reads them twice, for its ground truth and for its prior means.
    The one cached entry computes them once per survey and holds them no
    longer than until the next survey's channel.
    """
    budgets = np.vstack([grid_base_powers(grid, params, tx) for tx in params.transmitters])
    budgets.flags.writeable = False
    return budgets


def _kernel_at_offsets(row_offsets, col_offsets, spacing: float, kernel: ChannelParams) -> np.ndarray:
    """The kernel at every pair of integer node offsets: one row per ``row_offsets`` entry."""
    dy, dx = row_offsets * spacing, col_offsets * spacing
    return shadow_cov(np.sqrt((dy * dy)[:, None] + dx * dx), kernel)


class GridPrior:
    """Read-only shadowing covariance of the grid powers, kept as its kernel table.

    The kernel is stationary, so the N x N covariance is determined by
    ``table``, the kernel at every grid offset: entry ``(R - 1 + dr, C - 1 + dc)``
    for ``dr`` rows and ``dc`` columns apart on an R x C grid. Row ``(r, c)``
    of the covariance is the (R, C) window of the table whose first entry is
    ``(R - 1 - r, C - 1 - c)``. Indexing with grid indices
    returns those rows, as indexing the dense array would; :meth:`dense`
    builds the whole array. Both copy the same table entries, so they agree
    to the bit and the covariance is exactly symmetric.
    """

    def __init__(self, table: np.ndarray, rows: int, cols: int) -> None:
        self.table = table
        self.shape = (rows * cols, rows * cols)
        # windows[r, c] is row (r, c) of the covariance, as an (R, C) view.
        self._windows = np.lib.stride_tricks.sliding_window_view(table, (rows, cols))[::-1, ::-1]
        self._rows, self._cols = rows, cols
        # Every node's grid row and column, looked up instead of divided out per read.
        self._node_rows, self._node_cols = np.divmod(np.arange(rows * cols), cols)

    def __getitem__(self, index) -> np.ndarray:
        """Rows ``index`` of the covariance: a new C-contiguous (len(index), N) array."""
        index = np.asarray(index)
        rows = self._windows[self._node_rows[index], self._node_cols[index]]
        return rows.reshape(*index.shape, self.shape[1])

    def diagonal(self) -> np.ndarray:
        """The N prior variances: the kernel at offset zero, everywhere."""
        return np.full(self.shape[0], self.table[self._rows - 1, self._cols - 1])

    def dense(self) -> np.ndarray:
        """The N x N covariance as a new, writable C-contiguous array."""
        out = np.empty(self.shape)
        out.reshape(self._windows.shape)[...] = self._windows
        return out


@functools.lru_cache(maxsize=4)
def grid_prior(grid: GridSpec, shadow_var: float, corr_distance: float) -> GridPrior:
    """The grid prior for one kernel, from a cache of four.

    Only the (2R - 1) x (2C - 1) kernel table is built and cached, read-only;
    no N x N array is.
    """
    kernel = ChannelParams(shadow_var=shadow_var, corr_distance=corr_distance)
    rows, cols = grid.rows, grid.cols
    table = _kernel_at_offsets(*(np.abs(np.arange(1 - n, n)) for n in (rows, cols)), grid.spacing, kernel)
    table.flags.writeable = False
    return GridPrior(table, rows, cols)


def _torus_kernel(shape: tuple[int, int], spacing: float, kernel: ChannelParams) -> np.ndarray:
    """First row of the kernel's circulant covariance on a ``shape`` torus of grid nodes.

    Entry ``(i, j)`` is the kernel at the shorter way round each axis:
    ``min(i, P - i)`` by ``min(j, Q - j)`` nodes.
    """
    return _kernel_at_offsets(*(np.minimum(np.arange(n), n - np.arange(n)) for n in shape), spacing, kernel)


@functools.lru_cache(maxsize=4)
def circulant_root(grid: GridSpec, corr_distance: float) -> np.ndarray:
    """Square root of the unit-variance kernel's circulant spectrum, from a cache of four.

    The grid sits in a corner of a P x Q torus, on which the kernel's first
    row (:func:`_torus_kernel`) defines a circulant covariance whose
    eigenvalues are that row's ``fft2`` (Wood & Chan 1994; Dietrich & Newsam
    1997). On every pair of grid points that covariance is the kernel, so
    fields drawn through it are exact on the grid. The torus is the smallest
    of 2(R-1) x 2(C-1), doubled along every axis longer than one point, whose
    eigenvalues are all at least -1e-12 times the largest; those are clamped
    at zero. The returned (P, Q) array is read-only.

    Raises ValueError when no such torus has at most :data:`MAX_TORUS_POINTS`
    points: the torus side grows with ``corr_distance / spacing``.
    """
    kernel = ChannelParams(shadow_var=1.0, corr_distance=corr_distance)
    rows, cols = grid.rows, grid.cols
    shape = (max(2 * (rows - 1), 1), max(2 * (cols - 1), 1))
    while shape[0] * shape[1] <= MAX_TORUS_POINTS:
        half = np.fft.rfft2(_torus_kernel(shape, grid.spacing, kernel)).real
        if half.min() >= -1e-12 * half.max():
            # The row is even along each axis, so column l of the spectrum is column Q - l.
            spectrum = np.concatenate((half, half[:, (shape[1] - 1) // 2 : 0 : -1]), axis=1)
            root = np.sqrt(np.maximum(spectrum, 0.0, out=spectrum), out=spectrum)
            root.flags.writeable = False
            return root
        shape = (shape[0] * 2 if rows > 1 else 1, shape[1] * 2 if cols > 1 else 1)
    raise ValueError(
        f"corr_distance {corr_distance:g} m is too long for spacing {grid.spacing:g} m on a "
        f"{rows} x {cols} grid: drawing its shadowing needs a torus of more than "
        f"{MAX_TORUS_POINTS} points"
    )


def _shadowing(grid: GridSpec, params: ChannelParams, gen: np.random.Generator) -> np.ndarray:
    """One zero-mean shadowing field per transmitter, each with covariance ``grid_prior().dense()``.

    With ``z`` complex standard normal on the torus, ``fft2(root * z)`` has
    real and imaginary parts that are independent draws with the torus
    covariance times P·Q, so one FFT yields the fields of two transmitters.
    Only the grid's corner of that FFT is kept, so it runs as ``fft2`` does,
    along the rows and then down the columns, but down the grid's C columns
    only: the same values, bit for bit, for C of the torus's Q columns.
    """
    root = circulant_root(grid, params.corr_distance)
    count = params.num_transmitters
    fields = np.empty((count + count % 2, grid.rows, grid.cols))
    for k in range(0, count, 2):
        z = gen.standard_normal(2 * root.size).view(np.complex128).reshape(root.shape)
        z *= root
        draw = np.fft.fft(np.fft.fft(z, axis=1)[:, : grid.cols], axis=0)[: grid.rows]
        fields[k], fields[k + 1] = draw.real, draw.imag
    fields *= math.sqrt(params.shadow_var / root.size)
    return fields[:count].reshape(count, grid.num_points)


def draw_transmitters(
    grid: GridSpec,
    count: int,
    height: float,
    power_dbm: float,
    rng: np.random.Generator | int,
) -> tuple[Transmitter, ...]:
    """Place ``count`` transmitters uniformly at random over the grid rectangle."""
    if count < 1:
        raise ValueError("need at least one transmitter")
    gen = np.random.default_rng(rng)
    xmin, ymin, xmax, ymax = grid.bounds()
    out = []
    for _ in range(count):
        x = float(gen.uniform(xmin, xmax))
        y = float(gen.uniform(ymin, ymax))
        out.append(Transmitter(position=(x, y, height), power_dbm=power_dbm))
    return tuple(out)


@dataclass(frozen=True)
class GroundTruth:
    """True power values on the grid per transmitter; hidden from the estimator."""

    grid: GridSpec
    powers: np.ndarray  # (num_transmitters, num_points) dBm


def sample_ground_truth(
    grid: GridSpec, params: ChannelParams, rng: np.random.Generator | int
) -> GroundTruth:
    """Draw one realization of the true power map for every transmitter.

    Shadowing is drawn by circulant embedding (:func:`circulant_root`), two
    transmitters per FFT, and fading is then added independently per point
    and transmitter. No BLAS call is made, so the draw is deterministic for a
    given seed whatever the BLAS thread count.
    """
    if params.num_transmitters < 1:
        raise ValueError("need at least one transmitter")
    gen = np.random.default_rng(rng)
    n = grid.num_points
    # Before the shadowing, so the last survey's budgets leave the cache
    # before the torus arrays are allocated.
    base = link_budgets(grid, params)
    if params.shadow_var > 0:
        shadow = _shadowing(grid, params, gen)
    else:
        shadow = np.zeros((params.num_transmitters, n))
    powers = np.empty((params.num_transmitters, n))
    for k in range(params.num_transmitters):
        fading = np.sqrt(params.fading_var) * gen.standard_normal(n)
        powers[k] = base[k] - shadow[k] + fading
    return GroundTruth(grid=grid, powers=powers)


def _catmull_rom_weights(u: float) -> tuple[float, float, float, float]:
    # u = 0 gives exactly (0, 1, 0, 0), so grid points reproduce exactly.
    return (
        0.5 * (u * (-1.0 + u * (2.0 - u))),
        0.5 * (2.0 + u * u * (3.0 * u - 5.0)),
        0.5 * (u * (1.0 + u * (4.0 - 3.0 * u))),
        0.5 * (u * u * (u - 1.0)),
    )


@functools.lru_cache(maxsize=4)
def _tap_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The tap block's row and column indices along each axis, from a cache of four.

    Entry ``r0`` of the first, an (R, 4, 1) array, holds the rows ``r0 - 1``
    to ``r0 + 2``, clamped to the grid, times C; entry ``c0`` of the second,
    (C, 4), holds the columns ``c0 - 1`` to ``c0 + 2``, clamped. Their sum is
    the 4 x 4 block's grid indices. Both are read-only, and they grow with
    R + C, not with the grid's size.
    """
    # Few numpy calls and no np.clip: the first survey on a grid builds these
    # inside its set-up, where each call's first use in a process costs
    # tens of microseconds (np.clip's about 0.15 ms).
    near = np.maximum(np.arange(max(grid.rows, grid.cols))[:, None] + np.arange(-1, 3), 0)
    rows = np.minimum(near[: grid.rows], grid.rows - 1)[:, :, None] * grid.cols
    cols = np.minimum(near[: grid.cols], grid.cols - 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def interpolation_taps(grid: GridSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and weights of the cubic interpolation at a planar point.

    The value at ``point`` is ``field[index] @ weights``: a separable
    Catmull-Rom spline over the 4 x 4 nodes around it, with border nodes
    replicated outward (so indices can repeat). On a grid node the weights
    are exactly one 1.0 and fifteen 0.0.
    """
    x, y = float(point[0]), float(point[1])
    if not grid.contains(x, y):
        raise ValueError(f"point ({x}, {y}) lies outside the grid rectangle")
    # Python scalars throughout: one call per measurement, where NumPy's
    # per-call overhead on 4-element arrays costs more than the arithmetic.
    ox, oy = grid.origin
    cmax, rmax = grid.cols - 1, grid.rows - 1
    fx = min(max((x - ox) / grid.spacing, 0.0), float(cmax))
    fy = min(max((y - oy) / grid.spacing, 0.0), float(rmax))
    c0 = min(math.floor(fx), cmax)
    r0 = min(math.floor(fy), rmax)
    rows, cols = _tap_axes(grid)
    index = (rows[r0] + cols[c0]).ravel()
    wx = _catmull_rom_weights(fx - c0)
    # The outer product of the row and column weights, rows major.
    weights = np.array([a * b for a in _catmull_rom_weights(fy - r0) for b in wx])
    return index, weights


def true_power(gt: GroundTruth, point, taps=None) -> np.ndarray:
    """True power at a planar point, one value per transmitter (dBm).

    Off-grid points are interpolated from the grid values through
    :func:`interpolation_taps`; on-grid points reproduce the stored values
    exactly. ``taps``, when given, are that function's result at ``point``.
    """
    index, weights = interpolation_taps(gt.grid, point) if taps is None else taps
    return gt.powers[:, index] @ weights


@dataclass(frozen=True)
class Measurement:
    """One received-signal-strength sample: position plus per-transmitter dBm."""

    position: tuple[float, float]
    rss: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(map(float, self.position)))
        object.__setattr__(self, "rss", tuple(map(float, self.rss)))


def take_measurement(
    gt: GroundTruth, point, params: ChannelParams, rng: np.random.Generator | int, taps=None
) -> Measurement:
    """Measure the true field at ``point`` with additive white sensor noise.

    ``taps``, when given, are the interpolation taps at ``point``, so a
    caller that already holds them does not compute them twice.
    """
    gen = np.random.default_rng(rng)
    noise = math.sqrt(params.noise_var) * gen.standard_normal(params.num_transmitters)
    rss = true_power(gt, point, taps) + noise
    # Measurement converts the position and the values to float tuples.
    return Measurement(position=(point[0], point[1]), rss=rss.tolist())
