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
import scipy.linalg

from .spatial import GridSpec, grid_points

__all__ = [
    "SPEED_OF_LIGHT",
    "Transmitter",
    "ChannelParams",
    "GroundTruth",
    "Measurement",
    "GridPrior",
    "shadow_cov",
    "base_powers",
    "grid_base_powers",
    "grid_prior",
    "draw_transmitters",
    "sample_ground_truth",
    "interpolation_taps",
    "true_power",
    "take_measurement",
]

SPEED_OF_LIGHT = 299_792_458.0

# Relative diagonal jitter applied before factorizing shadowing covariance
# matrices; dense grids make them numerically singular.
COV_JITTER = 1e-9


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

    transmitters: tuple[Transmitter, ...]
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
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

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
    if not np.all(np.isfinite(d2)):
        raise ValueError(f"squared link distances to the transmitter at {tx.position} overflow")
    if np.any(d2 <= 0):
        raise ValueError(f"a point coincides with the transmitter at {tx.position}")
    gain = -10.0 * params.pathloss_exponent * np.log10(
        4.0 * np.pi * params.frequency * np.sqrt(d2) / SPEED_OF_LIGHT
    )
    return tx.power_dbm + gain - params.shadow_mean


def grid_base_powers(grid: GridSpec, params: ChannelParams, tx: Transmitter) -> np.ndarray:
    return base_powers(grid_points(grid), tx, params, grid.altitude)


@dataclass(frozen=True)
class GridPrior:
    """Read-only shadowing covariance of the grid powers and its lower Cholesky factor.

    ``cov`` is copied from a table of the kernel at every grid offset, so it is
    exactly symmetric. ``factor`` factors ``cov`` plus a relative diagonal
    jitter, and is None when the shadowing variance is zero.
    """

    cov: np.ndarray  # (N, N) dB^2
    factor: np.ndarray | None  # (N, N) lower triangular


@functools.lru_cache(maxsize=4)
def grid_prior(grid: GridSpec, shadow_var: float, corr_distance: float) -> GridPrior:
    """The grid prior for one kernel, from a cache of four.

    Row ``(r, c)`` of ``cov`` is the (rows, cols) window centred on ``(r, c)``
    of one table of the stationary kernel at every grid offset.
    """
    kernel = ChannelParams((), shadow_var=shadow_var, corr_distance=corr_distance)
    rows, cols = grid.rows, grid.cols
    dy, dx = (np.abs(np.arange(1 - n, n)) * grid.spacing for n in (rows, cols))
    table = shadow_cov(np.sqrt((dy * dy)[:, None] + dx * dx), kernel)
    cov = np.empty((grid.num_points, grid.num_points))
    for i, (r, c) in enumerate(np.ndindex(rows, cols)):
        cov[i].reshape(rows, cols)[...] = table[rows - 1 - r :, cols - 1 - c :][:rows, :cols]
    factor = None
    if shadow_var != 0.0:
        # Every jittered entry is a table entry or the jittered diagonal, so
        # checking those is checking the matrix, without an N x N temporary.
        diagonal = float(table[rows - 1, cols - 1]) + COV_JITTER * float(shadow_var)
        if not (np.isfinite(table).all() and math.isfinite(diagonal)):
            raise ValueError("prior covariance must be finite")
        jittered = cov.copy()
        jittered[np.diag_indices_from(jittered)] += COV_JITTER * shadow_var
        try:
            # cov is exactly symmetric: its transpose is the Fortran-order input LAPACK overwrites.
            factor = scipy.linalg.cholesky(
                jittered.T, lower=True, overwrite_a=True, check_finite=False
            )
        except scipy.linalg.LinAlgError as exc:
            raise scipy.linalg.LinAlgError(
                "prior covariance factorization failed even after diagonal jitter"
            ) from exc
    for arr in (cov, factor):
        if arr is not None:
            arr.flags.writeable = False
    return GridPrior(cov=cov, factor=factor)


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

    Shadowing is drawn through the factorized grid covariance and fading is
    added independently per point; both draws happen per transmitter, so the
    result is deterministic for a given seed.
    """
    if params.num_transmitters < 1:
        raise ValueError("need at least one transmitter")
    gen = np.random.default_rng(rng)
    n = grid.num_points
    powers = np.empty((params.num_transmitters, n))
    for k, tx in enumerate(params.transmitters):
        base = grid_base_powers(grid, params, tx)
        shadow_z = gen.standard_normal(n)
        if params.shadow_var > 0:
            prior = grid_prior(grid, params.shadow_var, params.corr_distance)
            shadow = prior.factor @ shadow_z
        else:
            shadow = np.zeros(n)
        fading = np.sqrt(params.fading_var) * gen.standard_normal(n)
        powers[k] = base - shadow + fading
    return GroundTruth(grid=grid, powers=powers)


def _catmull_rom_weights(u: float) -> tuple[float, float, float, float]:
    # u = 0 gives exactly (0, 1, 0, 0), so grid points reproduce exactly.
    return (
        0.5 * (u * (-1.0 + u * (2.0 - u))),
        0.5 * (2.0 + u * u * (3.0 * u - 5.0)),
        0.5 * (u * (1.0 + u * (4.0 - 3.0 * u))),
        0.5 * (u * u * (u - 1.0)),
    )


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
    cs = [min(max(c, 0), cmax) for c in range(c0 - 1, c0 + 3)]
    rs = [min(max(r, 0), rmax) * grid.cols for r in range(r0 - 1, r0 + 3)]
    index = np.array([r + c for r in rs for c in cs])
    weights = np.multiply.outer(_catmull_rom_weights(fy - r0), _catmull_rom_weights(fx - c0)).ravel()
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
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "rss", tuple(float(v) for v in self.rss))


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
    return Measurement(position=(float(point[0]), float(point[1])), rss=tuple(rss.tolist()))
