"""Bayesian estimation of grid power values.

The power map restricted to the survey grid is a Gaussian vector: its mean is
the known deterministic link budget and its covariance combines the
distance-decaying shadowing correlation with uncorrelated fading. Every
received-signal-strength sample is (conditionally) a linear-Gaussian
observation of that vector, so the posterior stays Gaussian and can be
maintained two ways:

* :func:`batch_posterior` conditions on all measurements at once through one
  dense solve against the measurement Gram matrix, whose cost grows with the
  number of measurements;
* :func:`online_update` folds in one measurement at a time with a rank-one
  covariance downdate, keeping the per-measurement cost independent of how
  many measurements were already absorbed.

The posterior covariance depends only on where the measurements were taken
and on the kernel, never on the measured values or on which transmitter is
observed. A survey therefore keeps one covariance shared by all transmitters
(:func:`init_posteriors`) and conditions it in place, once per measurement,
while each transmitter's mean moves by its own innovation
(:func:`condition_in_place`).

Off-grid measurements couple to the grid through the shadowing correlation:
the grid posterior acts as a summary of the past, which is what makes the
online recursion constant-cost. A measurement taken exactly on a grid point
degenerates to observing that entry plus sensor noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.special import ndtr

from .channel import (
    COV_JITTER,
    ChannelParams,
    GridPrior,
    Measurement,
    base_power,
    base_powers,
    grid_base_powers,
    grid_prior,
    pairwise_distances,
    shadow_cov,
    shadow_cov_matrix,
)
from .spatial import GridSpec

__all__ = [
    "VAR_FLOOR",
    "ON_GRID_TOL",
    "PosteriorState",
    "ObservationCoefficients",
    "init_posterior",
    "init_posteriors",
    "observation_coefficients",
    "condition_in_place",
    "online_update",
    "batch_posterior",
    "service_probability",
]

# Floor on observation noise variance (dB^2); keeps repeated noise-free
# measurements numerically well posed.
VAR_FLOOR = 1e-9

# Points closer than this (meters) to a grid node count as on-grid.
ON_GRID_TOL = 1e-9

# Rows of the covariance downdated per step; bounds the rank-one temporary.
_ROW_BLOCK = 64


@dataclass
class PosteriorState:
    """Gaussian posterior over the grid powers of one transmitter."""

    mean: np.ndarray  # (N,) dBm
    cov: np.ndarray  # (N, N) dB^2

    def copy(self) -> "PosteriorState":
        return PosteriorState(self.mean.copy(), self.cov.copy())


@dataclass(frozen=True)
class ObservationCoefficients:
    """Linear observation model of one measurement given the grid powers.

    The measurement expectation is ``weights @ powers + offset`` and the
    residual about it has variance ``noise_var``. ``grid_index`` marks the
    degenerate case where the weights are a unit vector (measurement taken
    exactly on a grid node), which updates can exploit.
    """

    weights: np.ndarray  # (N,)
    offset: float  # dBm
    noise_var: float  # dB^2, >= VAR_FLOOR
    grid_index: int | None = None


def _grid_prior(grid: GridSpec, params: ChannelParams) -> GridPrior:
    return grid_prior(grid, params.shadow_var, params.corr_distance, params.fading_var)


@functools.lru_cache(maxsize=64)
def _prior_mean(grid: GridSpec, params: ChannelParams, tx: int) -> np.ndarray:
    mean = grid_base_powers(grid, params, params.transmitters[tx])
    mean.flags.writeable = False
    return mean


def _check_tx(params: ChannelParams, tx: int) -> None:
    if not 0 <= tx < params.num_transmitters:
        raise IndexError(f"transmitter index {tx} out of range [0, {params.num_transmitters})")


def init_posterior(grid: GridSpec, params: ChannelParams, tx: int) -> PosteriorState:
    """Prior over grid powers for transmitter ``tx`` before any measurement."""
    _check_tx(params, tx)
    cov = _grid_prior(grid, params).cov.copy()
    return PosteriorState(mean=_prior_mean(grid, params, tx).copy(), cov=cov)


def init_posteriors(grid: GridSpec, params: ChannelParams) -> list[PosteriorState]:
    """Priors for every transmitter, all holding one shared covariance array.

    Each state has its own mean; their ``cov`` attributes are the same array,
    which :func:`condition_in_place` updates once per measurement.
    """
    cov = _grid_prior(grid, params).cov.copy()
    return [
        PosteriorState(mean=_prior_mean(grid, params, k).copy(), cov=cov)
        for k in range(params.num_transmitters)
    ]


@functools.lru_cache(maxsize=4096)
def _observation_parts(
    grid: GridSpec,
    shadow_var: float,
    corr_distance: float,
    fading_var: float,
    noise_var: float,
    x: float,
    y: float,
) -> tuple[np.ndarray, float, int | None]:
    """Transmitter-independent observation weights and residual variance at one position."""
    prior = grid_prior(grid, shadow_var, corr_distance, fading_var)
    d = pairwise_distances(prior.points, (x, y))[:, 0]
    cross = shadow_cov(d, prior.kernel)
    j = int(np.argmin(d))
    on_grid: int | None = None
    if d[j] <= ON_GRID_TOL:
        # On a grid node the cross-covariance equals the j-th prior column, so
        # the weight solve collapses to a unit vector; fading contributes only
        # through the shared entry.
        cross[j] += fading_var
        weights = np.zeros(grid.num_points)
        weights[j] = 1.0
        on_grid = j
    elif prior.factor is None:
        weights = np.zeros(grid.num_points)
    else:
        weights = scipy.linalg.cho_solve((prior.factor, True), cross, check_finite=False)
    var = shadow_var + fading_var + noise_var - float(weights @ cross)
    var = max(var, VAR_FLOOR)
    weights.flags.writeable = False
    return weights, var, on_grid


def observation_coefficients(
    grid: GridSpec, params: ChannelParams, tx: int, position
) -> ObservationCoefficients:
    """Observation model coefficients for a measurement at ``position``.

    Weights and residual variance depend only on geometry and the kernel;
    the offset carries the transmitter-specific link budget.
    """
    _check_tx(params, tx)
    pos = np.asarray(position, dtype=float).reshape(2)
    if not np.all(np.isfinite(pos)):
        raise ValueError("measurement position must be finite")
    weights, var, on_grid = _observation_parts(
        grid,
        params.shadow_var,
        params.corr_distance,
        params.fading_var,
        params.noise_var,
        float(pos[0]),
        float(pos[1]),
    )
    prior = _prior_mean(grid, params, tx)
    expected = prior[on_grid] if on_grid is not None else float(weights @ prior)
    offset = base_power(pos, params.transmitters[tx], params, grid.altitude) - expected
    return ObservationCoefficients(
        weights=weights, offset=offset, noise_var=var, grid_index=on_grid
    )


def condition_in_place(
    states: Sequence[PosteriorState],
    coeffs: Sequence[ObservationCoefficients],
    values: Sequence[float],
) -> None:
    """Condition posteriors that share one covariance on one measurement, in place.

    ``states[k]`` is transmitter ``k``'s posterior, ``coeffs[k]`` its
    observation model at the measurement position and ``values[k]`` its
    measured value. All states must hold the same ``cov`` array and all models
    the same weights, grid index and residual variance, as
    :func:`observation_coefficients` gives them at one position. The gain and
    the rank-one covariance downdate are computed once; each mean moves by its
    own innovation. Nothing is modified when an argument is rejected.
    """
    if not states or not len(states) == len(coeffs) == len(values):
        raise ValueError("need one observation model and one value per posterior")
    cov = states[0].cov
    first = coeffs[0]
    for state, c, y in zip(states, coeffs, values):
        if state.cov is not cov:
            raise ValueError("posteriors must share one covariance array")
        if not np.isfinite(y):
            raise ValueError("measurement value must be finite")
        if not np.isfinite(c.offset) or not np.all(np.isfinite(c.weights)):
            raise ValueError("observation coefficients must be finite")
        if (
            c.grid_index != first.grid_index
            or c.noise_var != first.noise_var
            or not (c.weights is first.weights or np.array_equal(c.weights, first.weights))
        ):
            raise ValueError("observation models must share one position")
    a = first.weights
    j = first.grid_index
    if j is not None:
        cov_a = cov[:, j].copy()
        denom = first.noise_var + float(cov_a[j])
        predicted = [float(s.mean[j]) for s in states]
    else:
        cov_a = cov @ a
        denom = first.noise_var + float(a @ cov_a)
        predicted = [float(a @ s.mean) for s in states]
    gain = cov_a / denom
    # outer(b, b) is bit-exactly symmetric, so the update preserves symmetry
    # without a correction pass
    scaled = cov_a / np.sqrt(denom)
    for i in range(0, scaled.shape[0], _ROW_BLOCK):
        cov[i : i + _ROW_BLOCK] -= np.multiply.outer(scaled[i : i + _ROW_BLOCK], scaled)
    # Roundoff from near-exact observations can leave tiny negative variances.
    np.fill_diagonal(cov, np.maximum(np.diagonal(cov), 0.0))
    for state, c, y, pred in zip(states, coeffs, values, predicted):
        state.mean += gain * (float(y) - pred - c.offset)


def online_update(
    state: PosteriorState, coeffs: ObservationCoefficients, y: float
) -> PosteriorState:
    """Condition the posterior on one measurement ``y`` (gain-form rank-one update).

    Returns a new state and leaves ``state`` unchanged.
    """
    new = state.copy()
    condition_in_place([new], [coeffs], [y])
    return new


def batch_posterior(
    grid: GridSpec, params: ChannelParams, tx: int, measurements: Sequence[Measurement]
) -> PosteriorState:
    """Posterior over grid powers from all measurements at once.

    Conditions the prior directly on the full measurement vector; fading and
    sensor noise enter the Gram matrix as white terms. With no measurements
    this is the prior itself.
    """
    _check_tx(params, tx)
    if len(measurements) == 0:
        return init_posterior(grid, params, tx)
    prior = _grid_prior(grid, params)
    positions = np.array([m.position for m in measurements], dtype=float)
    values = np.array([m.rss[tx] for m in measurements], dtype=float)
    if not np.all(np.isfinite(values)) or not np.all(np.isfinite(positions)):
        raise ValueError("measurements must be finite")
    base_meas = base_powers(positions, params.transmitters[tx], params, grid.altitude)
    gram = shadow_cov_matrix(positions, params)
    gram[np.diag_indices_from(gram)] += (
        params.fading_var + params.noise_var + COV_JITTER * params.shadow_var
    )
    cross = shadow_cov_matrix(prior.points, params, positions)
    try:
        cho = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise scipy.linalg.LinAlgError("measurement Gram matrix is singular") from exc
    mean = _prior_mean(grid, params, tx) + cross @ scipy.linalg.cho_solve(cho, values - base_meas)
    cov = prior.cov - cross @ scipy.linalg.cho_solve(cho, cross.T)
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, np.maximum(np.diagonal(cov), 0.0))
    return PosteriorState(mean=mean, cov=cov)


def service_probability(state: PosteriorState, r_min: float) -> np.ndarray:
    """P[power >= r_min] per grid point under the posterior.

    Zero posterior variance degenerates to the indicator of the mean clearing
    the threshold.
    """
    var = np.maximum(np.diagonal(state.cov), 0.0)
    std = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (state.mean - r_min) / std
    p = ndtr(z)
    degenerate = std == 0.0
    if np.any(degenerate):
        p = np.where(degenerate, (state.mean >= r_min).astype(float), p)
    return p
