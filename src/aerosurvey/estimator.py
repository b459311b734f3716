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

Every measurement observes the grid through the simulator's own
interpolation (:func:`aerosurvey.channel.interpolation_taps`): a fixed
combination of 16 grid values plus white sensor noise, the same for every
transmitter. The online update, the batch reference and the simulator thus
share one linear-Gaussian model, so the two posteriors agree exactly; a
measurement taken on a grid node observes that entry plus sensor noise.
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
    Measurement,
    grid_base_powers,
    grid_prior,
    interpolation_taps,
)
from .spatial import GridSpec

__all__ = [
    "VAR_FLOOR",
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

    The measurement is ``powers[index] @ weights`` plus white noise of
    variance ``noise_var``, for every transmitter alike. ``index`` may repeat
    a grid node.
    """

    index: np.ndarray  # (taps,) grid indices
    weights: np.ndarray  # (taps,)
    noise_var: float  # dB^2, >= VAR_FLOOR


def _prior_cov(grid: GridSpec, params: ChannelParams) -> np.ndarray:
    """A fresh copy of the grid prior covariance: shadowing plus fading on the diagonal."""
    cov = grid_prior(grid, params.shadow_var, params.corr_distance).cov.copy()
    cov[np.diag_indices_from(cov)] += params.fading_var
    return cov


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
    return PosteriorState(mean=_prior_mean(grid, params, tx).copy(), cov=_prior_cov(grid, params))


def init_posteriors(grid: GridSpec, params: ChannelParams) -> list[PosteriorState]:
    """Priors for every transmitter, all holding one shared covariance array.

    Each state has its own mean; their ``cov`` attributes are the same array,
    which :func:`condition_in_place` updates once per measurement.
    """
    cov = _prior_cov(grid, params)
    return [
        PosteriorState(mean=_prior_mean(grid, params, k).copy(), cov=cov)
        for k in range(params.num_transmitters)
    ]


def observation_coefficients(
    grid: GridSpec, params: ChannelParams, position
) -> ObservationCoefficients:
    """Observation model of a measurement at ``position``, shared by all transmitters.

    The weights are the simulator's interpolation taps at that position; the
    residual is sensor noise, floored at :data:`VAR_FLOOR`.
    """
    index, weights = interpolation_taps(grid, position)
    return ObservationCoefficients(
        index=index, weights=weights, noise_var=max(params.noise_var, VAR_FLOOR)
    )


def condition_in_place(
    states: Sequence[PosteriorState],
    coeffs: ObservationCoefficients,
    values: Sequence[float],
) -> None:
    """Condition posteriors that share one covariance on one measurement, in place.

    ``states[k]`` is transmitter ``k``'s posterior and ``values[k]`` its
    measured value; all states must hold the same ``cov`` array, and
    ``coeffs`` is the observation model at the measurement position. The gain
    and the rank-one covariance downdate are computed once; each mean moves by
    its own innovation. Nothing is modified when an argument is rejected.
    """
    if not states or len(states) != len(values):
        raise ValueError("need one value per posterior")
    cov = states[0].cov
    for state, y in zip(states, values):
        if state.cov is not cov:
            raise ValueError("posteriors must share one covariance array")
        if not np.isfinite(y):
            raise ValueError("measurement value must be finite")
    if not np.all(np.isfinite(coeffs.weights)):
        raise ValueError("observation coefficients must be finite")
    index, w = coeffs.index, coeffs.weights
    cov_a = cov[:, index] @ w
    denom = coeffs.noise_var + float(w @ cov_a[index])
    gain = cov_a / denom
    # outer(b, b) is bit-exactly symmetric, so the update preserves symmetry
    # without a correction pass
    scaled = cov_a / np.sqrt(denom)
    for i in range(0, scaled.shape[0], _ROW_BLOCK):
        cov[i : i + _ROW_BLOCK] -= np.multiply.outer(scaled[i : i + _ROW_BLOCK], scaled)
    # Roundoff from near-exact observations can leave tiny negative variances.
    np.fill_diagonal(cov, np.maximum(np.diagonal(cov), 0.0))
    for state, y in zip(states, values):
        state.mean += gain * (float(y) - float(state.mean[index] @ w))


def online_update(
    state: PosteriorState, coeffs: ObservationCoefficients, y: float
) -> PosteriorState:
    """Condition the posterior on one measurement ``y`` (gain-form rank-one update).

    Returns a new state and leaves ``state`` unchanged.
    """
    new = state.copy()
    condition_in_place([new], coeffs, [y])
    return new


def batch_posterior(
    grid: GridSpec, params: ChannelParams, tx: int, measurements: Sequence[Measurement]
) -> PosteriorState:
    """Posterior over grid powers from all measurements at once.

    Stacks the observation models of every measurement into one dense
    observation matrix ``H`` and conditions the prior on the full measurement
    vector, with sensor noise as the only white term. With no measurements
    this is the prior itself.
    """
    prior = init_posterior(grid, params, tx)
    if len(measurements) == 0:
        return prior
    values = np.array([m.rss[tx] for m in measurements], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("measurements must be finite")
    # h[i] @ powers is measurement i's noise-free value; repeated taps add up.
    h = np.zeros((len(measurements), grid.num_points))
    for row, m in zip(h, measurements):
        index, weights = interpolation_taps(grid, m.position)
        np.add.at(row, index, weights)
    cross = prior.cov @ h.T
    gram = h @ cross
    gram[np.diag_indices_from(gram)] += params.noise_var + COV_JITTER * params.shadow_var
    try:
        cho = scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise scipy.linalg.LinAlgError("measurement Gram matrix is singular") from exc
    mean = prior.mean + cross @ scipy.linalg.cho_solve(cho, values - h @ prior.mean)
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
