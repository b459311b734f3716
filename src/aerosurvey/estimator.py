"""Bayesian estimation of grid power values.

The power map restricted to the survey grid is a Gaussian vector: its mean is
the known deterministic link budget and its covariance combines the
distance-decaying shadowing correlation with uncorrelated fading. Every
received-signal-strength sample is (conditionally) a linear-Gaussian
observation of that vector, so the posterior stays Gaussian and can be
updated one measurement at a time.

The posterior covariance depends only on where the measurements were taken
and on the kernel, never on the measured values or on which transmitter is
observed. A survey therefore keeps one :class:`SurveyPosterior`: one
covariance shared by all transmitters, and one mean per transmitter that
moves by its own innovation.

After r measurements that covariance is exactly ``Σ0 − UᵀU``, where ``Σ0`` is
the prior (the cached, read-only shadowing covariance of
:func:`aerosurvey.channel.grid_prior` plus fading on the diagonal) and row i
of ``U`` is measurement i's gain column scaled by the square root of its
innovation variance. While r is small the posterior keeps only ``U`` and the
N variances, so a measurement costs O(N·r). Once r reaches about half the
grid size it materialises the dense covariance once and conditions it in
place from then on (:func:`condition_in_place`, O(N²) per measurement).

Every measurement observes the grid through the simulator's own
interpolation (:func:`aerosurvey.channel.interpolation_taps`): a fixed
combination of 16 grid values plus white sensor noise, the same for every
transmitter. The posterior therefore equals the batch Gaussian conditioning
on the same model; a measurement taken on a grid node observes that entry
plus sensor noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .channel import ChannelParams, grid_base_powers, grid_prior, interpolation_taps
from .spatial import GridSpec

__all__ = [
    "VAR_FLOOR",
    "PosteriorState",
    "ObservationCoefficients",
    "SurveyPosterior",
    "fold_rank",
    "observation_coefficients",
    "condition_in_place",
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


def _checked_values(count: int, coeffs: ObservationCoefficients, values) -> np.ndarray:
    """The measured values as floats, after the checks every update makes."""
    if count == 0 or len(values) != count:
        raise ValueError("need one value per posterior")
    values = np.array(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("measurement value must be finite")
    if not np.all(np.isfinite(coeffs.weights)):
        raise ValueError("observation coefficients must be finite")
    return values


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
    values = _checked_values(len(states), coeffs, values)
    cov = states[0].cov
    if any(state.cov is not cov for state in states):
        raise ValueError("posteriors must share one covariance array")
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


def fold_rank(num_points: int) -> int:
    """Measurements after which :class:`SurveyPosterior` turns dense.

    Memory sets the point, not speed. ``U`` holds r·N numbers against the
    dense N², so folding at N/2 keeps the low-rank form at half a dense copy
    or less. On a 2-vCPU VM (OpenBLAS 0.3.31) a low-rank step stayed cheaper
    than a dense in-place step up to r = 3N for N = 100 to 729: 0.21 against
    1.19 ms at N = 729 and r = N/2. Folding costs one N x N x r product:
    0.23 s at N = 3000.
    """
    return num_points // 2


class SurveyPosterior:
    """Posterior over the grid powers of every transmitter of one survey.

    ``means`` holds one row of N posterior means per transmitter and ``var``
    the N posterior variances they share, clamped at zero after every
    measurement. The covariance is the read-only shared prior ``prior_cov``
    (shadowing only), plus ``fading_var`` on the diagonal, minus ``UᵀU`` with
    one row of ``U`` per measurement. After :func:`fold_rank` measurements it
    is materialised as the dense ``cov`` array, which later measurements
    condition in place; ``cov`` is None until then. ``rank`` counts the
    measurements conditioned on.
    """

    def __init__(self, grid: GridSpec, params: ChannelParams) -> None:
        if params.num_transmitters < 1:
            raise ValueError("need at least one transmitter")
        n = grid.num_points
        self.prior_cov = grid_prior(grid, params.shadow_var, params.corr_distance).cov
        self.fading_var = params.fading_var
        self.means = np.vstack([grid_base_powers(grid, params, tx) for tx in params.transmitters])
        self.var = np.diagonal(self.prior_cov) + params.fading_var
        self.cov: np.ndarray | None = None
        self.rank = 0
        # Untouched rows cost address space only, not memory.
        self._u = np.empty((fold_rank(n), n))

    def condition(self, coeffs: ObservationCoefficients, values: Sequence[float]) -> None:
        """Condition on one measurement; ``values[k]`` is transmitter ``k``'s value.

        Nothing is modified when an argument is rejected.
        """
        values = _checked_values(self.means.shape[0], coeffs, values)
        if self.cov is None and self.rank == len(self._u):
            self._fold()
        if self.cov is not None:
            condition_in_place(self.states(), coeffs, values)
            self.rank += 1
            return
        index, w = coeffs.index, coeffs.weights
        u = self._u[: self.rank]
        # Column of the covariance through the taps; the prior is symmetric,
        # so its rows are read instead of its columns.
        col = w @ self.prior_cov[index]
        np.add.at(col, index, self.fading_var * w)
        col -= (u[:, index] @ w) @ u
        denom = coeffs.noise_var + float(w @ col[index])
        scaled = col / np.sqrt(denom)
        self._u[self.rank] = scaled
        self.rank += 1
        self.var -= scaled * scaled
        np.maximum(self.var, 0.0, out=self.var)
        innovations = values - self.means[:, index] @ w
        self.means += np.multiply.outer(innovations, col / denom)

    def _fold(self) -> None:
        u = self._u[: self.rank]
        cov = u.T @ u  # symmetric to the bit (one triangle, mirrored)
        np.subtract(self.prior_cov, cov, out=cov)
        # The diagonal keeps the clamped variances the metrics already saw;
        # they include the fading that the shadowing prior lacks.
        np.fill_diagonal(cov, self.var)
        self.cov = cov
        self.var = np.diagonal(cov)  # a view: tracks the in-place updates
        self._u = None

    def states(self) -> list[PosteriorState]:
        """One dense posterior per transmitter, all holding the shared ``cov`` array.

        Materialises the dense covariance on the first call; each state's
        mean is a view of its row of ``means``.
        """
        if self.cov is None:
            self._fold()
        return [PosteriorState(mean=mean, cov=self.cov) for mean in self.means]


def service_probability(mean, var, r_min: float) -> np.ndarray:
    """P[power >= r_min] per grid point under the posterior.

    ``mean`` is one transmitter's N posterior means or a (K, N) stack of
    them, and ``var`` the N posterior variances. Zero variance degenerates to
    the indicator of the mean clearing the threshold.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (mean - r_min) / std
    p = ndtr(z)
    degenerate = std == 0.0
    if np.any(degenerate):
        p = np.where(degenerate, (mean >= r_min).astype(float), p)
    return p
