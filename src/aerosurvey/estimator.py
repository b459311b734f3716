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
the prior (the shadowing covariance of :func:`aerosurvey.channel.grid_prior`
plus fading on the diagonal) and row i of ``U`` is measurement i's gain column
scaled by the square root of its innovation variance. The shadowing kernel is
stationary, so the shared prior is cached as a table of the kernel at every
grid offset, (2R−1)·(2C−1) numbers, and a measurement reads the 16 prior rows
it needs from that table. The posterior keeps only ``U`` and the N variances,
so a measurement costs O(N·r) and no N x N array exists. Once ``U`` holds
about half as many rows as the grid has points, the posterior re-bases: it
folds ``UᵀU`` into an owned dense prior (built from the table the first
time), which becomes the new ``Σ0``, and empties ``U``. Every measurement
goes through the one low-rank update, :meth:`SurveyPosterior.condition`.

Every measurement observes the grid through the simulator's own
interpolation (:func:`aerosurvey.channel.interpolation_taps`): a fixed
combination of 16 grid values plus white sensor noise, the same for every
transmitter. The posterior therefore equals the batch Gaussian conditioning
on the same model; a measurement taken on a grid node observes that entry
plus sensor noise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import ndtr

from .channel import ChannelParams, GridPrior, grid_prior, link_budgets
from .spatial import GridSpec

__all__ = [
    "VAR_FLOOR",
    "RELATIVE_VAR_FLOOR",
    "SurveyPosterior",
    "fold_rank",
    "service_probability",
]

# Floor on observation noise variance (dB^2); keeps repeated noise-free
# measurements numerically well posed.
VAR_FLOOR = 1e-9

# The noise floor relative to the largest prior variance. Rounding in the
# innovation variance grows with the prior's scale; below about 1000 dB^2 of
# prior variance the absolute floor is the larger one.
RELATIVE_VAR_FLOOR = 1e-12


def fold_rank(num_points: int) -> int:
    """Rows of ``U`` after which :class:`SurveyPosterior` re-bases its prior.

    Memory sets the point, not speed: ``U`` holds r·N numbers against the
    dense N², so re-basing at N/2 keeps it at half a dense copy or less. One
    measurement in N/2 pays the re-base, an N x N x r symmetric product (0.18 s
    at N = 3000 on a 2-vCPU VM, OpenBLAS 0.3.31); amortised, a step then costs
    at most about one dense rank-one step. Up to N/2 measurements the prior is
    read from its kernel table, so a survey holds ``U``, at most half a dense
    copy. The first re-base builds the dense prior while ``U`` is full, so a
    survey past N/2 measurements peaks at one and a half dense copies; later
    re-bases run in place.
    """
    return max(1, num_points // 2)


class SurveyPosterior:
    """Posterior over the grid powers of every transmitter of one survey.

    ``means`` holds one row of N posterior means per transmitter and ``var``
    the N posterior variances they share, clamped at zero after every
    measurement. The covariance is ``prior_cov``, plus ``fading_var`` on the
    diagonal, minus ``UᵀU`` with one row of ``U`` per measurement since the
    last re-base. ``prior_cov`` starts as the shared prior (shadowing only):
    the read-only :class:`aerosurvey.channel.GridPrior` of a grid, or any
    symmetric N x N array, which is never written. Either way its rows are
    read by indexing it with grid indices. When ``U`` is full
    (:func:`fold_rank` rows), the next measurement re-bases first: ``UᵀU`` is
    folded into an owned dense prior whose diagonal takes ``var``,
    ``fading_var`` becomes 0 and ``U`` empties. ``noise_var`` is the sensor
    noise variance, floored at the larger of :data:`VAR_FLOOR` and
    :data:`RELATIVE_VAR_FLOOR` times the largest prior variance, and ``rank``
    counts the measurements conditioned on.
    """

    def __init__(self, prior_cov: GridPrior | np.ndarray, fading_var: float, means, noise_var: float) -> None:
        means = np.array(means, dtype=float)
        if means.ndim != 2 or means.shape[0] < 1:
            raise ValueError("need a (K, N) array of prior means with at least one transmitter")
        n = means.shape[1]
        if prior_cov.shape != (n, n):
            raise ValueError("prior covariance must be N x N for N prior means per transmitter")
        if not (fading_var >= 0 and noise_var >= 0):
            raise ValueError("fading and noise variances must be nonnegative")
        self.prior_cov = prior_cov
        self.fading_var = float(fading_var)
        self.means = means
        self.var = prior_cov.diagonal() + self.fading_var
        largest = float(self.var.max(initial=0.0))
        self.noise_var = max(float(noise_var), VAR_FLOOR, RELATIVE_VAR_FLOOR * largest)
        self.rank = 0
        # Untouched rows cost address space only, not memory.
        self._u = np.empty((fold_rank(n), n))
        self._rows = 0
        self._owns_prior = False
        # The prior rows of the latest taps, and those taps' index bytes.
        self._block = self._block_key = None

    @classmethod
    def from_grid(cls, grid: GridSpec, params: ChannelParams) -> "SurveyPosterior":
        """The prior of a survey over ``grid``: link budgets, cached shadowing prior, fading."""
        if params.num_transmitters < 1:
            raise ValueError("need at least one transmitter")
        prior = grid_prior(grid, params.shadow_var, params.corr_distance)
        return cls(prior, params.fading_var, link_budgets(grid, params), params.noise_var)

    def condition(self, taps, values: Sequence[float]) -> None:
        """Condition on one measurement; ``values[k]`` is transmitter ``k``'s value.

        ``taps`` is the ``(index, weights)`` pair of
        :func:`aerosurvey.channel.interpolation_taps` at the measurement
        position: the measurement is ``powers[index] @ weights`` plus sensor
        noise. Nothing is modified when an argument is rejected.
        """
        index, w = taps
        if len(values) != self.means.shape[0]:
            raise ValueError("need one value per transmitter")
        values = np.array(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("measurement value must be finite")
        if not np.isfinite(w).all():
            raise ValueError("tap weights must be finite")
        rows = self._rows
        if rows == len(self._u):
            self._rebase()
            rows = 0
        # Column of the covariance through the taps; the covariance is
        # symmetric, so its rows are read instead of its columns. Consecutive
        # measurements often share their taps, and then reuse the rows read.
        # The fading scatter and the U correction are skipped where they add
        # exact zeros.
        key = index.tobytes()
        if key != self._block_key:
            self._block, self._block_key = self.prior_cov[index], key
        col = w @ self._block
        if self.fading_var:
            np.add.at(col, index, self.fading_var * w)
        if rows:
            u = self._u[:rows]
            col -= (u[:, index] @ w) @ u
        denom = self.noise_var + float(w @ col[index])
        scaled = np.divide(col, math.sqrt(denom), out=self._u[rows])
        self._rows = rows + 1
        self.rank += 1
        self.var -= scaled * scaled
        # Roundoff from near-exact observations can leave tiny negative variances.
        np.maximum(self.var, 0.0, out=self.var)
        innovations = values - self.means[:, index] @ w
        col /= denom
        self.means += np.multiply.outer(innovations, col)

    def _rebase(self) -> None:
        """Fold ``UᵀU`` into an owned prior and empty ``U``."""
        if not self._owns_prior:
            prior = self.prior_cov
            self.prior_cov = prior.dense() if isinstance(prior, GridPrior) else np.array(prior, dtype=float, order="C")
            self._owns_prior = True
        self._block = self._block_key = None
        cov, u = self.prior_cov, self._u[: self._rows]
        # cov -= UᵀU on the upper triangle (the lower one of the Fortran-order
        # view, which dsyrk overwrites), then mirrored: symmetric to the bit.
        dsyrk(-1.0, u.T, beta=1.0, c=cov.T, lower=1, overwrite_c=1)
        for i in range(1, len(cov)):
            cov[i, :i] = cov[:i, i]
        # The diagonal keeps the clamped variances the metrics already saw;
        # they include the fading that the shadowing prior lacks.
        np.fill_diagonal(cov, self.var)
        self.fading_var = 0.0
        self._rows = 0

    def covariance(self) -> np.ndarray:
        """The dense N x N posterior covariance that every transmitter shares.

        Re-bases and returns the owned prior: the covariance as of this call.
        A later re-base overwrites that array; copy it to keep it.
        """
        self._rebase()
        return self.prior_cov


def service_probability(mean, var, r_min: float) -> np.ndarray:
    """P[power >= r_min] per grid point under the posterior.

    ``mean`` is one transmitter's N posterior means or a (K, N) stack of
    them, and ``var`` the N posterior variances. Zero variance degenerates to
    the indicator of the mean clearing the threshold.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.sqrt(np.maximum(var, 0.0))
    degenerate = std == 0.0
    if not degenerate.any():
        return ndtr((mean - r_min) / std)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = ndtr((mean - r_min) / std)
    return np.where(degenerate, (mean >= r_min).astype(float), p)
