"""Normalized per-point map uncertainty and multi-transmitter aggregation.

This module turns a posterior's means and variances into the uncertainty
fields the planner and the survey metrics read. Every field is a plain array
in [0, 1]: one value per grid point, or one row of them per transmitter. A
leading block axis stacks the fields of several posteriors, so one call
evaluates a block of measurements: the fields are element-wise and the
aggregation reduces along the transmitter axis only, so each stack of a block
gets the values a call on it alone would give. A map's total uncertainty is
the mean of its aggregated field over the grid.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from . import estimator
from .channel import ChannelParams

__all__ = [
    "power_uncertainty",
    "service_uncertainty",
    "service_uncertainty_field",
]

_LN2 = np.log(2.0)


def power_uncertainty(var, params: ChannelParams) -> np.ndarray:
    """Posterior variances ``var`` normalized by the prior variance, per grid point.

    A zero prior variance means the map is known exactly, so nothing is
    uncertain and the field is all zeros.
    """
    var = np.asarray(var, dtype=float)
    prior = params.shadow_var + params.fading_var
    if prior <= 0:
        return np.zeros(var.shape)
    return np.minimum(np.maximum(var / prior, 0.0), 1.0)


def service_uncertainty(probabilities) -> np.ndarray:
    """Binary entropy (bits) of the service probabilities, with 0*log(0) = 0.

    Element-wise, so a (K, N) stack of per-transmitter probabilities gives a
    (K, N) field.
    """
    p = np.asarray(probabilities, dtype=float)
    # NaN and infinities fail these comparisons too. The ufunc reductions are
    # what ndarray.min and max run, without their Python wrappers.
    if p.size and not (np.minimum.reduce(p, axis=None) >= 0.0 and np.maximum.reduce(p, axis=None) <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    q = 1.0 - p
    ent = xlogy(p, p) + xlogy(q, q)
    ent /= -_LN2
    # A certain point gives -0.0 here; the lower clip makes it +0.0.
    return np.minimum(np.maximum(ent, 0.0), 1.0)


def service_uncertainty_field(means, var, r_min: float, aggregation: str) -> np.ndarray:
    """Service uncertainty per grid point, aggregated over transmitters.

    ``means`` is the (K, N) stack of posterior means and ``var`` the N
    variances they share; a (B, K, N) block of stacks with their (B, N)
    variances gives a (B, N) field. Under ``mean`` aggregation the K
    per-transmitter entropies are averaged. Under ``max`` only one
    transmitter per point is evaluated: with a shared variance, a point's
    entropy is even in ``mean - r_min`` and falls as it moves away from zero,
    so the largest is that of the mean nearest ``r_min`` (the first such
    transmitter on ties).
    """
    means = np.asarray(means, dtype=float)
    var = np.asarray(var, dtype=float)
    # The service probabilities are read through the estimator module, so
    # that a probe or spy installed on it sees every call.
    if aggregation == "mean":
        # Each stack's variances broadcast over its K rows.
        probs = estimator.service_probability(means, var[..., None, :], r_min)
        return service_uncertainty(probs).mean(axis=-2)
    if aggregation != "max":
        raise ValueError(f"unknown aggregation mode: {aggregation!r}")
    # A running argmin over the K rows: argmin(axis=-2) across the rows of a
    # C-order array costs several times as much. The last row needs no
    # running minimum after it.
    dist = np.abs(means - r_min)
    nearest, best = means[..., 0, :], dist[..., 0, :]
    last = means.shape[-2] - 1
    for k in range(1, last + 1):
        nearest = np.where(dist[..., k, :] < best, means[..., k, :], nearest)
        if k < last:
            best = np.minimum(dist[..., k, :], best)
    return service_uncertainty(estimator.service_probability(nearest, var, r_min))
